"""Columnar segment store: the second access method.

Rows are accumulated into an open row-wise *tail*; every
``segment_rows`` inserts the tail is sealed into a :class:`RowSegment`
holding one encoded :class:`ColumnSegment` per column. Each column
segment carries:

- an **encoding** — ``dict`` (dictionary + per-row codes), ``rle``
  (run/length pairs), ``bitpack`` (minimal-width integer array), or
  ``plain`` — chosen at seal time by estimated encoded size;
- a **zone map** — min/max over the segment's non-NULL values, which
  lets scans skip whole segments whose range cannot satisfy a pushed
  predicate (none when a value is unorderable, NaN included);
- a **null bitmap** and null count, so ``IS [NOT] NULL`` predicates
  prune on metadata alone.

Record ids are ``(segment_index, offset)``; the open tail addresses as
segment ``len(segments)``, which the seal it eventually gets preserves,
so B+tree indexes keep working across seals. Deletes are tombstones
(sealed segments are immutable), exactly like the heap's slot
tombstones — space is reclaimed only by a rebuild.

A scan first drops the segments whose zone maps rule a pushed
predicate out, then tests each predicate on the decoded vectors of the
rest, and materialises only the surviving positions of the *referenced*
columns (late materialization). The encodings are a storage format:
nothing evaluates a predicate on them.

IO counters live in a namespace disjoint from the heap's
(``segments_read`` / ``segments_skipped`` / ``segment_fetches`` /
``columns_read`` / ``segment_cache_misses`` vs ``pages_read`` /
``page_cache_misses``), so merging both engines' reports into
``sys_dm_io_stats`` never sums incomparable units; see
:mod:`repro.engine.storage.base`.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..metrics import Counters
from ..schema import COMPRESSION_NONE, TableSchema, TableStatistics
from ..types import SqlType
from .base import (
    AccessMethod,
    Part,
    Rid,
    STORAGE_COLUMN,
    part_of,
    register_access_method,
)
from .serializer import RowSerializer

#: rows per sealed segment (SQL Server columnstore uses ~1M; the
#: simulator default keeps segments meaningful at benchmark scale).
#: Override per table with ``WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = n)``.
DEFAULT_SEGMENT_ROWS = 65536

#: per-column-segment metadata overhead charged by the byte accounting
#: (encoding tag, zone map, null count, offsets)
SEGMENT_HEADER_SIZE = 64

ENC_PLAIN = "plain"
ENC_DICT = "dict"
ENC_RLE = "rle"
ENC_BITPACK = "bitpack"


# ---------------------------------------------------------------------------
# pushed predicates
# ---------------------------------------------------------------------------


def _is_param(value: Any) -> bool:
    # duck-typed so storage never imports the expression layer: a plan
    # cache parameter slot carries ``is_parameter`` and a live ``value``
    return getattr(value, "is_parameter", False)


class PushedPredicate:
    """One conjunct the planner pushed into a column scan.

    ``op`` is one of ``= <> < <= > >= in between isnull notnull``;
    ``value`` is the literal (a frozenset for ``in``, a ``(lo, hi)``
    pair for ``between``, ``None`` for the null tests). Semantics match
    the compiled row predicate: comparisons against NULL never match.

    Any literal position may instead hold a plan-cache parameter slot
    (for ``in``, a tuple mixing slots and plain values); ``value`` then
    resolves the current slot contents on every read, so a cached plan
    template evaluates fresh parameters without being re-planned. Slots
    survive pickling to exchange workers — the worker's copy freezes the
    values that were current at ship time, which is exactly the
    execution being shipped.
    """

    __slots__ = ("col_index", "op", "_value", "_dynamic", "label")

    def __init__(self, col_index: int, op: str, value: Any, label: str = ""):
        self.col_index = col_index
        self.op = op
        self._value = value
        if op in ("in", "between"):
            self._dynamic = any(_is_param(v) for v in value)
        else:
            self._dynamic = _is_param(value)
        self.label = label

    @property
    def value(self) -> Any:
        if not self._dynamic:
            return self._value
        if self.op == "in":
            return frozenset(
                v.value if _is_param(v) else v for v in self._value
            )
        if self.op == "between":
            lo, hi = self._value
            return (
                lo.value if _is_param(lo) else lo,
                hi.value if _is_param(hi) else hi,
            )
        return self._value.value

    def matcher(self) -> Callable[[Any], bool]:
        op, arg = self.op, self.value
        if op == "=":
            return lambda v: v is not None and v == arg
        if op == "<>":
            return lambda v: v is not None and v != arg
        if op == "<":
            return lambda v: v is not None and v < arg
        if op == "<=":
            return lambda v: v is not None and v <= arg
        if op == ">":
            return lambda v: v is not None and v > arg
        if op == ">=":
            return lambda v: v is not None and v >= arg
        if op == "in":
            return lambda v: v is not None and v in arg
        if op == "between":
            lo, hi = arg
            return lambda v: v is not None and lo <= v <= hi
        if op == "isnull":
            return lambda v: v is None
        if op == "notnull":
            return lambda v: v is not None
        raise StorageError(f"unknown pushed predicate op {op!r}")


# ---------------------------------------------------------------------------
# column segments
# ---------------------------------------------------------------------------


def _value_bytes(value: Any, sql_type: Optional[SqlType]) -> int:
    """Approximate stored width of one value, for encoding selection."""
    if value is None:
        return 0
    if sql_type is not None and sql_type.fixed_width is not None:
        return sql_type.fixed_width
    if isinstance(value, (str, bytes, bytearray)):
        return len(value) + 1
    return 8


def _int_typecode(lo: int, hi: int) -> Optional[str]:
    """Smallest array typecode holding [lo, hi], or None when > 64 bit."""
    for code, bits in (("b", 7), ("h", 15), ("l", 31), ("q", 63)):
        if -(1 << bits) <= lo and hi < (1 << bits):
            return code
    return None


def _same_value(a: Any, b: Any) -> bool:
    """Equality strict enough for lossless encoding: runs and dictionary
    entries may only collapse values whose round-trip is byte-identical.
    Plain ``==`` would merge ``0.0`` with ``-0.0`` (and a hypothetical
    mixed-type ``1``/``1.0``), silently rewriting stored values."""
    if a is b:
        return True
    if a is None or b is None or type(a) is not type(b) or a != b:
        return False
    if isinstance(a, float) and a == 0.0:
        return str(a) == str(b)  # separates -0.0 from 0.0
    return True


def _dict_key(value: Any) -> Any:
    """Hash key under which values may share a dictionary entry."""
    if isinstance(value, float) and value == 0.0:
        return (float, str(value))
    return value


def _null_bitmap(values: Sequence[Any]) -> Optional[bytes]:
    """Little-endian bitmap with bit i set when values[i] IS NULL."""
    bitmap = bytearray((len(values) + 7) // 8)
    any_null = False
    for i, v in enumerate(values):
        if v is None:
            bitmap[i >> 3] |= 1 << (i & 7)
            any_null = True
    return bytes(bitmap) if any_null else None


class ColumnSegment:
    """One column's encoded vector for one row segment."""

    __slots__ = (
        "encoding",
        "payload",
        "rows",
        "null_count",
        "nulls",
        "min_value",
        "max_value",
        "has_zone",
        "encoded_bytes",
        "ndv",
    )

    def __init__(self, values: Sequence[Any], sql_type: Optional[SqlType]):
        n = len(values)
        self.rows = n
        self.nulls = _null_bitmap(values)
        self.null_count = sum(1 for v in values if v is None)
        non_null = [v for v in values if v is not None]
        try:
            if any(v != v for v in non_null):
                raise TypeError  # a NaN orders against nothing
            self.min_value = min(non_null) if non_null else None
            self.max_value = max(non_null) if non_null else None
            self.has_zone = bool(non_null)
        except TypeError:
            # mixed / unorderable values (UDTs, NaN): no zone map
            self.min_value = self.max_value = None
            self.has_zone = False
        self.encoding, self.payload, self.encoded_bytes = self._encode(
            values, sql_type
        )

    # -- encoding selection -----------------------------------------------------

    def _encode(self, values: Sequence[Any], sql_type):
        n = len(values)
        if n == 0:
            self.ndv = 0
            return ENC_PLAIN, tuple(), SEGMENT_HEADER_SIZE
        plain_bytes = sum(_value_bytes(v, sql_type) for v in values)
        null_overhead = (n + 7) // 8 if self.nulls is not None else 0
        candidates = [(plain_bytes + null_overhead, 0, ENC_PLAIN)]

        runs: List[Tuple[Any, int]] = []
        last = values[0]
        count = 1
        for v in values[1:]:
            if _same_value(v, last):
                count += 1
            else:
                runs.append((last, count))
                last, count = v, 1
        runs.append((last, count))
        rle_bytes = sum(
            _value_bytes(v, sql_type) + 2 for v, _cnt in runs
        )
        candidates.append((rle_bytes, 1, ENC_RLE))

        distinct: Optional[Dict[Any, int]] = {}
        dictionary_values: List[Any] = []
        try:
            for v in values:
                key = _dict_key(v)
                if key not in distinct:
                    distinct[key] = len(dictionary_values)
                    dictionary_values.append(v)
        except TypeError:  # unhashable values: dictionary impossible
            distinct = None
        # distinct count, free at seal time; sys_dm_db_segment_stats
        # reports it (non-NULL values only)
        if distinct is None:
            self.ndv = None
        else:
            self.ndv = len(distinct) - (
                1 if self.null_count and None in distinct else 0
            )
        if distinct is not None and len(distinct) < n:
            ndv = len(distinct)
            code_width = 1 if ndv <= 256 else (2 if ndv <= 65536 else 4)
            dict_bytes = (
                sum(_value_bytes(v, sql_type) for v in dictionary_values)
                + n * code_width
            )
            candidates.append((dict_bytes, 2, ENC_DICT))

        pack_code = None
        if (
            self.null_count == 0
            and sql_type is not None
            and sql_type.is_integer
            and self.has_zone
        ):
            pack_code = _int_typecode(self.min_value, self.max_value)
            if pack_code is not None:
                candidates.append(
                    (n * array(pack_code).itemsize, 3, ENC_BITPACK)
                )

        best_bytes, _tie, encoding = min(candidates)
        if encoding == ENC_RLE:
            payload: Any = runs
        elif encoding == ENC_DICT:
            dictionary = tuple(dictionary_values)
            code_tc = "H" if len(dictionary) <= 65536 else "L"
            codes = array(code_tc, (distinct[_dict_key(v)] for v in values))
            payload = (dictionary, codes)
        elif encoding == ENC_BITPACK:
            payload = array(pack_code, values)
        else:
            payload = tuple(values)
        return encoding, payload, best_bytes + SEGMENT_HEADER_SIZE

    # -- decode -------------------------------------------------------------------

    def decode(self) -> List[Any]:
        """Materialise the full value vector (row order)."""
        if self.encoding == ENC_PLAIN:
            return list(self.payload)
        if self.encoding == ENC_DICT:
            dictionary, codes = self.payload
            return [dictionary[c] for c in codes]
        if self.encoding == ENC_RLE:
            out: List[Any] = []
            for value, count in self.payload:
                out.extend([value] * count)
            return out
        return list(self.payload)  # bitpack

    # -- zone map ------------------------------------------------------------------

    def zone_admits(self, pred: PushedPredicate) -> bool:
        """May any row of this segment satisfy ``pred``? (metadata only)"""
        op = pred.op
        if op == "isnull":
            return self.null_count > 0
        if op == "notnull":
            return self.null_count < self.rows
        if self.null_count == self.rows:
            return False  # all NULL: no comparison can match
        if not self.has_zone:
            return True  # no zone map: stay conservative
        lo, hi = self.min_value, self.max_value
        value = pred.value
        try:
            if op == "=":
                return lo <= value <= hi
            if op == "<>":
                return not (lo == hi == value)
            if op == "<":
                return lo < value
            if op == "<=":
                return lo <= value
            if op == ">":
                return hi > value
            if op == ">=":
                return hi >= value
            if op == "in":
                return any(lo <= v <= hi for v in value)
            if op == "between":
                between_lo, between_hi = value
                return not (between_hi < lo or between_lo > hi)
        except TypeError:
            return True  # literal/zone types don't compare: no pruning
        return True


class RowSegment:
    """A sealed group of rows: one :class:`ColumnSegment` per column."""

    __slots__ = ("columns", "rows", "deleted", "_cache")

    def __init__(self, columns: Sequence[ColumnSegment], rows: int):
        self.columns = tuple(columns)
        self.rows = rows
        self.deleted: set = set()
        #: warm-buffer-pool analogue: decoded vectors per column index
        self._cache: Dict[int, List[Any]] = {}

    @property
    def live_rows(self) -> int:
        return self.rows - len(self.deleted)

    def values(self, col_index: int, io: Optional[Counters] = None) -> List[Any]:
        """Decoded vector for one column, through the decode cache."""
        cached = self._cache.get(col_index)
        if cached is None:
            if io is not None:
                io.incr("segment_cache_misses")
            cached = self.columns[col_index].decode()
            self._cache[col_index] = cached
        if io is not None:
            io.incr("columns_read")
        return cached

    def gather(
        self,
        col_index: int,
        positions: Optional[Sequence[int]],
        io: Optional[Counters] = None,
    ) -> List[Any]:
        """Late materialization: only the surviving positions."""
        values = self.values(col_index, io)
        if positions is None:
            return values
        return [values[p] for p in positions]

    def live_positions(self) -> Optional[List[int]]:
        """None when no tombstones, else the surviving positions."""
        if not self.deleted:
            return None
        deleted = self.deleted
        return [i for i in range(self.rows) if i not in deleted]

    def selection(
        self,
        predicates: Sequence[PushedPredicate],
        io: Optional[Counters] = None,
    ) -> Optional[List[int]]:
        """Surviving positions under tombstones + all predicates;
        None = every row survives. The first predicate tests every
        decoded value; later ones test only prior survivors."""
        sel = self.live_positions()
        for pred in predicates:
            match = pred.matcher()
            if sel is None:
                values = self.columns[pred.col_index].decode()
                sel = [i for i, v in enumerate(values) if match(v)]
                if len(sel) == self.rows:
                    sel = None
                    continue
            else:
                values = self.gather(pred.col_index, sel, io)
                sel = [p for p, v in zip(sel, values) if match(v)]
            if not sel:
                return []
        return sel


# ---------------------------------------------------------------------------
# the access method
# ---------------------------------------------------------------------------


class ColumnStore(AccessMethod):
    """Columnar segment storage for one table."""

    engine_name = STORAGE_COLUMN

    def __init__(
        self,
        schema: TableSchema,
        compression: str = COMPRESSION_NONE,
        udt_codec_lookup=None,
        segment_rows: Optional[int] = None,
    ):
        self.schema = schema
        # DATA_COMPRESSION is a row-format knob; column encodings are
        # intrinsic, so the setting is accepted and ignored
        self.compression = compression
        self.serializer = RowSerializer(
            schema, row_compression=False, udt_codec_lookup=udt_codec_lookup
        )
        self.segment_rows = int(
            segment_rows
            or getattr(schema, "segment_rows", None)
            or DEFAULT_SEGMENT_ROWS
        )
        if self.segment_rows < 2:
            raise StorageError("SEGMENT_ROWS must be at least 2")
        self.segments: List[RowSegment] = []
        self.tail: List[Tuple[Any, ...]] = []
        self.tail_deleted: set = set()
        self._tail_bytes = 0
        self.stats = TableStatistics()
        self.io = Counters()

    # -- write path ----------------------------------------------------------------

    def insert_many(self, rows: Sequence[Tuple[Any, ...]]) -> List[Rid]:
        """Append a batch of validated rows to the tail, sealing a
        segment each time it fills; returns their rids."""
        # rows are charged their uncompressed record size until sealed
        sizes = list(map(len, self.serializer.serialize_many(rows)))
        rids: List[Rid] = []
        start = 0
        while start < len(rows):
            segment_index, offset = len(self.segments), len(self.tail)
            stop = start + self.segment_rows - offset
            self.tail.extend(rows[start:stop])
            self._tail_bytes += sum(sizes[start:stop])
            rids.extend(
                (segment_index, i) for i in range(offset, len(self.tail))
            )
            if len(self.tail) >= self.segment_rows:
                self._seal_tail()
            start = stop
        self._bump_data_version()
        size = sum(sizes)
        self.stats.on_insert(size, size, len(rows))
        io = self.io
        io.incr("rows_inserted", len(rows))
        io.incr("bytes_written", size)
        io.incr("bytes_uncompressed", size)
        return rids

    def _seal_tail(self) -> None:
        if not self.tail:
            return
        schema_columns = self.schema.columns
        columns = [
            ColumnSegment(
                [row[i] for row in self.tail], schema_columns[i].sql_type
            )
            for i in range(len(schema_columns))
        ]
        segment = RowSegment(columns, len(self.tail))
        segment.deleted = self.tail_deleted
        self.segments.append(segment)
        encoded = sum(c.encoded_bytes for c in columns)
        # re-state the sealed rows at their encoded size
        self.stats.data_bytes += encoded - self._tail_bytes
        self.stats.page_count += 1
        self.io.incr("segments_written")
        # namespaced distinctly from the heap's PAGE-compression
        # ``compression_bytes_*`` so mixed-engine databases stay summable
        # per counter in ``sys_dm_io_stats`` (one ratio per engine)
        self.io.incr("segment_bytes_in", self._tail_bytes)
        self.io.incr("segment_bytes_out", encoded)
        self.tail = []
        self.tail_deleted = set()
        self._tail_bytes = 0
        # the same rows in other units: forks from before and after a
        # seal would slice the store differently
        self._bump_data_version()

    def seal_all(self, force: bool = True) -> None:
        """Seal the open tail.

        With ``force`` (the end of an explicit bulk load) any non-empty
        tail is encoded, so zone maps and encodings cover every row.
        Without it the tail acts as a delta store: per-statement
        finalisation after row-at-a-time ``INSERT``s leaves it row-wise
        until it accumulates a full segment's worth of rows —
        ``insert()`` already seals on that boundary — instead of
        degenerating into one-row segments per statement. The tail is
        always scanned, so deferring the seal never loses rows.
        """
        if force or len(self.tail) >= self.segment_rows:
            self._seal_tail()

    def delete(self, rid: Rid) -> Tuple[Any, ...]:
        row = self.fetch(rid)
        segment_index, offset = rid
        if segment_index == len(self.segments):
            self.tail_deleted.add(offset)
        else:
            self.segments[segment_index].deleted.add(offset)
        self._bump_data_version()
        # tombstones do not reclaim encoded space (only a rebuild would),
        # so only the row count and uncompressed accounting move
        size = len(self.serializer.serialize(row))
        self.stats.on_delete(0, size)
        return row

    # -- read path -----------------------------------------------------------------

    def fetch(self, rid: Rid) -> Tuple[Any, ...]:
        segment_index, offset = rid
        if segment_index == len(self.segments):
            if offset < 0 or offset >= len(self.tail):
                raise StorageError(f"bad tail offset {offset}")
            if offset in self.tail_deleted:
                raise StorageError(f"tail row {offset} is deleted")
            return self.tail[offset]
        if segment_index < 0 or segment_index > len(self.segments):
            raise StorageError(f"bad segment number {segment_index}")
        segment = self.segments[segment_index]
        if offset < 0 or offset >= segment.rows:
            raise StorageError(
                f"bad offset {offset} in segment {segment_index}"
            )
        if offset in segment.deleted:
            raise StorageError(
                f"row {offset} in segment {segment_index} is deleted"
            )
        self.io.incr("segment_fetches")
        return tuple(
            segment.values(i)[offset] for i in range(len(segment.columns))
        )

    def _segment_rows_out(self, segment: RowSegment) -> List[Tuple[Any, ...]]:
        io = self.io
        io.incr("segments_read")
        vectors = [
            segment.values(i, io) for i in range(len(segment.columns))
        ]
        rows = list(zip(*vectors))
        if segment.deleted:
            deleted = segment.deleted
            return [r for i, r in enumerate(rows) if i not in deleted]
        return rows

    def tail_rows(self) -> List[Tuple[Any, ...]]:
        """Live rows of the open tail, in insertion order."""
        if not self.tail_deleted:
            return list(self.tail)
        deleted = self.tail_deleted
        return [r for i, r in enumerate(self.tail) if i not in deleted]

    def part(
        self, part: Optional[Part] = None
    ) -> Tuple[Sequence[RowSegment], List[Tuple[Any, ...]]]:
        """The sealed segments and the live tail rows of one contiguous
        slice of the store (:func:`part_of` over the segments; the
        delta-store tail rides with the last slice, so the slices in
        order are the whole scan in its row order)."""
        last = part is None or part[0] == part[1] - 1
        return part_of(self.segments, part), self.tail_rows() if last else []

    def scan(self) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        self.io.incr("scans")
        for segment_index, segment in enumerate(self.segments):
            self.io.incr("segments_read")
            vectors = [
                segment.values(i, self.io)
                for i in range(len(segment.columns))
            ]
            deleted = segment.deleted
            for offset, row in enumerate(zip(*vectors)):
                if offset not in deleted:
                    yield (segment_index, offset), row
        tail_index = len(self.segments)
        for offset, row in enumerate(self.tail):
            if offset not in self.tail_deleted:
                yield (tail_index, offset), row

    def scan_batches(self, part: Optional[Part] = None) -> Iterator[list]:
        """One batch of live rows per sealed segment, then the tail."""
        if part is None or part[0] == 0:
            self.io.incr("scans")
        segments, tail = self.part(part)
        for segment in segments:
            batch = self._segment_rows_out(segment)
            if batch:
                self.io.incr("batch_reads")
                yield batch
        if tail:
            self.io.incr("batch_reads")
            yield tail

    # -- metadata ---------------------------------------------------------------------

    def prune_estimate(
        self, predicates: Sequence[PushedPredicate]
    ) -> Tuple[int, int]:
        """(segments read, segments skipped) under the zone maps —
        metadata only, used by the cost model; counts the open tail as
        one always-read segment when non-empty."""
        read = skipped = 0
        for segment in self.segments:
            if all(
                segment.columns[p.col_index].zone_admits(p)
                for p in predicates
            ):
                read += 1
            else:
                skipped += 1
        if self.tail:
            read += 1
        return read, skipped

    def segment_report(self) -> List[dict]:
        report = []
        column_names = self.schema.column_names
        for segment_index, segment in enumerate(self.segments):
            for col_index, column in enumerate(segment.columns):
                report.append(
                    {
                        "column_name": column_names[col_index],
                        "segment_id": segment_index,
                        "encoding": column.encoding,
                        "rows": segment.live_rows,
                        "null_count": column.null_count,
                        "n_distinct": column.ndv,
                        "min_value": column.min_value,
                        "max_value": column.max_value,
                        "encoded_bytes": column.encoded_bytes,
                    }
                )
        return report

    def encoding_summary(self) -> Dict[str, str]:
        """column name -> most frequent encoding over sealed segments."""
        tallies: Dict[str, Dict[str, int]] = {}
        for name in self.schema.column_names:
            tallies[name] = {}
        for segment in self.segments:
            for name, column in zip(self.schema.column_names, segment.columns):
                tally = tallies[name]
                tally[column.encoding] = tally.get(column.encoding, 0) + 1
        return {
            name: max(tally, key=tally.get)
            for name, tally in tallies.items()
            if tally
        }

    # -- accounting ---------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.stats.row_count

    def stored_bytes(self, include_page_overhead: bool = True) -> int:
        total = self.stats.data_bytes
        if not include_page_overhead:
            total -= SEGMENT_HEADER_SIZE * sum(
                len(s.columns) for s in self.segments
            )
        return total

    def uncompressed_bytes(self) -> int:
        return self.stats.uncompressed_bytes


def _make_columnstore(schema: TableSchema, udt_codec_lookup=None) -> ColumnStore:
    return ColumnStore(
        schema,
        compression=schema.compression,
        udt_codec_lookup=udt_codec_lookup,
        segment_rows=getattr(schema, "segment_rows", None),
    )


register_access_method(STORAGE_COLUMN, _make_columnstore)
