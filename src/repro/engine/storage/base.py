"""The pluggable access-method layer.

A table's rows live behind an :class:`AccessMethod`: the contract the
:class:`~repro.engine.table.Table` facade, the executor's scans, and the
observability layer (SET STATISTICS IO, ``sys_dm_io_stats``) program
against. Two implementations ship:

- ``heap`` — :class:`~repro.engine.storage.heap.HeapFile`, slotted
  pages in insertion order (the default, and the paper's row store);
- ``column`` — :class:`~repro.engine.storage.columnstore.ColumnStore`,
  per-column encoded segments with zone maps.

Records are addressed by a ``rid`` — an opaque ``(major, minor)`` pair
whose meaning belongs to the access method (page/slot for the heap,
segment/offset for the column store). Indexes store rids and hand them
back to :meth:`AccessMethod.fetch` without interpreting them, which is
what lets a B+tree index sit on either engine unchanged.

Counter namespaces are part of the contract: each access method reports
its IO under counter names that do not collide with the other engines'
(``pages_read`` vs ``segments_read``), so a database mixing storage
engines can merge every table's :meth:`io_report` into one
``sys_dm_io_stats`` view without cross-engine sums becoming meaningless.
Only counters with shared semantics (``rows_inserted``, ``scans``,
``batch_reads``, ``bytes_written``, ``bytes_uncompressed``) are shared.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import BindError
from ..metrics import Counters
from ..schema import TableSchema

Rid = Tuple[int, int]
#: "slice ``i`` of ``n``" of an access path's storage units
Part = Tuple[int, int]

#: schema.storage values
STORAGE_HEAP = "heap"
STORAGE_COLUMN = "column"

#: never-reused store identities for data_cookie()
_STORE_GENERATION = itertools.count(1)


def part_of(units: Sequence[Any], part: Optional[Part]) -> Sequence[Any]:
    """Slice ``i`` of ``n`` of ``units`` (heap pages, column segments,
    B+tree leaf runs): contiguous, disjoint, and together every unit in
    order. None is the whole sequence."""
    if part is None:
        return units
    i, n = part
    return units[len(units) * i // n : len(units) * (i + 1) // n]


class AccessMethod:
    """Base class / protocol for table storage engines."""

    #: short engine tag printed by EXPLAIN scan nodes and the storage
    #: report ("heap" / "column")
    engine_name: str = "?"

    schema: TableSchema
    #: always-on IO counters (SET STATISTICS IO / sys_dm_io_stats);
    #: counter names must follow the namespace contract above
    io: Counters
    #: moves on every row mutation; see :meth:`data_cookie`
    _data_version = 0

    # -- write path ----------------------------------------------------------

    def insert_many(self, rows: Sequence[Tuple[Any, ...]]) -> List[Rid]:
        """Store a batch of validated rows; returns their rids in order.
        Everything that can fail (encoding) happens before the first row
        is stored, and the data version and the IO counters move once
        per batch, to the totals row-at-a-time inserts would reach."""
        raise NotImplementedError

    def insert(self, row: Sequence[Any]) -> Rid:
        """:meth:`insert_many` for one validated row."""
        return self.insert_many((tuple(row),))[0]

    def delete(self, rid: Rid) -> Tuple[Any, ...]:
        raise NotImplementedError

    def seal_all(self, force: bool = True) -> None:
        """Finish a bulk load: seal open pages / encode the open segment.

        ``force=False`` marks a per-statement boundary rather than an
        explicit bulk-load end; engines with expensive seals (the column
        store) may keep a small tail open as a delta store."""
        raise NotImplementedError

    # -- read path -----------------------------------------------------------

    def fetch(self, rid: Rid) -> Tuple[Any, ...]:
        raise NotImplementedError

    def fetch_many(self, rids: Sequence[Rid]) -> List[Tuple[Any, ...]]:
        """The rows at ``rids``, in that order: what an index range hands
        a seek. Engines whose rids cluster (heap pages) override this to
        visit each container once per run of rids."""
        fetch = self.fetch
        return [fetch(rid) for rid in rids]

    def scan(self) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        raise NotImplementedError

    def scan_batches(self, part: Optional[Part] = None) -> Iterator[list]:
        """Batches of live rows in physical order; ``part`` restricts
        the scan to one contiguous slice of the storage units
        (:func:`part_of`), as an exchange worker reads its share."""
        raise NotImplementedError

    def data_cookie(self) -> Tuple[int, int]:
        """``(identity, version)`` for the store's current row contents.

        The identity is process-unique and never reused; the version
        moves on every row mutation (engines call
        :meth:`_bump_data_version` from their write paths). A forked
        exchange worker holds the rows as of its fork: the pool re-forks
        when a table's cookie has moved since, and the worker refuses a
        task whose cookie is not its own."""
        gen = self.__dict__.get("_store_generation")
        if gen is None:
            gen = self.__dict__["_store_generation"] = next(_STORE_GENERATION)
        return (gen, self._data_version)

    def _bump_data_version(self) -> None:
        self._data_version += 1

    # -- accounting / stats hooks ---------------------------------------------

    @property
    def row_count(self) -> int:
        raise NotImplementedError

    def stored_bytes(self, include_page_overhead: bool = True) -> int:
        raise NotImplementedError

    def uncompressed_bytes(self) -> int:
        raise NotImplementedError

    def io_report(self) -> Counters:
        """Engine counters, already in this engine's namespace."""
        return self.io.snapshot()

    def segment_report(self) -> List[dict]:
        """Per-segment metadata rows for ``sys_dm_db_segment_stats``.
        Row stores have none."""
        return []

    def encoding_summary(self) -> Dict[str, str]:
        """column name -> dominant encoding, for the storage report."""
        return {}


#: registry: schema.storage value -> AccessMethod factory
_ACCESS_METHODS: Dict[str, Callable[..., AccessMethod]] = {}


def register_access_method(
    name: str, factory: Callable[..., AccessMethod]
) -> None:
    _ACCESS_METHODS[name.lower()] = factory


def create_access_method(
    schema: TableSchema, udt_codec_lookup=None
) -> AccessMethod:
    """Instantiate the access method a schema asks for (default heap)."""
    name = getattr(schema, "storage", STORAGE_HEAP) or STORAGE_HEAP
    try:
        factory = _ACCESS_METHODS[name.lower()]
    except KeyError:
        raise BindError(
            f"unknown storage engine {name!r} for table {schema.name!r}"
        ) from None
    return factory(schema, udt_codec_lookup=udt_codec_lookup)
