"""Tables: schema + heap storage + indexes + FILESTREAM handling.

A :class:`Table` owns a heap file for its rows. Tables with a primary key
additionally maintain a B+tree mapping the key to the row's rid — for
non-heap tables this acts as the *clustered index*: :meth:`seek` (with
no bounds, the whole table) delivers rows in key order, which the
planner exploits for merge joins and ordered aggregation (the paper's
Figure 10 plan).

Columns declared ``VARBINARY(MAX) FILESTREAM`` are transparent pointers
into the database's :class:`~repro.engine.filestream.FileStreamStore`:
inserting ``bytes`` stores the payload as a managed file and keeps only
the 16-byte GUID in-row; scans surface the GUID as a :class:`uuid.UUID`
so queries can call ``PathName()`` / ``DATALENGTH()`` on it.
"""

from __future__ import annotations

import uuid
from itertools import chain, islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import BindError, ConstraintViolation, DuplicateKeyError
from .filestream import FileStreamStore
from .index.btree import BPlusTree
from .metrics import Counters
from .schema import TableSchema, tuple_getter
from .storage.base import Part, Rid, create_access_method

#: rows per batch when :meth:`Table.insert_many` drains an iterator
BATCH_ROWS = 4096


class Table:
    """One stored table."""

    def __init__(
        self,
        schema: TableSchema,
        filestream_store: Optional[FileStreamStore] = None,
        udt_codec_lookup=None,
    ):
        self.schema = schema
        #: the access method storing this table's rows (heap or column
        #: store), selected by ``schema.storage``
        self.store = create_access_method(
            schema, udt_codec_lookup=udt_codec_lookup
        )
        self._fs_store = filestream_store
        self._fs_columns = tuple(
            i for i, c in enumerate(schema.columns) if c.sql_type.filestream
        )
        if self._fs_columns and filestream_store is None:
            raise BindError(
                f"table {schema.name!r} declares FILESTREAM columns but the "
                "database has no FileStream store"
            )
        self._identity_col = next(
            (i for i, c in enumerate(schema.columns) if c.identity), None
        )
        self._next_identity = 1
        # Primary-key index. For non-heap tables this is the clustered index.
        self._pk_index: Optional[BPlusTree] = (
            BPlusTree(unique=True) if schema.primary_key else None
        )
        self._secondary: Dict[str, Tuple[Tuple[int, ...], BPlusTree]] = {}
        #: compiled once per table (and kept off the schema, which is
        #: pickled into exchange payloads): row validation, key extraction
        self._validate = schema.row_validator()
        self._validate_batch = schema.batch_validator()
        self._key_of = tuple_getter(schema.key_indexes)
        #: optimizer statistics, populated by UPDATE STATISTICS / analyze()
        self.statistics = None
        #: the database's statement ledger, once :meth:`watch_io` ran
        self._io_ledger = None

    # -- inserts ---------------------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> Rid:
        """Validate and store one row (full column order): the batch
        path of :meth:`insert_many` for a batch of one.

        Pass ``None`` for an IDENTITY column to have a value assigned.
        FILESTREAM columns accept ``bytes`` (payload stored as a managed
        file) or an existing :class:`uuid.UUID` pointer.
        """
        return self._insert_batch((values,))[0]

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Validate and store rows; returns how many.

        A batch is all-or-nothing: identity and FILESTREAM handling,
        validation, key extraction and the uniqueness of every key are
        settled before the first row is stored, so a failing batch
        leaves rows, indexes, the IDENTITY counter, the write counters
        and the FILESTREAM store as they were. A list or tuple is one batch; any
        other iterable is consumed in batches of :data:`BATCH_ROWS`, so
        a lane streams through without being held whole.
        """
        if isinstance(rows, (list, tuple)):
            return len(self._insert_batch(rows)) if rows else 0
        count = 0
        rows = iter(rows)
        while batch := list(islice(rows, BATCH_ROWS)):
            count += len(self._insert_batch(batch))
        return count

    def _insert_batch(self, batch: Sequence[Sequence[Any]]) -> List[Rid]:
        identity_col = self._identity_col
        next_identity = self._next_identity
        validate = self._validate
        created_blobs: List[uuid.UUID] = []
        try:
            if identity_col is None and not self._fs_columns:
                rows = (
                    [validate(batch[0])] if len(batch) == 1
                    else self._validate_batch(batch)
                )
            else:
                rows = []
                for values in batch:
                    row = list(values)
                    if identity_col is not None and row[identity_col] is None:
                        row[identity_col] = next_identity
                    self._store_blobs(row, created_blobs)
                    row = validate(row)
                    rows.append(row)
                    if identity_col is not None:
                        ident = row[identity_col]
                        if isinstance(ident, int) and ident >= next_identity:
                            next_identity = ident + 1
            keys = okeys = None
            if self._pk_index is not None:
                keys = list(map(self._key_of, rows))
                try:
                    okeys = self._pk_index.admit(keys)
                except DuplicateKeyError as exc:
                    raise DuplicateKeyError(
                        f"{exc} in {self.schema.name!r}"
                    ) from None
            rids = self.store.insert_many(rows)
        except Exception:
            for guid in created_blobs:
                self._fs_store.delete(guid)
            raise
        self._next_identity = next_identity
        if keys is not None:
            self._pk_index.insert_many(keys, rids, okeys)
        for col_idxs, tree in self._secondary.values():
            tree.insert_many(list(map(tuple_getter(col_idxs), rows)), rids)
        return rids

    def _store_blobs(self, row: List[Any], created: List[uuid.UUID]) -> None:
        """Replace each FILESTREAM value of ``row`` by its GUID bytes,
        storing ``bytes`` payloads as managed files (noted in
        ``created`` so a failing batch can delete them)."""
        for i in self._fs_columns:
            value = row[i]
            if value is None:
                continue
            if isinstance(value, uuid.UUID):
                guid = value
            elif isinstance(value, (bytes, bytearray)):
                guid = self._fs_store.create(bytes(value))
                created.append(guid)
            else:
                raise ConstraintViolation(
                    f"FILESTREAM column {self.schema.columns[i].name!r} "
                    f"takes bytes or a GUID, got {type(value).__name__}"
                )
            row[i] = guid.bytes

    def finish_bulk_load(self, force: bool = True) -> None:
        """Seal the open tail (heap: the tail page, so PAGE compression
        covers every page; column store: the tail segment, so encodings
        and zone maps cover every row).  ``force=False`` marks a
        per-statement boundary: the column store then keeps a small tail
        open as its delta store instead of sealing one-row segments."""
        self.store.seal_all(force=force)

    # -- deletes ---------------------------------------------------------------------

    def delete_where(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> int:
        """Delete all rows matching ``predicate``; returns the count."""
        victims = [
            (rid, row) for rid, row in self.store.scan() if predicate(row)
        ]
        for rid, row in victims:
            self._delete_rid(rid, row)
        return len(victims)

    def update_where(
        self,
        predicate: Callable[[Tuple[Any, ...]], bool],
        updater: Callable[[Tuple[Any, ...]], Sequence[Any]],
    ) -> int:
        """Update all rows matching ``predicate`` by replacing them with
        ``updater(row)``; returns the count.

        Implemented as delete-all-then-reinsert so key changes within
        the updated set cannot self-collide. The new rows go in as one
        batch, which stores nothing when it fails; the original rows are
        then put back (single-statement atomicity). The database binds
        no UPDATE on a table with FILESTREAM columns (the delete would
        drop the blob).
        """
        victims = [
            (rid, row) for rid, row in self.store.scan() if predicate(row)
        ]
        new_rows = [tuple(updater(row)) for _rid, row in victims]
        for rid, row in victims:
            self._delete_rid(rid, row)
        try:
            self.insert_many(new_rows)
        except Exception:
            self.insert_many([row for _rid, row in victims])
            raise
        return len(victims)

    def _delete_rid(self, rid: Rid, row: Tuple[Any, ...]) -> None:
        self.store.delete(rid)
        if self._pk_index is not None:
            self._pk_index.delete(self._key_of(row))
        for col_idxs, tree in self._secondary.values():
            tree.delete(tuple(row[i] for i in col_idxs), rid)
        for i in self._fs_columns:
            if row[i] is not None:
                guid = uuid.UUID(bytes=row[i])
                if self._fs_store.exists(guid):
                    self._fs_store.delete(guid)

    # -- reads -----------------------------------------------------------------------

    def _surface(self, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Convert stored GUID bytes of FILESTREAM columns to UUIDs."""
        if not self._fs_columns:
            return row
        out = list(row)
        for i in self._fs_columns:
            if out[i] is not None:
                out[i] = uuid.UUID(bytes=out[i])
        return tuple(out)

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """All rows in physical (heap) order."""
        if self._fs_columns:
            for _rid, row in self.store.scan():
                yield self._surface(row)
        else:
            for _rid, row in self.store.scan():
                yield row

    def scan_batches(
        self, part: Optional[Part] = None
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """All rows in physical order, one page-aligned batch per page
        (``part``: one contiguous slice of the pages, see
        :func:`~.storage.base.part_of`)."""
        if self._fs_columns:
            for batch in self.store.scan_batches(part):
                yield [self._surface(row) for row in batch]
        else:
            yield from self.store.scan_batches(part)

    def _row_runs(
        self,
        tree: BPlusTree,
        lo: Optional[Tuple[Any, ...]],
        hi: Optional[Tuple[Any, ...]],
        part: Optional[Part] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Rows of an index key range in key order, one list per B+tree
        leaf: the leaf's rids resolved with one page visit per run of
        rids on the same page."""
        runs = map(
            self.store.fetch_many,
            tree.payload_runs(lo, hi, part, lo_inclusive, hi_inclusive),
        )
        if not self._fs_columns:
            return runs
        surface = self._surface
        return ([surface(row) for row in run] for run in runs)

    def seek_batches(
        self,
        lo: Optional[Tuple[Any, ...]] = None,
        hi: Optional[Tuple[Any, ...]] = None,
        part: Optional[Part] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[List[Tuple[Any, ...]]]:
        """Clustered-index range seek (prefix bounds allowed, either end
        exclusive; no bounds is the full clustered-index scan), one list
        of rows per B+tree leaf. The batch executor re-chunks these;
        :meth:`seek` flattens them. ``part = (i, n)`` delivers the
        ``i``-th of ``n`` contiguous shares of the range's leaf runs."""
        if self._pk_index is None:
            raise BindError(f"table {self.schema.name!r} has no primary key")
        if (
            lo is not None
            and lo == hi
            and lo_inclusive
            and hi_inclusive
            and len(lo) == len(self.schema.primary_key)
        ):
            # full-key equality: a point lookup, one descent and no walk
            row = self.get(lo) if part is None or part[0] == 0 else None
            if row is not None:
                yield [row]
            return
        yield from self._row_runs(
            self._pk_index, lo, hi, part, lo_inclusive, hi_inclusive
        )

    def seek(
        self,
        lo: Optional[Tuple[Any, ...]] = None,
        hi: Optional[Tuple[Any, ...]] = None,
    ) -> Iterator[Tuple[Any, ...]]:
        """Clustered-index range seek; prefix bounds allowed."""
        return chain.from_iterable(self.seek_batches(lo, hi))

    def key_count(
        self,
        lo: Optional[Tuple[Any, ...]],
        hi: Optional[Tuple[Any, ...]],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> int:
        """Rows a clustered seek on these bounds delivers (see
        :meth:`seek_batches`), counted in the B+tree at no IO cost."""
        return self._pk_index.count(lo, hi, lo_inclusive, hi_inclusive)

    def get(self, key: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """Point lookup by primary key; None when absent."""
        if self._pk_index is None:
            raise BindError(f"table {self.schema.name!r} has no primary key")
        try:
            rid = self._pk_index.get(key)
        except KeyError:
            return None
        return self._surface(self.store.fetch(rid))

    # -- secondary indexes --------------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str]) -> None:
        """Build a non-unique secondary index over ``columns``."""
        if name.lower() in self._secondary:
            raise BindError(f"index {name!r} already exists")
        col_idxs = tuple(self.schema.column_index(c) for c in columns)
        tree = BPlusTree(unique=False)
        if self._io_ledger is not None:
            self._io_ledger.watch(tree.io, self.schema.name, "index_")
        key_of = tuple_getter(col_idxs)
        entries = list(self.store.scan())
        tree.insert_sorted(
            [key_of(row) for _rid, row in entries],
            [rid for rid, _row in entries],
        )
        self._secondary[name.lower()] = (col_idxs, tree)

    def index_seek(
        self,
        name: str,
        lo: Optional[Tuple[Any, ...]] = None,
        hi: Optional[Tuple[Any, ...]] = None,
    ) -> Iterator[Tuple[Any, ...]]:
        try:
            _col_idxs, tree = self._secondary[name.lower()]
        except KeyError:
            raise BindError(f"unknown index {name!r}") from None
        return chain.from_iterable(self._row_runs(tree, lo, hi))

    def secondary_indexes(self) -> Dict[str, Tuple[int, ...]]:
        """Name → indexed column positions, for the planner."""
        return {
            name: col_idxs
            for name, (col_idxs, _tree) in self._secondary.items()
        }

    # -- statistics ------------------------------------------------------------------

    def analyze(self):
        """Collect fresh optimizer statistics from a full scan (the
        engine behind ``UPDATE STATISTICS <table>``)."""
        from .optimizer.statistics import collect_table_statistics

        self.statistics = collect_table_statistics(self)
        return self.statistics

    # -- accounting ---------------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.store.row_count

    def stored_bytes(self) -> int:
        """In-row storage bytes (pages), excluding FILESTREAM payloads."""
        return self.store.stored_bytes()

    def filestream_bytes(self) -> int:
        """Bytes of FILESTREAM payloads owned by this table's rows."""
        if not self._fs_columns:
            return 0
        total = 0
        for _rid, row in self.store.scan():
            for i in self._fs_columns:
                if row[i] is not None:
                    total += self._fs_store.data_length(uuid.UUID(bytes=row[i]))
        return total

    def uncompressed_bytes(self) -> int:
        return self.store.uncompressed_bytes()

    def io_report(self) -> Counters:
        """Combined IO counters for this table: the access method's
        counters in its own namespace (heap: ``pages_read``...; column
        store: ``segments_read``...; see ``storage.base`` for the
        no-collision contract that keeps mixed-engine databases summable
        in ``sys_dm_io_stats``), plus B+tree counters (clustered +
        secondary, summed) under an ``index_`` prefix. Used by SET
        STATISTICS IO and the DMVs."""
        out = self.store.io_report()
        if self._pk_index is not None:
            out.merge(self._pk_index.io, prefix="index_")
        for _name, (_cols, tree) in self._secondary.items():
            out.merge(tree.io, prefix="index_")
        return out

    def watch_io(self, ledger) -> None:
        """Report this table's IO to ``ledger`` under the table's name,
        source by source as :meth:`io_report` sums them (called once, by
        the catalog, before any secondary index exists)."""
        self._io_ledger = ledger
        ledger.watch(self.store.io, self.schema.name)
        if self._pk_index is not None:
            ledger.watch(self._pk_index.io, self.schema.name, "index_")

    def absorb_io(self, delta: Dict[str, int]) -> None:
        """Fold in IO that was counted elsewhere — by an exchange worker
        reading its fork of this table: ``delta`` is a difference of two
        :meth:`io_report` snapshots taken there. ``index_`` counters go
        to the clustered index (the only tree a worker walks)."""
        for name, amount in delta.items():
            if name.startswith("index_"):
                self._pk_index.io.incr(name[len("index_"):], amount)
            else:
                self.store.io.incr(name, amount)
