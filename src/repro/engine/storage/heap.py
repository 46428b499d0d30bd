"""Heap files: an append-oriented collection of slotted pages.

A heap file stores the records of one table. Records are addressed by a
*record id* ``rid = (page_no, slot_no)``. Inserts go to the tail page, a
batch's records cut into one run per page; when a record does not fit
the tail page is sealed (triggering PAGE compression when the table is
configured for it) and a fresh page opened.

The heap file also keeps the byte accounting the storage experiments
(Tables 1 and 2 of the paper) report: stored bytes vs. the bytes the same
rows would occupy uncompressed.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import StorageError
from ..metrics import Counters
from ..schema import (
    COMPRESSION_NONE,
    COMPRESSION_PAGE,
    COMPRESSION_ROW,
    TableSchema,
    TableStatistics,
)
from .base import (
    AccessMethod,
    Part,
    Rid,
    STORAGE_HEAP,
    part_of,
    register_access_method,
)
from .page import PAGE_HEADER_SIZE, PAGE_SIZE, SLOT_ENTRY_SIZE, Page
from .serializer import RowSerializer

#: a record's bytes on its page: its length plus its slot entry
_SLOT_PLUS = SLOT_ENTRY_SIZE.__add__


class HeapFile(AccessMethod):
    """Page-based record store for one table."""

    engine_name = STORAGE_HEAP

    def __init__(
        self,
        schema: TableSchema,
        compression: str = COMPRESSION_NONE,
        udt_codec_lookup=None,
    ):
        self.schema = schema
        self.compression = compression
        row_compressed = compression in (COMPRESSION_ROW, COMPRESSION_PAGE)
        self.serializer = RowSerializer(
            schema,
            row_compression=row_compressed,
            udt_codec_lookup=udt_codec_lookup,
        )
        #: the validated tuple is the decoded row (row-cache
        #: write-through) unless a UDT codec owns a column's round trip
        self._write_through = not any(
            column.sql_type.kind == "UDT" for column in schema.columns
        )
        self.pages: list[Page] = []
        self.stats = TableStatistics()
        #: always-on IO counters (SET STATISTICS IO / sys_dm_io_stats)
        self.io = Counters()

    # -- write path --------------------------------------------------------------

    def _open_page(self) -> Page:
        """Seal the open tail page, if there is one, and start the next."""
        if self.pages and not self.pages[-1].sealed:
            self._seal(self.pages[-1])
        page = Page(len(self.pages))
        self.pages.append(page)
        self.stats.page_count += 1
        self.io.incr("pages_written")
        return page

    def _seal(self, page: Page) -> None:
        before = page.used_bytes
        page.seal(
            self.serializer,
            page_compress=self.compression == COMPRESSION_PAGE,
        )
        self.stats.data_bytes += page.used_bytes - before
        if page.compressor is not None:
            self.io.incr("compression_bytes_in", page.compressor.bytes_in)
            self.io.incr("compression_bytes_out", page.compressor.bytes_out)

    def insert_many(self, rows: Sequence[Tuple[Any, ...]]) -> List[Rid]:
        """Serialise and store a batch of validated rows; returns their
        rids. The whole batch is encoded before the first page append;
        then each page takes its run of records in one
        :meth:`Page.append_many` (:meth:`_fill_pages`)."""
        serializer = self.serializer
        records = serializer.serialize_many(rows)
        stored = sum(map(len, records))
        uncompressed = (
            serializer.uncompressed_size(rows)
            if serializer.row_compression
            else stored
        )
        # None: no cached row rides along and the page reads cold
        cached = rows if self._write_through else None
        page = self.pages[-1] if self.pages else None
        if (
            page is not None
            and not page.sealed
            and page.used_bytes + stored + SLOT_ENTRY_SIZE * len(records)
            <= PAGE_SIZE
        ):
            # the batch fits the open page: no cut to work out, and a
            # one-row insert builds no iterators for its rid
            first = page.append_many(records, cached)
            if len(records) == 1:
                rids = [(page.page_id, first)]
            else:
                slots = range(first, first + len(records))
                rids = list(zip(repeat(page.page_id), slots))
        else:
            rids = self._fill_pages(records, cached)
        self._bump_data_version()
        self.stats.on_insert(stored, uncompressed, len(records))
        io = self.io
        io.incr("rows_inserted", len(records))
        io.incr("bytes_written", stored)
        io.incr("bytes_uncompressed", uncompressed)
        return rids

    def _fill_pages(
        self, records: List[bytes], cached: Optional[Sequence[tuple]]
    ) -> List[Rid]:
        """Append ``records`` from the open tail page on, cut into page
        runs by their cumulative sizes (slot entries included) with one
        ``bisect`` per page. A page that cannot take the next record is
        sealed and the next opened; an empty page takes one record of
        any size."""
        ends = list(accumulate(map(_SLOT_PLUS, map(len, records))))
        page = self.pages[-1] if self.pages else None
        if page is not None and page.sealed:
            page = None
        rids: List[Rid] = []
        start, done = 0, 0  # done: the bytes of records[:start]
        while start < len(records):
            if page is None or (
                page.records
                and ends[start] - done > PAGE_SIZE - page.used_bytes
            ):
                page = self._open_page()
            stop = max(
                bisect_right(ends, done + PAGE_SIZE - page.used_bytes, start),
                start + 1,
            )
            first = page.append_many(
                records[start:stop],
                None if cached is None else cached[start:stop],
            )
            rids += zip(repeat(page.page_id), range(first, first + stop - start))
            start, done = stop, ends[stop - 1]
        return rids

    def seal_all(self, force: bool = True) -> None:
        """Seal the tail page (e.g. at the end of a bulk load) so PAGE
        compression covers every page.  Heap pages are cheap to seal, so
        ``force`` is irrelevant here — every statement boundary seals."""
        if self.pages and not self.pages[-1].sealed:
            self._seal(self.pages[-1])

    def delete(self, rid: Rid) -> Tuple[Any, ...]:
        """Tombstone the record at ``rid``; returns the deleted row."""
        row = self.fetch(rid)
        page_no, slot = rid
        freed = self.pages[page_no].delete(slot)
        self._bump_data_version()
        record_len = freed - 2  # minus the slot entry
        uncompressed = (
            record_len
            if not self.serializer.row_compression
            else self.serializer.uncompressed_size((row,))
        )
        self.stats.on_delete(record_len, uncompressed)
        return row

    # -- read path ----------------------------------------------------------------

    def fetch(self, rid: Rid) -> Tuple[Any, ...]:
        page_no, slot = rid
        if page_no < 0 or page_no >= len(self.pages):
            raise StorageError(f"bad page number {page_no}")
        page = self.pages[page_no]
        # pages_read - page_cache_misses = warm buffer-pool hits
        self.io.incr("pages_read")
        if page.decoded is None:
            self.io.incr("page_cache_misses")
        cache = page.row_cache(self.serializer)
        if slot < 0 or slot >= len(cache):
            raise StorageError(f"bad slot {slot} on page {page_no}")
        row = cache[slot]
        if row is None:
            raise StorageError(f"slot {slot} on page {page_no} is deleted")
        return row

    def fetch_many(self, rids: Sequence[Rid]) -> List[Tuple[Any, ...]]:
        """The rows at ``rids``, in that order, with one page visit per
        run of consecutive rids on the same page (:meth:`fetch` visits
        the page once per rid). Raises what ``fetch`` raises."""
        pages = self.pages
        serializer = self.serializer
        io = self.io
        rows: List[Tuple[Any, ...]] = []
        append = rows.append
        current = None
        for page_no, slot in rids:
            if page_no != current:
                if page_no < 0 or page_no >= len(pages):
                    raise StorageError(f"bad page number {page_no}")
                page = pages[page_no]
                io.incr("pages_read")
                if page.decoded is None:
                    io.incr("page_cache_misses")
                cache = page.row_cache(serializer)
                slots = len(cache)
                current = page_no
            if slot < 0 or slot >= slots:
                raise StorageError(f"bad slot {slot} on page {page_no}")
            row = cache[slot]
            if row is None:
                raise StorageError(f"slot {slot} on page {page_no} is deleted")
            append(row)
        return rows

    def scan(self) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        """Yield ``(rid, row)`` for every live record, in physical order.

        Scans go through the per-page row cache, so a second scan of an
        unchanged table pays no decoding cost (warm buffer pool)."""
        serializer = self.serializer
        io = self.io
        io.incr("scans")
        for page in self.pages:
            page_id = page.page_id
            io.incr("pages_read")
            if page.decoded is None:
                io.incr("page_cache_misses")
            cache = page.row_cache(serializer)
            for slot, row in enumerate(cache):
                if row is not None:
                    yield (page_id, slot), row

    def scan_batches(self, part: Optional[Part] = None) -> Iterator[list]:
        """Yield one list of live rows per page, in physical order;
        ``part`` reads one contiguous page range (:func:`part_of`).

        The executor's table scan: each page's row cache is filtered for
        tombstones in a single comprehension and handed to the executor
        as a page-aligned batch, so the per-row iterator handshake of
        :meth:`scan` disappears.  IO accounting matches ``scan`` exactly
        (one ``pages_read`` per page, cold pages count a cache miss) plus
        a ``batch_reads`` counter per emitted batch; the parts of one
        scan count one ``scans`` between them."""
        serializer = self.serializer
        io = self.io
        if part is None or part[0] == 0:
            io.incr("scans")
        for page in part_of(self.pages, part):
            io.incr("pages_read")
            if page.decoded is None:
                io.incr("page_cache_misses")
            cache = page.row_cache(serializer)
            batch = [row for row in cache if row is not None]
            if batch:
                io.incr("batch_reads")
                yield batch

    # -- accounting -----------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self.stats.row_count

    def stored_bytes(self, include_page_overhead: bool = True) -> int:
        """Bytes used by this heap, as the storage report counts them."""
        total = sum(page.used_bytes for page in self.pages)
        if not include_page_overhead:
            total -= PAGE_HEADER_SIZE * len(self.pages)
        return total

    def uncompressed_bytes(self) -> int:
        return self.stats.uncompressed_bytes + PAGE_HEADER_SIZE * len(self.pages)


def _make_heap(schema: TableSchema, udt_codec_lookup=None) -> HeapFile:
    return HeapFile(
        schema,
        compression=schema.compression,
        udt_codec_lookup=udt_codec_lookup,
    )


register_access_method(STORAGE_HEAP, _make_heap)
