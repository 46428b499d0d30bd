"""Slotted data pages.

Pages are the unit of storage and of PAGE compression. A page holds a
bounded number of record payloads plus a slot directory; the byte
accounting mirrors the SQL Server 8 KiB page layout (96-byte header,
2-byte slot entry per record) so that the storage-efficiency experiments
measure realistic sizes. Records live in a Python list for fast access —
the *sizes* are what the layout dictates, the *bytes* are the real encoded
records.

A page is *open* while the heap file appends to it and *sealed* once full.
PAGE compression is applied at seal time (SQL Server likewise compresses a
page when it fills), via :class:`PageCompressor`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import StorageError
from .compression import PageCompressor
from .serializer import RowSerializer

PAGE_SIZE = 8192
PAGE_HEADER_SIZE = 96
SLOT_ENTRY_SIZE = 2


class Page:
    """One slotted page of records."""

    __slots__ = (
        "page_id",
        "records",
        "tombstones",
        "used_bytes",
        "sealed",
        "compressor",
        "decoded",
        "decodes",
        "_ncols",
    )

    def __init__(self, page_id: int):
        self.page_id = page_id
        self.records: List[bytes] = []
        self.tombstones: List[bool] = []
        self.used_bytes = PAGE_HEADER_SIZE
        self.sealed = False
        self.compressor: Optional[PageCompressor] = None
        #: lifetime count of record decodes this page has paid (cold
        #: reads); stays flat while the row cache is warm
        self.decodes = 0
        #: buffer-pool row cache: decoded tuples per slot (a None entry
        #: is a deleted slot; None for the list is a cold page, built on
        #: first read). An empty page is trivially warm, and an append
        #: that brings its row keeps it so (write-through): a page the
        #: engine has just written is not decoded again to be read.
        self.decoded: Optional[List] = []
        self._ncols = 0

    # -- write path --------------------------------------------------------------

    def fits(self, record: bytes) -> bool:
        return self.used_bytes + len(record) + SLOT_ENTRY_SIZE <= PAGE_SIZE

    def append(self, record: bytes, row: Optional[tuple] = None) -> int:
        """Append a record; returns its slot number. ``row`` is the
        tuple the record decodes to, when the writer has it; without it
        the row cache is dropped and the page reads cold."""
        if self.sealed:
            raise StorageError(f"page {self.page_id} is sealed")
        used = self.used_bytes + len(record) + SLOT_ENTRY_SIZE
        if used > PAGE_SIZE and self.records:
            raise StorageError(f"page {self.page_id} is full")
        self.records.append(record)
        self.tombstones.append(False)
        self.used_bytes = used
        if row is None:
            self.decoded = None
        elif self.decoded is not None:
            self.decoded.append(row)
        return len(self.records) - 1

    def seal(self, serializer: Optional[RowSerializer] = None,
             page_compress: bool = False) -> None:
        """Freeze the page; optionally re-encode it with PAGE compression.

        ``serializer`` must be the table's ROW-compressed serialiser when
        ``page_compress`` is requested (PAGE compression layers on top of
        the ROW format).
        """
        if self.sealed:
            return
        self.sealed = True
        if not page_compress or not self.records:
            return
        if serializer is None or not serializer.row_compression:
            raise StorageError("PAGE compression requires a ROW serializer")
        split = [serializer.split_compressed(r) for r in self.records]
        self._ncols = len(serializer.schema.columns)
        compressor = PageCompressor(split)
        encoded = compressor.encode_records()
        new_size = (
            PAGE_HEADER_SIZE
            + compressor.overhead_bytes()
            + sum(len(r) + SLOT_ENTRY_SIZE for r in encoded)
        )
        # Keep the compressed form only when it actually wins, as SQL
        # Server does (a page that does not benefit stays row-compressed).
        if new_size < self.used_bytes:
            self.records = encoded
            self.compressor = compressor
            self.used_bytes = new_size

    # -- read path ----------------------------------------------------------------

    def get(self, slot: int, serializer: RowSerializer) -> bytes:
        """Return the ROW-format record bytes stored in ``slot``."""
        if slot < 0 or slot >= len(self.records):
            raise StorageError(f"bad slot {slot} on page {self.page_id}")
        if self.tombstones[slot]:
            raise StorageError(f"slot {slot} on page {self.page_id} is deleted")
        record = self.records[slot]
        if self.compressor is None:
            return record
        nulls, fields = self.compressor.decode_record(record, self._ncols)
        return serializer.join_compressed(nulls, fields)

    def iter_records(self, serializer: RowSerializer):
        """Yield ``(slot, record_bytes)`` for every live record."""
        if self.compressor is None:
            for slot, record in enumerate(self.records):
                if not self.tombstones[slot]:
                    yield slot, record
        else:
            for slot, record in enumerate(self.records):
                if self.tombstones[slot]:
                    continue
                nulls, fields = self.compressor.decode_record(record, self._ncols)
                yield slot, serializer.join_compressed(nulls, fields)

    def delete(self, slot: int) -> int:
        """Tombstone a slot; returns the bytes logically freed."""
        if slot < 0 or slot >= len(self.records):
            raise StorageError(f"bad slot {slot} on page {self.page_id}")
        if self.tombstones[slot]:
            raise StorageError(f"slot {slot} already deleted")
        self.tombstones[slot] = True
        if self.decoded is not None:
            self.decoded[slot] = None
        return len(self.records[slot]) + SLOT_ENTRY_SIZE

    def row_cache(self, serializer: RowSerializer) -> List:
        """Per-slot decoded rows (None for deleted slots), built on first
        use. This is the engine's buffer-pool analogue: repeated scans of
        a warm page skip record decoding entirely."""
        if self.decoded is None:
            cache: List = [None] * len(self.records)
            deserialize = serializer.deserialize
            for slot, record in self.iter_records(serializer):
                cache[slot] = deserialize(record)
                self.decodes += 1
            self.decoded = cache
        return self.decoded
