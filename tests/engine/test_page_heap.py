"""Slotted pages and heap files."""

import pytest

from repro.engine.errors import StorageError
from repro.engine.schema import (
    COMPRESSION_NONE,
    COMPRESSION_PAGE,
    COMPRESSION_ROW,
    Column,
    TableSchema,
)
from repro.engine.storage.heap import HeapFile
from repro.engine.storage.page import PAGE_HEADER_SIZE, PAGE_SIZE, Page
from repro.engine.storage.serializer import RowSerializer
from repro.engine.types import int_type, varchar_type


def make_schema():
    return TableSchema(
        "t",
        [
            Column("id", int_type(), nullable=False),
            Column("name", varchar_type(200)),
        ],
        primary_key=["id"],
    )


class TestPage:
    def test_append_and_get(self):
        page = Page(0)
        serializer = RowSerializer(make_schema())
        record = serializer.serialize((1, "hello"))
        slot = page.append_many([record], None)
        assert page.get(slot, serializer) == record

    def test_fits_respects_page_size(self):
        page = Page(0)
        big = b"x" * (PAGE_SIZE - PAGE_HEADER_SIZE - 2)
        assert page.append_many([big], None) == 0
        assert page.used_bytes == PAGE_SIZE
        with pytest.raises(StorageError):
            page.append_many([b"y"], None)

    def test_an_empty_page_takes_one_oversize_record(self):
        page = Page(0)
        assert page.append_many([b"x" * PAGE_SIZE], None) == 0
        assert page.used_bytes == PAGE_HEADER_SIZE + PAGE_SIZE + 2
        with pytest.raises(StorageError):
            Page(1).append_many([b"x" * PAGE_SIZE, b"y"], None)

    def test_full_page_rejects_append(self):
        page = Page(0)
        page.append_many([b"x" * 4000], None)
        page.append_many([b"y" * 4000], None)
        with pytest.raises(StorageError):
            page.append_many([b"z" * 100], None)

    def test_sealed_page_rejects_append(self):
        page = Page(0)
        page.append_many([b"abc"], None)
        page.seal()
        with pytest.raises(StorageError):
            page.append_many([b"more"], None)

    def test_delete_tombstones(self):
        page = Page(0)
        serializer = RowSerializer(make_schema())
        record = serializer.serialize((1, "a"))
        slot = page.append_many([record], None)
        page.append_many([serializer.serialize((2, "b"))], None)
        page.delete(slot)
        assert [not dead for dead in page.tombstones] == [False, True]
        with pytest.raises(StorageError):
            page.get(slot, serializer)
        with pytest.raises(StorageError):
            page.delete(slot)

    def test_page_compression_on_seal(self):
        schema = make_schema()
        serializer = RowSerializer(schema, row_compression=True)
        page = Page(0)
        for i in range(60):
            page.append_many(
                [serializer.serialize((i, "repeated-name-value"))], None
            )
        before = page.used_bytes
        page.seal(serializer, page_compress=True)
        assert page.used_bytes < before
        # records still readable after compression
        rows = [
            serializer.deserialize(record)
            for _slot, record in page.iter_records(serializer)
        ]
        assert rows[0] == (0, "repeated-name-value")
        assert len(rows) == 60

    def test_page_compression_skipped_when_no_gain(self):
        import random

        rng = random.Random(3)
        schema = make_schema()
        serializer = RowSerializer(schema, row_compression=True)
        page = Page(0)
        for i in range(10):
            page.append_many(
                [
                    serializer.serialize(
                        (i, "".join(rng.choices("abcdefghijklmnop", k=30)))
                    )
                ],
                None,
            )
        before = page.used_bytes
        page.seal(serializer, page_compress=True)
        # compression must never make the page bigger
        assert page.used_bytes <= before


class TestHeapFile:
    def test_insert_fetch_round_trip(self):
        heap = HeapFile(make_schema())
        rid = heap.insert((1, "alpha"))
        assert heap.fetch(rid) == (1, "alpha")

    def test_scan_in_insert_order(self):
        heap = HeapFile(make_schema())
        for i in range(100):
            heap.insert((i, f"row{i}"))
        rows = [row for _rid, row in heap.scan()]
        assert rows == [(i, f"row{i}") for i in range(100)]

    def test_spills_to_multiple_pages(self):
        heap = HeapFile(make_schema())
        for i in range(200):
            heap.insert((i, "x" * 150))
        assert len(heap.pages) > 1
        assert heap.row_count == 200

    def test_delete_removes_from_scan(self):
        heap = HeapFile(make_schema())
        rids = [heap.insert((i, f"r{i}")) for i in range(10)]
        deleted = heap.delete(rids[3])
        assert deleted == (3, "r3")
        remaining = [row[0] for _rid, row in heap.scan()]
        assert 3 not in remaining
        assert heap.row_count == 9

    def test_fetch_bad_rid(self):
        heap = HeapFile(make_schema())
        with pytest.raises(StorageError):
            heap.fetch((99, 0))

    def test_fetch_many_matches_fetch_and_visits_pages_once_per_run(self):
        heap = HeapFile(make_schema())
        rids = [heap.insert((i, "x" * 150)) for i in range(200)]
        pages = len(heap.pages)
        assert pages > 2
        assert heap.fetch_many(rids) == [heap.fetch(rid) for rid in rids]
        assert heap.fetch_many([]) == []
        before = heap.io["pages_read"]
        heap.fetch_many(rids)
        assert heap.io["pages_read"] - before == pages
        # out of page order: a visit per run of rids on one page
        zigzag = [rids[0], rids[-1], rids[1], rids[-2]]
        before = heap.io["pages_read"]
        assert heap.fetch_many(zigzag) == [heap.fetch(r) for r in zigzag]
        assert heap.io["pages_read"] - before == 4 + 4  # fetch_many + fetch

    @pytest.mark.parametrize(
        "bad_rid, message",
        [
            ((99, 0), "bad page number 99"),
            ((-1, 0), "bad page number -1"),
            ((0, 10_000), "bad slot 10000 on page 0"),
            ((0, -1), "bad slot -1 on page 0"),
            ((0, 3), "slot 3 on page 0 is deleted"),
        ],
    )
    def test_fetch_many_raises_what_fetch_raises(self, bad_rid, message):
        heap = HeapFile(make_schema())
        rids = [heap.insert((i, f"r{i}")) for i in range(10)]
        heap.delete(rids[3])
        with pytest.raises(StorageError) as single:
            heap.fetch(bad_rid)
        with pytest.raises(StorageError) as many:
            heap.fetch_many([rids[0], rids[1], bad_rid, rids[2]])
        assert str(many.value) == str(single.value) == message

    @pytest.mark.parametrize(
        "compression", [COMPRESSION_NONE, COMPRESSION_ROW, COMPRESSION_PAGE]
    )
    def test_round_trip_under_all_compressions(self, compression):
        heap = HeapFile(make_schema(), compression=compression)
        rows = [(i, f"value-{i % 5}") for i in range(300)]
        for row in rows:
            heap.insert(row)
        heap.seal_all()
        assert [row for _r, row in heap.scan()] == rows

    def test_row_compression_reduces_bytes(self):
        plain = HeapFile(make_schema(), compression=COMPRESSION_NONE)
        compressed = HeapFile(make_schema(), compression=COMPRESSION_ROW)
        for i in range(200):
            plain.insert((i, "abc"))
            compressed.insert((i, "abc"))
        plain.seal_all()
        compressed.seal_all()
        assert compressed.stored_bytes() < plain.stored_bytes()

    def test_page_compression_beats_row_on_repetitive_data(self):
        row_heap = HeapFile(make_schema(), compression=COMPRESSION_ROW)
        page_heap = HeapFile(make_schema(), compression=COMPRESSION_PAGE)
        for i in range(500):
            value = "GATTACAGATTACAGATTACA"
            row_heap.insert((i, value))
            page_heap.insert((i, value))
        row_heap.seal_all()
        page_heap.seal_all()
        assert page_heap.stored_bytes() < row_heap.stored_bytes()

    def test_uncompressed_bytes_tracks_logical_size(self):
        heap = HeapFile(make_schema(), compression=COMPRESSION_ROW)
        for i in range(50):
            heap.insert((i, "hello"))
        assert heap.uncompressed_bytes() > heap.stats.data_bytes


class TestRowCache:
    """The decoded-row cache (buffer pool) must stay coherent."""

    def test_second_scan_uses_cache(self):
        heap = HeapFile(make_schema())
        for i in range(50):
            heap.insert((i, f"r{i}"))
        first = [row for _r, row in heap.scan()]
        # the cache object is now populated on each page
        assert all(page.decoded is not None for page in heap.pages)
        second = [row for _r, row in heap.scan()]
        assert first == second

    def test_insert_invalidates_tail_page_cache(self):
        heap = HeapFile(make_schema())
        heap.insert((1, "a"))
        list(heap.scan())
        heap.insert((2, "b"))
        rows = [row for _r, row in heap.scan()]
        assert rows == [(1, "a"), (2, "b")]

    def test_delete_removes_from_cached_scan(self):
        heap = HeapFile(make_schema())
        rid = heap.insert((1, "a"))
        heap.insert((2, "b"))
        list(heap.scan())  # warm
        heap.delete(rid)
        assert [row for _r, row in heap.scan()] == [(2, "b")]

    def test_fetch_after_cache_warm(self):
        heap = HeapFile(make_schema())
        rid = heap.insert((7, "seven"))
        list(heap.scan())
        assert heap.fetch(rid) == (7, "seven")

    def test_fetch_deleted_slot_raises(self):
        heap = HeapFile(make_schema())
        rid = heap.insert((1, "x"))
        heap.delete(rid)
        with pytest.raises(StorageError):
            heap.fetch(rid)

    def test_cache_on_page_compressed_pages(self):
        heap = HeapFile(make_schema(), compression=COMPRESSION_PAGE)
        rows = [(i, "repetitive-value") for i in range(300)]
        for row in rows:
            heap.insert(row)
        heap.seal_all()
        assert [row for _r, row in heap.scan()] == rows
        # warm pass identical
        assert [row for _r, row in heap.scan()] == rows
