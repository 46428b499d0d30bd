"""FileStream BLOB store."""

import uuid

import pytest

from repro.engine.errors import FileStreamError
from repro.engine.filestream import FileStreamStore


@pytest.fixture
def store(tmp_path):
    return FileStreamStore(tmp_path / "fs")


class TestLifecycle:
    def test_create_and_read(self, store):
        guid = store.create(b"hello world")
        assert store.read_all(guid) == b"hello world"
        assert store.data_length(guid) == 11

    def test_explicit_guid(self, store):
        guid = uuid.uuid4()
        assert store.create(b"x", guid) == guid

    def test_duplicate_guid_rejected(self, store):
        guid = store.create(b"x")
        with pytest.raises(FileStreamError):
            store.create(b"y", guid)

    def test_delete(self, store):
        guid = store.create(b"x")
        store.delete(guid)
        assert not store.exists(guid)
        with pytest.raises(FileStreamError):
            store.read_all(guid)

    def test_create_from_file(self, store, tmp_path):
        source = tmp_path / "input.fastq"
        source.write_bytes(b"@r1\nACGT\n+\nIIII\n")
        guid = store.create_from_file(source)
        assert store.read_all(guid) == source.read_bytes()

    def test_pathname_points_to_real_file(self, store):
        guid = store.create(b"payload")
        from pathlib import Path

        assert Path(store.path_name(guid)).read_bytes() == b"payload"

    def test_recovery_reattaches_blobs(self, tmp_path):
        first = FileStreamStore(tmp_path / "fs")
        guid = first.create(b"persistent")
        second = FileStreamStore(tmp_path / "fs")
        assert second.exists(guid)
        assert second.read_all(guid) == b"persistent"



class TestGetBytes:
    def test_reads_at_offset(self, store):
        guid = store.create(bytes(range(256)))
        buffer = bytearray(10)
        read = store.get_bytes(guid, 100, buffer, 0, 10)
        assert read == 10
        assert bytes(buffer) == bytes(range(100, 110))

    def test_buffer_offset_respected(self, store):
        guid = store.create(b"ABCDEFGH")
        buffer = bytearray(b"........")
        read = store.get_bytes(guid, 0, buffer, 3, 4)
        assert read == 4
        assert bytes(buffer) == b"...ABCD."

    def test_past_end_returns_zero(self, store):
        guid = store.create(b"short")
        buffer = bytearray(10)
        assert store.get_bytes(guid, 100, buffer, 0, 10) == 0

    def test_truncated_read_at_end(self, store):
        guid = store.create(b"0123456789")
        buffer = bytearray(10)
        read = store.get_bytes(guid, 7, buffer, 0, 10)
        assert read == 3
        assert bytes(buffer[:3]) == b"789"

    def test_sequential_matches_random(self, store):
        payload = bytes(i % 251 for i in range(100_000))
        guid = store.create(payload)
        sequential = bytearray(1000)
        random_access = bytearray(1000)
        for offset in (0, 999, 50_000, 99_000):
            store.get_bytes(guid, offset, sequential, 0, 1000, sequential=True)
            store.get_bytes(guid, offset, random_access, 0, 1000, sequential=False)
            assert sequential == random_access

    def test_sequential_scan_covers_whole_blob(self, store):
        payload = bytes(i % 7 for i in range(70_000))
        guid = store.create(payload)
        out = bytearray()
        buffer = bytearray(8192)
        offset = 0
        while True:
            read = store.get_bytes(
                guid, offset, buffer, 0, 8192, sequential=True, prefetch=16384
            )
            if read == 0:
                break
            out += buffer[:read]
            offset += read
        assert bytes(out) == payload

    def test_negative_offset_rejected(self, store):
        guid = store.create(b"x")
        with pytest.raises(FileStreamError):
            store.get_bytes(guid, -1, bytearray(1), 0, 1)


class TestConsistency:
    def test_clean_store_passes(self, store):
        store.create(b"a")
        store.create(b"b")
        assert store.consistency_check() == []

    def test_detects_missing_file(self, store):
        guid = store.create(b"a")
        from pathlib import Path

        Path(store.path_name(guid)).unlink()
        problems = store.consistency_check()
        assert any("missing" in p for p in problems)

    def test_detects_length_mismatch(self, store):
        guid = store.create(b"abc")
        from pathlib import Path

        Path(store.path_name(guid)).write_bytes(b"abcdef")
        problems = store.consistency_check()
        assert any("length mismatch" in p for p in problems)

    def test_detects_orphan(self, store):
        (store.directory / f"{uuid.uuid4()}.blob").write_bytes(b"orphan")
        problems = store.consistency_check()
        assert any("orphan" in p for p in problems)
