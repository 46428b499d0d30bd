"""FileStream BLOB storage.

SQL Server 2008's FILESTREAM stores ``VARBINARY(MAX)`` column values as
files in an NTFS directory that the database owns: the relational row
holds a GUID, the payload lives in the file system, clients may stream it
through Win32 APIs, and the DBMS keeps transactional and administrative
control (backup, consistency checks). This module reproduces that design:

- each FileStream *filegroup* is a directory owned by the database;
- a stored BLOB is a GUID-named file inside it;
- :meth:`FileStreamStore.get_bytes` is the streaming read API the paper's
  TVF wrapper uses — an offset/length read with an optional
  *SequentialAccess* read-ahead window (mirroring
  ``SqlBytes.Read``/``CommandBehavior.SequentialAccess``);
- external tools can be handed the real path (``PathName()``) and read
  it through ordinary file APIs — the hybrid design's key property.
"""

from __future__ import annotations

import os
import shutil
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Optional

from .errors import FileStreamError
from .metrics import Counters

#: default read-ahead window for SequentialAccess streaming (bytes)
DEFAULT_PREFETCH = 1 << 20


@dataclass
class BlobInfo:
    guid: uuid.UUID
    path: Path
    length: int


class FileStreamStore:
    """One FILESTREAM filegroup: a directory of GUID-named BLOB files."""

    def __init__(self, directory: os.PathLike | str, name: str = "FILESTREAMGROUP"):
        self.name = name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._blobs: Dict[uuid.UUID, BlobInfo] = {}
        self._prefetch_cache: Dict[uuid.UUID, tuple] = {}
        #: always-on IO counters: chunk reads, prefetch hits, bytes moved
        self.io = Counters()
        self._recover_existing()

    def _recover_existing(self) -> None:
        """Re-attach BLOB files already present in the directory."""
        for entry in self.directory.iterdir():
            if not entry.is_file():
                continue
            try:
                guid = uuid.UUID(entry.stem)
            except ValueError:
                continue
            self._blobs[guid] = BlobInfo(guid, entry, entry.stat().st_size)

    # -- write path -----------------------------------------------------------------

    def _path_for(self, guid: uuid.UUID) -> Path:
        return self.directory / f"{guid}.blob"

    def create(self, data: bytes, guid: Optional[uuid.UUID] = None) -> uuid.UUID:
        """Store a new BLOB; returns its GUID."""
        guid = guid or uuid.uuid4()
        if guid in self._blobs:
            raise FileStreamError(f"BLOB {guid} already exists")
        path = self._path_for(guid)
        with open(path, "wb") as handle:
            handle.write(data)
        self._blobs[guid] = BlobInfo(guid, path, len(data))
        self.io.incr("blobs_created")
        self.io.incr("bytes_written", len(data))
        return guid

    def create_from_file(
        self, source: os.PathLike | str, guid: Optional[uuid.UUID] = None
    ) -> uuid.UUID:
        """Bulk-import an existing file (the paper's ``OPENROWSET BULK ...
        SINGLE_BLOB`` path) without loading it into memory."""
        guid = guid or uuid.uuid4()
        if guid in self._blobs:
            raise FileStreamError(f"BLOB {guid} already exists")
        path = self._path_for(guid)
        shutil.copyfile(source, path)
        self._blobs[guid] = BlobInfo(guid, path, path.stat().st_size)
        self.io.incr("blobs_created")
        self.io.incr("bytes_written", self._blobs[guid].length)
        return guid

    def delete(self, guid: uuid.UUID) -> None:
        info = self._require(guid)
        info.path.unlink(missing_ok=True)
        del self._blobs[guid]
        self._prefetch_cache.pop(guid, None)

    # -- read path ------------------------------------------------------------------

    def _require(self, guid: uuid.UUID) -> BlobInfo:
        try:
            return self._blobs[guid]
        except KeyError:
            raise FileStreamError(f"unknown BLOB {guid}") from None

    def path_name(self, guid: uuid.UUID) -> str:
        """The ``reads.PathName()`` of the paper: the managed file path."""
        return str(self._require(guid).path)

    def data_length(self, guid: uuid.UUID) -> int:
        """``DATALENGTH(reads)``."""
        return self._require(guid).length

    def exists(self, guid: uuid.UUID) -> bool:
        return guid in self._blobs

    def read_all(self, guid: uuid.UUID) -> bytes:
        info = self._require(guid)
        return info.path.read_bytes()

    def get_bytes(
        self,
        guid: uuid.UUID,
        offset: int,
        buffer: bytearray,
        buffer_offset: int,
        length: int,
        sequential: bool = True,
        prefetch: int = DEFAULT_PREFETCH,
    ) -> int:
        """Read up to ``length`` bytes at ``offset`` into ``buffer``.

        This is the ``GetBytes`` call of the paper's wrapper pseudo-code.
        With ``sequential=True`` a read-ahead window of ``prefetch`` bytes
        is maintained so consecutive chunked reads hit memory, which is
        what makes the chunked TVF competitive with raw file scans.
        Returns the number of bytes actually read (0 at end-of-blob).
        """
        info = self._require(guid)
        if offset < 0 or length < 0:
            raise FileStreamError("negative offset/length")
        if offset >= info.length:
            return 0
        self.io.incr("chunk_reads")
        if sequential:
            data = self._sequential_read(info, offset, length, prefetch)
        else:
            with open(info.path, "rb") as handle:
                handle.seek(offset)
                data = handle.read(length)
            self.io.incr("file_reads")
        self.io.incr("bytes_read", len(data))
        buffer[buffer_offset : buffer_offset + len(data)] = data
        return len(data)

    def _sequential_read(
        self, info: BlobInfo, offset: int, length: int, prefetch: int
    ) -> bytes:
        window = self._prefetch_cache.get(info.guid)
        if window is not None:
            win_start, win_data = window
            if win_start <= offset and offset + length <= win_start + len(win_data):
                rel = offset - win_start
                self.io.incr("prefetch_hits")
                return win_data[rel : rel + length]
        self.io.incr("prefetch_misses")
        self.io.incr("file_reads")
        read_len = max(length, prefetch)
        with open(info.path, "rb") as handle:
            handle.seek(offset)
            data = handle.read(read_len)
        self._prefetch_cache[info.guid] = (offset, data)
        return data[:length]

    def open_stream(self, guid: uuid.UUID) -> BinaryIO:
        """A plain read handle, for tools that keep their own file logic."""
        return open(self._require(guid).path, "rb")

    # -- administration ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blobs)

    def consistency_check(self) -> list[str]:
        """DBCC-style check: every catalogued BLOB must exist on disk with
        the recorded length; every file must be catalogued."""
        problems = []
        for guid, info in self._blobs.items():
            if not info.path.exists():
                problems.append(f"missing file for BLOB {guid}")
            elif info.path.stat().st_size != info.length:
                problems.append(
                    f"length mismatch for BLOB {guid}: "
                    f"catalog {info.length}, disk {info.path.stat().st_size}"
                )
        catalogued = {info.path for info in self._blobs.values()}
        for entry in self.directory.iterdir():
            if entry.is_file() and entry.suffix == ".blob" and entry not in catalogued:
                problems.append(f"orphan file {entry.name}")
        return problems
