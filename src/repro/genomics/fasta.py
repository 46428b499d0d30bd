"""FASTA reading and writing.

The common interchange format for reference sequences. Sequences are
line-wrapped (conventionally to 60 columns — the paper singles this out
as a format "optimized for a textual display"); the reader is streaming
and tolerant of any wrap width.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Tuple, Union

from ..engine.errors import EngineError

#: conventional wrap width
LINE_WIDTH = 60


class FastaFormatError(EngineError):
    """Malformed FASTA input."""


@dataclass(frozen=True)
class FastaRecord:
    """One ``>name description`` + sequence entry."""

    name: str
    sequence: str
    description: str = ""

    @property
    def header(self) -> str:
        if self.description:
            return f"{self.name} {self.description}"
        return self.name


def _as_text_handle(source: Union[str, os.PathLike, IO]) -> Tuple[IO, bool]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="ascii"), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary handle (e.g. a FileStream stream): wrap it
    return io.TextIOWrapper(source, encoding="ascii"), False


def read_fasta(source: Union[str, os.PathLike, IO]) -> Iterator[FastaRecord]:
    """Stream records from a path or open handle."""
    handle, owned = _as_text_handle(source)
    try:
        name = None
        description = ""
        chunks: List[str] = []
        for line in handle:
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield FastaRecord(name, "".join(chunks), description)
                header = line[1:].strip()
                if not header:
                    raise FastaFormatError("empty FASTA header")
                parts = header.split(None, 1)
                name = parts[0]
                description = parts[1] if len(parts) > 1 else ""
                chunks = []
            else:
                if name is None:
                    raise FastaFormatError(
                        "sequence data before the first '>' header"
                    )
                chunks.append(line.strip())
        if name is not None:
            yield FastaRecord(name, "".join(chunks), description)
    finally:
        if owned:
            handle.close()


def write_fasta(
    records: Iterable[FastaRecord],
    destination: Union[str, os.PathLike, IO],
    line_width: int = LINE_WIDTH,
) -> int:
    """Write records, wrapping sequences; returns the record count."""
    if line_width < 1:
        raise FastaFormatError(f"bad line width {line_width}")
    if isinstance(destination, (str, os.PathLike)):
        handle = open(destination, "w", encoding="ascii")
        owned = True
    else:
        handle = destination
        owned = False
    count = 0
    try:
        for record in records:
            handle.write(f">{record.header}\n")
            seq = record.sequence
            for i in range(0, len(seq), line_width):
                handle.write(seq[i : i + line_width])
                handle.write("\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count
