"""FASTQ reading and writing.

Level-1 short reads travel in FASTQ: four lines per record — ``@name``,
the sequence, a ``+`` separator, and the quality string (Figure 3 of the
paper). Read names follow the Illumina convention of a composite textual
identifier::

    @IL4_855:1:1:954:659
     machine_runid : lane : tile : x : y

which is precisely the materialised composite key whose repetition blows
up the 1:1 relational import in Table 1/2; :func:`parse_illumina_name`
decomposes it so the normalized schema can store its parts once.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Tuple, Union

from ..engine.errors import EngineError
from .quality import PHRED33, decode_phred, encode_phred


class FastqFormatError(EngineError):
    """Malformed FASTQ input."""


@dataclass(frozen=True)
class FastqRecord:
    """One four-line FASTQ entry."""

    name: str
    sequence: str
    quality: str  # printable quality string (offset as stored)

    def __post_init__(self):
        if len(self.sequence) != len(self.quality):
            raise FastqFormatError(
                f"read {self.name!r}: sequence length {len(self.sequence)} "
                f"!= quality length {len(self.quality)}"
            )

    def scores(self, offset: int = PHRED33) -> List[int]:
        return decode_phred(self.quality, offset)

    @staticmethod
    def from_scores(
        name: str, sequence: str, scores, offset: int = PHRED33
    ) -> "FastqRecord":
        return FastqRecord(name, sequence, encode_phred(scores, offset))


@dataclass(frozen=True)
class IlluminaReadName:
    """Decomposed Illumina read name (machine, flowcell run, lane, tile,
    x, y) — the composite identifier of Section 5.1.1."""

    machine: str
    run_id: int
    lane: int
    tile: int
    x: int
    y: int

    def format(self) -> str:
        return (
            f"{self.machine}_{self.run_id}:{self.lane}:{self.tile}"
            f":{self.x}:{self.y}"
        )


def parse_illumina_name(name: str) -> IlluminaReadName:
    """Parse ``IL4_855:1:1:954:659`` style names."""
    try:
        head, lane, tile, x, y = name.split(":")
        machine, run_id = head.rsplit("_", 1)
        return IlluminaReadName(
            machine, int(run_id), int(lane), int(tile), int(x), int(y)
        )
    except ValueError as exc:
        raise FastqFormatError(f"bad Illumina read name {name!r}") from exc


def _as_text_handle(source: Union[str, os.PathLike, IO]) -> Tuple[IO, bool]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="ascii"), True
    if isinstance(source, io.TextIOBase):
        return source, False
    return io.TextIOWrapper(source, encoding="ascii"), False


def read_fastq(source: Union[str, os.PathLike, IO]) -> Iterator[FastqRecord]:
    """Stream FASTQ records from a path or handle."""
    handle, owned = _as_text_handle(source)
    try:
        while True:
            header = handle.readline()
            if not header:
                return
            header = header.rstrip("\n")
            if not header:
                continue
            if not header.startswith("@"):
                raise FastqFormatError(
                    f"expected '@' header, found {header[:20]!r}"
                )
            sequence = handle.readline().rstrip("\n")
            plus = handle.readline().rstrip("\n")
            quality = handle.readline().rstrip("\n")
            if not plus.startswith("+"):
                raise FastqFormatError(
                    f"read {header[1:]!r}: expected '+' separator"
                )
            if not quality and sequence:
                raise FastqFormatError(
                    f"read {header[1:]!r}: truncated record"
                )
            yield FastqRecord(header[1:], sequence, quality)
    finally:
        if owned:
            handle.close()


def write_fastq(
    records: Iterable[FastqRecord],
    destination: Union[str, os.PathLike, IO],
) -> int:
    """Write records; returns the count."""
    if isinstance(destination, (str, os.PathLike)):
        handle = open(destination, "w", encoding="ascii")
        owned = True
    else:
        handle = destination
        owned = False
    count = 0
    try:
        for record in records:
            handle.write(
                f"@{record.name}\n{record.sequence}\n+\n{record.quality}\n"
            )
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def fastq_bytes(records: Iterable[FastqRecord]) -> bytes:
    """Serialise records to the bytes of a FASTQ file (for FILESTREAM
    import without touching disk)."""
    buffer = io.StringIO()
    write_fastq(records, buffer)
    return buffer.getvalue().encode("ascii")


def count_records(source: Union[str, os.PathLike, IO]) -> int:
    """Count records without materialising them."""
    return sum(1 for _ in read_fastq(source))
