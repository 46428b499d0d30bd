"""MAQ-style alignment files.

MAQ's workflow (paper Section 2.1) is the canonical example of the
file-centric zoo: it first converts FASTQ and FASTA into proprietary
*binary* intermediates (``.bfq``, ``.bfa``), aligns into a binary
``.map`` file, and only then dumps a "human readable" text form
(``maq mapview``) that downstream scripts parse again. This module
implements all three shapes so the baselines can reproduce that exact
I/O pattern:

- :func:`write_binary_map` / :func:`read_binary_map` — a compact binary
  record format (struct-packed, length-prefixed names);
- :func:`write_text_map` / :func:`read_text_map` — the tab-separated
  mapview-like text:
  ``read_name  ref  position(1-based)  strand  mapq  mismatches  length``.
"""

from __future__ import annotations

import io
import os
import struct
from typing import IO, Iterable, Iterator, Union

from ..engine.errors import EngineError
from .aligner import Alignment

MAGIC = b"MAQM\x01"


class MapFormatError(EngineError):
    pass


# ---------------------------------------------------------------------------
# binary map
# ---------------------------------------------------------------------------


def write_binary_map(
    alignments: Iterable[Alignment],
    destination: Union[str, os.PathLike, IO],
) -> int:
    """Write the binary ``.map``-like file; returns the record count."""
    if isinstance(destination, (str, os.PathLike)):
        handle: IO = open(destination, "wb")
        owned = True
    else:
        handle = destination
        owned = False
    count = 0
    try:
        handle.write(MAGIC)
        for a in alignments:
            name = a.read_name.encode("ascii")
            ref = a.reference.encode("ascii")
            handle.write(struct.pack("<HH", len(name), len(ref)))
            handle.write(name)
            handle.write(ref)
            handle.write(
                struct.pack(
                    "<IBbBH",
                    a.position,
                    1 if a.strand == "+" else 0,
                    a.mismatches,
                    a.mapping_quality,
                    a.read_length,
                )
            )
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def read_binary_map(
    source: Union[str, os.PathLike, IO],
) -> Iterator[Alignment]:
    if isinstance(source, (str, os.PathLike)):
        handle: IO = open(source, "rb")
        owned = True
    else:
        handle = source
        owned = False
    try:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise MapFormatError("not a binary map file (bad magic)")
        header_size = struct.calcsize("<HH")
        body_size = struct.calcsize("<IBbBH")
        while True:
            header = handle.read(header_size)
            if not header:
                return
            if len(header) != header_size:
                raise MapFormatError("truncated record header")
            name_len, ref_len = struct.unpack("<HH", header)
            name = handle.read(name_len).decode("ascii")
            ref = handle.read(ref_len).decode("ascii")
            body = handle.read(body_size)
            if len(body) != body_size:
                raise MapFormatError("truncated record body")
            position, fwd, mismatches, mapq, length = struct.unpack(
                "<IBbBH", body
            )
            yield Alignment(
                read_name=name,
                reference=ref,
                position=position,
                strand="+" if fwd else "-",
                mismatches=mismatches,
                mapping_quality=mapq,
                read_length=length,
            )
    finally:
        if owned:
            handle.close()


# ---------------------------------------------------------------------------
# text map (mapview-like)
# ---------------------------------------------------------------------------


def write_text_map(
    alignments: Iterable[Alignment],
    destination: Union[str, os.PathLike, IO],
    sequences: Union[dict, None] = None,
) -> int:
    """Write the tab-separated human-readable form (1-based positions,
    as mapview prints).

    ``sequences`` optionally maps read name → (sequence, quality); when
    given, both are appended as columns — real ``maq mapview`` output
    repeats the read sequence and qualities per alignment, which is
    exactly the redundancy the normalized schema's foreign keys remove
    (the ~40 % saving of Table 2).
    """
    if isinstance(destination, (str, os.PathLike)):
        handle: IO = open(destination, "w", encoding="ascii")
        owned = True
    else:
        handle = destination
        owned = False
    count = 0
    try:
        for a in alignments:
            handle.write(
                f"{a.read_name}\t{a.reference}\t{a.position + 1}\t"
                f"{a.strand}\t{a.mapping_quality}\t{a.mismatches}\t"
                f"{a.read_length}"
            )
            if sequences is not None:
                seq, qual = sequences.get(a.read_name, ("", ""))
                handle.write(f"\t{seq}\t{qual}")
            handle.write("\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def read_text_map(
    source: Union[str, os.PathLike, IO],
) -> Iterator[Alignment]:
    if isinstance(source, (str, os.PathLike)):
        handle: IO = open(source, "r", encoding="ascii")
        owned = True
    elif isinstance(source, io.TextIOBase):
        handle, owned = source, False
    else:
        handle, owned = io.TextIOWrapper(source, encoding="ascii"), False
    try:
        for line_no, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) not in (7, 9):
                raise MapFormatError(
                    f"line {line_no}: expected 7 or 9 fields, got {len(parts)}"
                )
            name, ref, pos, strand, mapq, mismatches, length = parts[:7]
            yield Alignment(
                read_name=name,
                reference=ref,
                position=int(pos) - 1,
                strand=strand,
                mismatches=int(mismatches),
                mapping_quality=int(mapq),
                read_length=int(length),
            )
    finally:
        if owned:
            handle.close()
