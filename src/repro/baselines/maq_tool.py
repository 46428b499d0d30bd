"""A MAQ-like command-line alignment tool.

Section 2.1 describes MAQ's workflow as the canonical example of the
file-format zoo: "MAQ first transforms the output files from a sequencer
and the reference sequences into its own internal formats (intermediate
binary files); the output of its short-read alignment is another
proprietary binary file which then has to be converted into a human
readable form before it can be further processed."

:class:`MaqTool` reproduces that exact pipeline shape, each step a
separate "command" that reads files and writes files:

1. ``fastq2bfq`` — FASTQ → binary read file (``.bfq``);
2. ``fasta2bfa`` — reference FASTA → binary reference (``.bfa``);
3. ``map`` — ``.bfq`` + ``.bfa`` → binary alignment file (``.map``);
4. ``mapview`` — ``.map`` → tab-separated text.

The alignment core is the same :class:`ShortReadAligner` the in-database
path uses, so quality comparisons measure *data management*, not two
different aligners.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, Iterator, List

from ..engine.errors import EngineError
from ..genomics.aligner import ShortReadAligner
from ..genomics.fasta import FastaRecord, read_fasta
from ..genomics.fastq import FastqRecord, read_fastq
from ..genomics.maqmap import read_binary_map, write_binary_map, write_text_map
from ..genomics.sequences import pack_4bit, unpack_4bit

BFQ_MAGIC = b"BFQ\x01"
BFA_MAGIC = b"BFA\x01"


class MaqToolError(EngineError):
    pass


class MaqTool:
    """The file-to-file alignment pipeline."""

    def __init__(self, workdir: os.PathLike | str):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    # -- step 1: fastq2bfq -------------------------------------------------------------

    def fastq2bfq(self, fastq_path: os.PathLike | str) -> Path:
        """Convert FASTQ to the binary read format."""
        out_path = self.workdir / (Path(fastq_path).stem + ".bfq")
        with open(out_path, "wb") as out:
            out.write(BFQ_MAGIC)
            for record in read_fastq(fastq_path):
                name = record.name.encode("ascii")
                seq = pack_4bit(record.sequence)
                quals = bytes(record.scores())
                out.write(struct.pack("<HHH", len(name), len(seq), len(quals)))
                out.write(name)
                out.write(seq)
                out.write(quals)
        return out_path

    def read_bfq(self, bfq_path: os.PathLike | str) -> Iterator[FastqRecord]:
        with open(bfq_path, "rb") as handle:
            if handle.read(len(BFQ_MAGIC)) != BFQ_MAGIC:
                raise MaqToolError(f"{bfq_path}: not a bfq file")
            header_size = struct.calcsize("<HHH")
            while True:
                header = handle.read(header_size)
                if not header:
                    return
                name_len, seq_len, qual_len = struct.unpack("<HHH", header)
                name = handle.read(name_len).decode("ascii")
                sequence = unpack_4bit(handle.read(seq_len))
                scores = list(handle.read(qual_len))
                yield FastqRecord.from_scores(name, sequence, scores)

    # -- step 2: fasta2bfa -------------------------------------------------------------

    def fasta2bfa(self, fasta_path: os.PathLike | str) -> Path:
        """Convert a reference FASTA to the binary reference format."""
        out_path = self.workdir / (Path(fasta_path).stem + ".bfa")
        with open(out_path, "wb") as out:
            out.write(BFA_MAGIC)
            for record in read_fasta(fasta_path):
                name = record.name.encode("ascii")
                seq = pack_4bit(record.sequence)
                out.write(struct.pack("<HI", len(name), len(seq)))
                out.write(name)
                out.write(seq)
        return out_path

    def read_bfa(self, bfa_path: os.PathLike | str) -> List[FastaRecord]:
        records = []
        with open(bfa_path, "rb") as handle:
            if handle.read(len(BFA_MAGIC)) != BFA_MAGIC:
                raise MaqToolError(f"{bfa_path}: not a bfa file")
            header_size = struct.calcsize("<HI")
            while True:
                header = handle.read(header_size)
                if not header:
                    return records
                name_len, seq_len = struct.unpack("<HI", header)
                name = handle.read(name_len).decode("ascii")
                sequence = unpack_4bit(handle.read(seq_len))
                records.append(FastaRecord(name, sequence))

    # -- step 3: map -------------------------------------------------------------------

    def map(
        self,
        bfq_path: os.PathLike | str,
        bfa_path: os.PathLike | str,
        max_mismatches: int = 2,
    ) -> Path:
        """Align the binary reads against the binary reference, writing
        the binary alignment file."""
        reference = self.read_bfa(bfa_path)
        aligner = ShortReadAligner(reference, max_mismatches=max_mismatches)
        out_path = self.workdir / (Path(bfq_path).stem + ".map")
        hits = (
            alignment
            for _read, alignment in aligner.align_all(self.read_bfq(bfq_path))
            if alignment is not None
        )
        write_binary_map(hits, out_path)
        return out_path

    # -- step 4: mapview ----------------------------------------------------------------

    def mapview(self, map_path: os.PathLike | str) -> Path:
        """Dump the binary map as 'human readable' text — the extra
        conversion step the paper notes actually *complicates* downstream
        processing."""
        out_path = Path(map_path).with_suffix(".map.txt")
        write_text_map(read_binary_map(map_path), out_path)
        return out_path

    # -- full pipeline ------------------------------------------------------------------

    def pipeline(
        self,
        fastq_path: os.PathLike | str,
        fasta_path: os.PathLike | str,
    ) -> Dict[str, Path]:
        """Run all four steps; returns every artefact (note how many
        intermediate files one alignment needs)."""
        bfq = self.fastq2bfq(fastq_path)
        bfa = self.fasta2bfa(fasta_path)
        map_file = self.map(bfq, bfa)
        text = self.mapview(map_file)
        return {"bfq": bfq, "bfa": bfa, "map": map_file, "mapview": text}
