"""The file-centric status quo: a directory of per-stage files.

This is the baseline data management the paper describes in Sections 1
and 2: every workflow stage writes its own file in its own format — the
lane FASTQ, the unique-tag listing, the MAQ-style alignment files, and
the tab-separated analysis outputs — with identity carried in textual
composite names and no shared data model. The storage benchmarks measure
these files as the "Files" column of Tables 1 and 2.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence, Tuple

from ..engine.errors import EngineError
from ..genomics.fastq import FastqRecord, write_fastq


class FileCentricStore:
    """Manages the per-lane file zoo under one root directory."""

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- path conventions (mirroring e.g. '855_s_1.fastq') -------------------------

    def lane_prefix(self, sample: int, lane: int) -> str:
        return f"{sample}_s_{lane}"

    def fastq_path(self, sample: int, lane: int) -> Path:
        return self.root / f"{self.lane_prefix(sample, lane)}.fastq"

    def tags_path(self, sample: int, lane: int) -> Path:
        return self.root / f"{self.lane_prefix(sample, lane)}.tags.txt"

    def map_path(self, sample: int, lane: int) -> Path:
        return self.root / f"{self.lane_prefix(sample, lane)}.map.txt"

    def expression_path(self, sample: int, lane: int) -> Path:
        return self.root / f"{self.lane_prefix(sample, lane)}.expr.txt"

    # -- writers ----------------------------------------------------------------------

    def store_lane_fastq(
        self, sample: int, lane: int, records: Iterable[FastqRecord]
    ) -> Path:
        path = self.fastq_path(sample, lane)
        write_fastq(records, path)
        return path

    def store_unique_tags(
        self,
        sample: int,
        lane: int,
        ranked_tags: Sequence[Tuple[int, int, str]],
    ) -> Path:
        """The Perl script's output: ``rank  count  sequence`` lines."""
        path = self.tags_path(sample, lane)
        with open(path, "w", encoding="ascii") as handle:
            for rank, count, sequence in ranked_tags:
                handle.write(f"{rank}\t{count}\t{sequence}\n")
        return path

    def store_expression(
        self,
        sample: int,
        lane: int,
        rows: Sequence[Tuple[str, int, int]],
    ) -> Path:
        """Gene-expression results: ``gene  total_frequency  tag_count``."""
        path = self.expression_path(sample, lane)
        with open(path, "w", encoding="ascii") as handle:
            for gene, total, count in rows:
                handle.write(f"{gene}\t{total}\t{count}\n")
        return path

    # -- accounting --------------------------------------------------------------------

    def size_of(self, path: Path) -> int:
        if not path.exists():
            raise EngineError(f"missing file {path}")
        return path.stat().st_size
