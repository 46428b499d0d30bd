"""The sequential "Perl script" baseline for unique-read binning.

Section 5.3.2: a 26-line Perl script used by bioinformatics colleagues
performs the unique-read binning that Query 1 expresses declaratively;
the script took 10 minutes where the SQL query took 44 seconds. The gap
has two causes the paper identifies in Figures 7 and 8:

1. the script is *sequential* — read the whole file into memory, then
   process, then write, using one of the four cores (~25 % CPU);
2. the database plan is *set-oriented and parallel* — the scan, hash
   aggregation and ranking run across all cores.

:func:`run_binning_script` reproduces the scripting pattern faithfully
(slurp → per-record loop with regex-flavoured string tests → sort →
write) and instruments each phase so the benchmark can regenerate the
Figure 7 trace.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from .trace import ResourceTrace


def run_binning_script(
    fastq_path: os.PathLike | str,
    output_path: Optional[os.PathLike | str] = None,
    cores: int = 4,
) -> Tuple[List[Tuple[int, int, str]], ResourceTrace]:
    """Bin unique reads the way the Perl one-liner culture does.

    Returns the ranked ``(rank, count, sequence)`` list and the phase
    trace. Deliberate scripting idioms, kept on purpose:

    - the whole file is slurped into a line list before any processing
      (the dark-green read ramp in Figure 7);
    - records are processed one at a time in interpreter code;
    - everything runs on one core (utilisation = 1/cores).
    """
    trace = ResourceTrace(label="perl-style script", cores=cores)

    with trace.record("read", busy_cores=0.6, detail="slurp file into memory"):
        with open(fastq_path, "r", encoding="ascii") as handle:
            lines = handle.readlines()

    with trace.record("process", busy_cores=1.0, detail="per-record loop"):
        counts: dict = {}
        i = 0
        n = len(lines)
        while i + 4 <= n:
            header = lines[i]
            if not header.startswith("@"):
                i += 1
                continue
            seq = lines[i + 1].rstrip("\n")
            # the Perl script's  next if /N/;
            if "N" in seq:
                i += 4
                continue
            if seq in counts:
                counts[seq] += 1
            else:
                counts[seq] = 1
            i += 4
        # sort by descending frequency (Perl:  sort { $h{$b} <=> $h{$a} })
        ranked_pairs = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ranked = [
            (rank, count, seq)
            for rank, (seq, count) in enumerate(ranked_pairs, start=1)
        ]

    if output_path is not None:
        with trace.record("write", busy_cores=0.5, detail="dump result file"):
            with open(output_path, "w", encoding="ascii") as out:
                for rank, count, seq in ranked:
                    out.write(f"{rank}\t{count}\t{seq}\n")

    return ranked, trace
