"""Workload sizes and helpers of the paper-artifact scripts (importable,
unlike conftest). ``REPRO_BENCH_SCALE`` is the only knob."""

from __future__ import annotations

import os
from pathlib import Path

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: workload sizes at scale 1.0
DGE_READS = int(80_000 * SCALE)
RESEQ_READS = int(50_000 * SCALE)
CHROMOSOMES = 3
CHROMOSOME_LENGTH = int(60_000 * max(SCALE, 1.0))

#: the committed artifacts; written at scale 1 only (conftest ``save_report``)
RESULTS_DIR = Path(__file__).parent / "results"


def find_operator(plan, kind):
    """The first ``kind`` node of a physical plan, root first, or None."""
    return next(
        (node for _path, node in plan.walk() if isinstance(node, kind)), None
    )
