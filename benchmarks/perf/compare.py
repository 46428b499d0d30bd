"""Compare two result files of ``run.py --out``, or show the spread of one.

    python3 benchmarks/perf/compare.py A.json [B.json]

One row per workload x end-to-end metric: each side's median and
quartiles over its runs (``run.py --runs N``; a side with one run shows
that run's own repetitions), the ratio B/A, the bound from
BENCHMARK.json and a verdict:

- ``worse``      B's median is worse than A's by more than the bound and
                 by more than either side's own spread;
- ``unresolved`` a side's spread (q3 - q1 over its median) is wider than
                 the bound, so the row shows neither a change nor its absence;
- ``ok``         otherwise.

With one file the rows show that file's spread against the bound.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[Tuple[str, str], Tuple[float, float, float]]:
    """(workload, metric) -> (q1, median, q3) over the file's runs."""
    with open(path) as handle:
        record = json.load(handle)
    if record.get("noisy"):
        print(f"warning: {path} was recorded under load (marked noisy)",
              file=sys.stderr)
    by_key: Dict[Tuple[str, str], List[dict]] = {}
    for run in record["runs"]:
        for name, metric in run["metrics"].items():
            by_key.setdefault((run["workload"], name), []).append(metric)
    out = {}
    for key, metrics in by_key.items():
        if len(metrics) == 1:
            only = metrics[0]
            out[key] = (only.get("q1", only["value"]), only["value"],
                        only.get("q3", only["value"]))
        else:
            out[key] = tuple(quartiles([m["value"] for m in metrics]))
    return out


def spread(q1: float, median: float, q3: float) -> float:
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    side_a = load(argv[1])
    side_b = load(argv[2]) if len(argv) == 3 else None
    print(f"{'workload':<14}{'metric':<29}{'A q1 / median / q3':<38}", end="")
    if side_b is not None:
        print(f"{'B q1 / median / q3':<38}{'B/A':>8}", end="")
    print(f"{'spread':>8}{'bound':>7}  verdict")
    worse = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for entry in spec["end_to_end"]:
            key = (workload, entry["name"])
            if key not in side_a or (side_b is not None and key not in side_b):
                continue
            a = side_a[key]
            widest = spread(*a)
            line = f"{workload:<14}{entry['name']:<29}{_triple(a):<38}"
            verdict = "ok"
            if side_b is not None:
                b = side_b[key]
                widest = max(widest, spread(*b))
                ratio = b[1] / a[1] if a[1] else float("nan")
                line += f"{_triple(b):<38}{ratio:>8.3f}"
                delta = (b[1] - a[1]) / abs(a[1]) if a[1] else 0.0
                worse_by = delta if entry["better"] == "lower" else -delta
                if worse_by > entry["bound"] and worse_by > widest:
                    verdict = "worse"
                    worse += 1
            if verdict == "ok" and widest > entry["bound"]:
                verdict = "unresolved"
            print(f"{line}{widest:>8.3f}{entry['bound']:>7.3f}  {verdict}")
    return 1 if worse else 0


def _triple(values) -> str:
    return " / ".join(f"{v:.5g}" for v in values)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
