"""The counter gates: exact counts CI holds the repo benchmark to.

    python3 benchmarks/perf/run.py --trace 1 --seconds 3 --out perf-trace.json
    python3 benchmarks/counter_gates.py perf-trace.json

Every row of ``GATES`` is an inequality on a *count* from one traced run
at scale 1, seed 1 (``run.py`` starts each workload under
``PYTHONHASHSEED=0``, so the counts are exact); no row reads a wall
time, which a shared CI runner cannot hold still. A ``ratchet`` row
holds today's value of a number a ROADMAP item owns: that item may only
tighten it. Speed itself is claimed with ``run.py --runs 10`` +
``compare.py`` (``benchmarks/perf/README.md``), never here.
"""

from __future__ import annotations

import json
import operator
import sys

GATES = (
    # workload, per-layer metric, relation, bound, what it holds
    ("colscan", "storage.segments_skipped", ">", 0,
     "zone maps prune the selective scan"),
    ("colscan", "storage.pages_read", "<=", 220,
     "ratchet: the selective heap statement seeks its m_id BETWEEN range "
     "on the clustered key instead of scanning the table (274 before)"),
    ("lookup_hot", "plancache.hit_ratio", "==", 1,
     "hot parameterized traffic resolves from the plan cache"),
    ("lookup_adhoc", "plancache.hit_ratio", "==", 0,
     "never-seen statements compile: the miss path is what is timed"),
    ("binning_dop2", "exchange.fallbacks", "==", 0,
     "the workers run Query 1 at MAXDOP 2"),
    ("binning_dop2", "exchange.bytes_shipped_per_row_returned", "<=", 24,
     "the exchange ships the task, not the table (2379 before PR 21)"),
    ("binning_dop2", "storage.pages_read", "<=", 728,
     "workers read the pages the serial seek reads, once"),
    ("binning", "storage.pages_read", "<=", 728,
     "ratchet: PR 17's leaf-run seek over PR 20's full leaves, one heap "
     "page visit per rid run"),
    ("pipeline_dge", "storage.page_cache_misses", "==", 0,
     "no row written in an op is decoded again to be read in it"),
    ("binning", "optimizer.q_error_max", "<=", 100.7,
     "ratchet: the clustered key drives estimates (exit: <= 4); the seek "
     "is counted in the B+tree (1000 before), what is left is the Hash "
     "Aggregate's guess of 10 groups for 1007"),
    ("consensus", "optimizer.q_error_max", "<=", 4,
     "ratchet: the clustered key drives estimates; 3.33 once the seek is "
     "counted in the B+tree (1000 before): the Stream Aggregate's guess "
     "of 10 groups for 3"),
)

_RELATIONS = {
    ">": operator.gt, "==": operator.eq, "<=": operator.le,
}


def check(record: dict) -> list:
    """Failure messages for one ``run.py --trace 1 --out`` record."""
    if not record.get("trace") or record["scale"] != 1.0 or record["seed"] != 1:
        return ["the gates are stated for `--trace 1` at scale 1, seed 1"]
    runs = {run["workload"]: run for run in record["runs"]}
    failures = [
        f"{name}: {run['failed']} of {run['attempted']} operations failed "
        "their oracle"
        for name, run in runs.items() if run["failed"]
    ]
    for workload, metric, relation, bound, why in GATES:
        if workload not in runs:
            failures.append(f"{workload}: not in this run")
            continue
        value = runs[workload]["metrics"][metric]["value"]
        verdict = _RELATIONS[relation](value, bound)
        print(f"{'ok  ' if verdict else 'FAIL'} {workload:<13}{metric:<42}"
              f"{value:>12.6g} {relation} {bound}")
        if not verdict:
            failures.append(
                f"{workload} {metric} = {value:.6g}, not {relation} {bound} "
                f"({why})"
            )
    return failures


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        problems = check(json.load(handle))
    for problem in problems:
        print(f"counter gate: {problem}", file=sys.stderr)
    sys.exit(1 if problems else 0)
