"""Experiment OBS — what does always-on observability cost?

The Query Store, the statement tracer, and the wait-stats rollup are on
by default, the way SQL Server ships them: every statement is
normalised, interned, and span-traced, including across the process
boundary into parallel workers. This bench runs the bench_parallel
scan-aggregate workload twice — instrumentation on (the shipping
default) and instrumentation off (``db.tracer.enabled = False``,
``db.query_store.enabled = False``; the Query Store is the only
per-query stat store, so "off" also stops ``sys_dm_exec_query_stats``
capture) — and reports the relative overhead, which must stay **under
5 %** for the layer to deserve its on-by-default switch.

Best-of-N minimums on both sides cancel the usual CI noise: the
instrumented cost per statement is fixed (one span-tree append, one
plan-signature walk, one runtime-stats row update; the normalised key
comes with the parse or the plan-cache hit), so the percentage shrinks
as the workload grows.

Reports:
- ``benchmarks/results/observability.txt`` — on/off wall table;
- ``benchmarks/results/BENCH_observability.json`` — machine-readable
  (CI gates on ``overhead_pct``);
- ``benchmarks/results/trace_sample.json`` — a Chrome trace-event
  export of one dop-2 statement (load it in ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time

import pytest

from bench_common import RESULTS_DIR, SCALE, save_bench_json, save_report
from repro.engine.database import Database

#: rows in the observed workload at scale 1.0; floored so the fixed
#: per-statement cost is measured against a non-trivial wall even at
#: smoke scale (the overhead ratio is meaningless on a sub-ms workload)
OBS_ROWS = max(int(120_000 * SCALE), 40_000)

#: statements per timed pass: a serial aggregate, a filtered scan, and
#: a dop-2 exchange — the bench_parallel shapes the tracer instruments
#: most heavily
WORKLOAD = (
    "SELECT grp, COUNT(*), SUM(amount) FROM readings GROUP BY grp "
    "OPTION (MAXDOP 1)",
    "SELECT COUNT(*) FROM readings WHERE amount < 25",
    "SELECT grp, COUNT(*), SUM(amount), MAX(amount) FROM readings "
    "GROUP BY grp OPTION (MAXDOP 2)",
)

REPEATS = 9


@pytest.fixture(scope="module")
def obs_db():
    db = Database()
    db.execute(
        "CREATE TABLE readings (r_id INT PRIMARY KEY, grp INT, amount INT)"
    )
    table = db.table("readings")
    for i in range(max(OBS_ROWS, 200)):
        table.insert((i, i % 13, (i * 7) % 50))
    table.finish_bulk_load()
    db.execute("UPDATE STATISTICS readings")
    # spawn the worker pool and warm every code path outside the timing
    for sql in WORKLOAD:
        db.query(sql)
    yield db
    db.close()


def _set_instrumentation(db, enabled):
    db.tracer.enabled = enabled
    db.query_store.enabled = enabled


def _one_pass(db):
    start = time.perf_counter()
    rows = None
    for sql in WORKLOAD:
        rows = db.query(sql)
    return rows, time.perf_counter() - start


def _time_interleaved(db, repeats=REPEATS):
    """Best-of-N wall for the workload, instrumentation on vs off.

    The two passes alternate inside one repeat loop so slow machine
    drift (CI neighbours, thermal throttling, worker-pool scheduling
    jitter on a single core) hits both sides equally instead of biasing
    whichever side ran last."""
    wall_on = wall_off = float("inf")
    rows_on = rows_off = None
    for _ in range(repeats):
        _set_instrumentation(db, True)
        rows_on, elapsed = _one_pass(db)
        wall_on = min(wall_on, elapsed)
        _set_instrumentation(db, False)
        rows_off, elapsed = _one_pass(db)
        wall_off = min(wall_off, elapsed)
    _set_instrumentation(db, True)
    return rows_on, wall_on, rows_off, wall_off


def test_obs_report(obs_db):
    rows_on, wall_on, rows_off, wall_off = _time_interleaved(obs_db)

    # export one dop-2 statement's trace while instrumentation is live
    _set_instrumentation(obs_db, True)
    obs_db.query(WORKLOAD[-1])
    sample_path = RESULTS_DIR / "trace_sample.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    obs_db.write_trace(sample_path, last_only=True)
    sample = json.loads(sample_path.read_text())
    assert any(e["ph"] == "X" for e in sample["traceEvents"])

    # observability is read-only: byte-identical results either way
    assert repr(rows_on) == repr(rows_off)

    overhead_pct = (
        (wall_on - wall_off) / wall_off * 100.0 if wall_off > 0 else 0.0
    )

    statements = len(WORKLOAD)
    per_stmt_us = (
        max(wall_on - wall_off, 0.0) / statements * 1e6
    )
    waits = obs_db.tracer.wait_stats.rows()
    store_queries = len(obs_db.query_store.queries())

    lines = [
        "Observability overhead: query store + tracer + wait stats",
        "=" * 64,
        f"{'Pass':<28}{'best-of-%d wall s' % REPEATS:>20}",
        "-" * 64,
        f"{'instrumentation ON':<28}{wall_on:>20.4f}",
        f"{'instrumentation OFF':<28}{wall_off:>20.4f}",
        "-" * 64,
        f"overhead: {overhead_pct:+.2f}%  "
        f"(~{per_stmt_us:.0f} us per statement, "
        f"{store_queries} queries interned, "
        f"{len(waits)} wait types observed)",
    ]
    save_report("observability.txt", "\n".join(lines))

    save_bench_json(
        "observability",
        wall_time=wall_on,
        rows=obs_db.scalar("SELECT COUNT(*) FROM readings"),
        extra={
            "wall_on_s": round(wall_on, 6),
            "wall_off_s": round(wall_off, 6),
            "overhead_pct": round(overhead_pct, 3),
            "per_statement_us": round(per_stmt_us, 1),
            "statements_per_pass": statements,
            "repeats": REPEATS,
            "query_store_queries": store_queries,
            "wait_types": [w[0] for w in waits],
        },
    )

    # the on-by-default bar: noise-cancelled minimums must stay close
    assert overhead_pct < 5.0, (
        f"instrumentation overhead {overhead_pct:.2f}% >= 5%"
    )
