"""Experiment VEC — vectorized batch-mode execution vs the row-mode
Volcano interpreter on the canonical scan-filter-aggregate pipeline.

The engine's row-mode interpreter pays a Python generator handshake and
a closure call per row per operator. Batch mode amortises that: scans
emit page-aligned batches, filters evaluate a batch-compiled predicate
over whole batches, and aggregates accumulate column-wise. This bench
times the same query in both modes (``db.execution_mode``), checks the
results are identical, and reports the speedup.

Reports:
- ``benchmarks/results/vectorized.txt`` — the mode comparison;
- ``benchmarks/results/BENCH_vectorized.json`` — machine-readable.
"""

from __future__ import annotations

import time

import pytest

from bench_common import SCALE, save_bench_json, save_report
from repro.engine.database import Database

#: rows in the scan-filter-aggregate workload at scale 1.0
VEC_ROWS = int(120_000 * SCALE)

# MAXDOP 1 keeps the exchange operator out of the plan: the comparison
# is row vs batch execution of the same serial pipeline, not the worker pool
SQL = (
    "SELECT grp, COUNT(*), SUM(amount), AVG(price) FROM measurements "
    "WHERE amount > 12 GROUP BY grp OPTION (MAXDOP 1)"
)


@pytest.fixture(scope="module")
def vec_db():
    db = Database()
    db.execute(
        "CREATE TABLE measurements (m_id INT PRIMARY KEY, grp INT, "
        "amount INT, price FLOAT)"
    )
    table = db.table("measurements")
    for i in range(max(VEC_ROWS, 100)):
        table.insert((i, i % 23, (i * 7) % 50, float(i % 13) * 2.5))
    table.finish_bulk_load()
    db.execute("UPDATE STATISTICS measurements")
    yield db
    db.close()


def _time_mode(db, mode, repeats=5):
    """Best-of-N wall time for SQL in one execution mode."""
    db.execution_mode = mode
    best = float("inf")
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = db.query(SQL)
        best = min(best, time.perf_counter() - start)
    db.execution_mode = "auto"
    return rows, best


class TestVectorized:
    def test_bench_row_mode(self, benchmark, vec_db):
        vec_db.execution_mode = "row"
        try:
            rows = benchmark.pedantic(
                vec_db.query, args=(SQL,), rounds=3, iterations=1
            )
        finally:
            vec_db.execution_mode = "auto"
        assert rows

    def test_bench_batch_mode(self, benchmark, vec_db):
        vec_db.execution_mode = "auto"
        rows = benchmark.pedantic(
            vec_db.query, args=(SQL,), rounds=3, iterations=1
        )
        assert rows


def test_vec_report(vec_db):
    # warm both page caches and code paths before timing
    _time_mode(vec_db, "row", repeats=1)
    _time_mode(vec_db, "auto", repeats=1)

    row_rows, row_time = _time_mode(vec_db, "row")
    batch_rows, batch_time = _time_mode(vec_db, "auto")

    # batch mode must be a pure execution-strategy change
    assert batch_rows == row_rows
    assert repr(batch_rows) == repr(row_rows)

    plan = vec_db.explain(SQL)
    assert "batch mode" in plan

    speedup = row_time / batch_time if batch_time > 0 else 1.0
    n_rows = vec_db.scalar("SELECT COUNT(*) FROM measurements")

    lines = [
        "Vectorized execution: scan-filter-aggregate, "
        f"{n_rows:,} rows, {len(batch_rows)} groups",
        "=" * 72,
        f"{'Mode':<46}{'seconds':>12}",
        "-" * 72,
        f"{'row mode (Volcano interpreter)':<46}{row_time:>12.4f}",
        f"{'batch mode (vectorized)':<46}{batch_time:>12.4f}",
        "-" * 72,
        f"{'speedup':<46}{speedup:>11.2f}x",
    ]
    save_report("vectorized.txt", "\n".join(lines))
    save_bench_json(
        "vectorized",
        wall_time=batch_time,
        rows=n_rows,
        extra={
            "query": SQL,
            "row_mode_s": round(row_time, 6),
            "batch_mode_s": round(batch_time, 6),
            "speedup": round(speedup, 3),
            "groups": len(batch_rows),
        },
    )

    # generous floor: timing noise aside, batch mode must never be a
    # regression (the CI job asserts the same from the JSON artifact)
    assert speedup >= 0.9
