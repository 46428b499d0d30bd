"""Experiment PAR — real multi-core parallel aggregation vs serial.

The exchange operator family ships range-partitioned storage slices to a
process pool, aggregates partials on separate cores, and merges at the
coordinator. This bench runs the canonical scan-aggregate pipeline
serially (``OPTION (MAXDOP 1)``) and at increasing DOP, checks
the results stay byte-identical, and reports per DOP only what was
measured:

- **serial** — the single-process baseline wall clock;
- **measured** — end-to-end wall clock with the worker pool, and its
  ratio to serial;
- **mode** — the exchange tier that ran (scan / rows / serial);
- **shipped B/row** — pickled task bytes sent to workers per result row
  returned, the data-movement cost a CPU-only model cannot see.

On a single-core host the measured numbers cannot beat serial (the
workers time-slice one CPU and pay transport on top), so the speedup
floor is asserted only when ``os.cpu_count() >= 2``.

Reports:
- ``benchmarks/results/parallel.txt`` — speedup-vs-DOP table;
- ``benchmarks/results/BENCH_parallel.json`` — machine-readable.
"""

from __future__ import annotations

import os
import time

import pytest

from bench_common import SCALE, save_bench_json, save_report
from repro.engine.database import Database
from repro.engine.executor import collect_rows
from repro.engine.executor.parallel import ParallelHashAggregate

#: rows in the parallel aggregation workload at scale 1.0
PAR_ROWS = int(150_000 * SCALE)

DOPS = (2, 4)

# no WHERE clause: a bare-scan child lets the exchange ship storage
# slices ("parallel scan" tier) instead of coordinator-fed rows
BASE_SQL = (
    "SELECT grp, COUNT(*), SUM(amount), MAX(amount) FROM readings "
    "GROUP BY grp"
)


def _sql(dop):
    return f"{BASE_SQL} OPTION (MAXDOP {dop})"


@pytest.fixture(scope="module")
def par_db():
    db = Database()
    db.execute(
        "CREATE TABLE readings (r_id INT PRIMARY KEY, grp INT, amount INT)"
    )
    table = db.table("readings")
    for i in range(max(PAR_ROWS, 100)):
        table.insert((i, i % 19, (i * 7) % 50))
    table.finish_bulk_load()
    db.execute("UPDATE STATISTICS readings")
    # spawn the worker pool outside the timed region
    db.query(_sql(max(DOPS)))
    yield db
    db.close()


def _time_query(db, sql, repeats=3):
    """Best-of-N wall time for ``sql``."""
    best = float("inf")
    rows = None
    for _ in range(repeats):
        start = time.perf_counter()
        rows = db.query(sql)
        best = min(best, time.perf_counter() - start)
    return rows, best


def _exchange_node(op):
    if isinstance(op, ParallelHashAggregate):
        return op
    for child in op.children():
        found = _exchange_node(child)
        if found is not None:
            return found
    return None


def _exchange_stats(db, sql):
    """Run ``sql`` once and return the exchange operator's stats."""
    plan = db.plan(sql)
    collect_rows(plan)
    node = _exchange_node(plan)
    return node.stats if node is not None else None


class TestParallel:
    def test_bench_serial(self, benchmark, par_db):
        rows = benchmark.pedantic(
            par_db.query, args=(_sql(1),), rounds=3, iterations=1
        )
        assert rows

    @pytest.mark.parametrize("dop", DOPS)
    def test_bench_parallel(self, benchmark, par_db, dop):
        rows = benchmark.pedantic(
            par_db.query, args=(_sql(dop),), rounds=3, iterations=1
        )
        assert rows


def test_par_report(par_db):
    cpus = os.cpu_count() or 1
    serial_rows, serial_time = _time_query(par_db, _sql(1))

    curve = []
    for dop in DOPS:
        par_rows, measured = _time_query(par_db, _sql(dop))
        # parallel execution is a pure strategy change: byte-identical
        # results, including group order after the coordinator merge
        assert par_rows == serial_rows
        assert repr(par_rows) == repr(serial_rows)

        stats = _exchange_stats(par_db, _sql(dop))
        assert stats is not None
        curve.append(
            {
                "dop": dop,
                "mode": stats.mode,
                "measured_s": round(measured, 6),
                "measured_speedup": round(
                    serial_time / measured if measured > 0 else 1.0, 3
                ),
                "bytes_shipped": stats.bytes_shipped,
                "bytes_returned": stats.bytes_returned,
                "bytes_shipped_per_row_returned": round(
                    stats.bytes_shipped / max(len(par_rows), 1), 1
                ),
            }
        )

    n_rows = par_db.scalar("SELECT COUNT(*) FROM readings")
    lines = [
        "Parallel aggregation: scan-aggregate, "
        f"{n_rows:,} rows, {len(serial_rows)} groups, {cpus} cpu(s)",
        "=" * 77,
        f"{'Plan':<30}{'measured s':>14}{'speedup':>9}"
        f"{'mode':>8}{'shipped B/row':>16}",
        "-" * 77,
        f"{'serial (MAXDOP 1)':<30}{serial_time:>14.4f}{'1.00x':>9}"
        f"{'serial':>8}{0:>16,.0f}",
    ]
    for point in curve:
        lines.append(
            f"{'parallel (MAXDOP %d)' % point['dop']:<30}"
            f"{point['measured_s']:>14.4f}"
            f"{'%.2fx' % point['measured_speedup']:>9}"
            f"{point['mode'].split()[-1]:>8}"
            f"{point['bytes_shipped_per_row_returned']:>16,.0f}"
        )
    save_report("parallel.txt", "\n".join(lines))
    save_bench_json(
        "parallel",
        wall_time=curve[0]["measured_s"],
        rows=n_rows,
        extra={
            "query": BASE_SQL,
            "cpus": cpus,
            "serial_s": round(serial_time, 6),
            "curve": curve,
        },
    )

    # a real multi-core host must show a real speedup at DOP 2; a
    # single-core host (CI smoke containers) cannot, so skip there —
    # the CI assertion step applies the same cpus >= 2 gate to the JSON
    if cpus < 2:
        pytest.skip(f"only {cpus} cpu: measured speedup floor not enforced")
    assert curve[0]["measured_speedup"] >= 1.2
