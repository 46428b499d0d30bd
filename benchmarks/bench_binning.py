"""Experiments F7F8 + S532 — Figures 7/8 and Section 5.3.2:
sequential script vs declarative Query 1 for unique-read binning.

The paper: a 26-line Perl script took 10 minutes over a 500 MB lane;
SQL Query 1 finished in 44 s (13.6x) because SQL Server parallelised the
scan and aggregation over all four cores while the script used one.
Figure 7 shows the script's read→process profile at ~25 % CPU; Figure 8
shows the query keeping all cores busy.

Reports:
- ``benchmarks/results/binning_s532.txt`` — the runtime comparison;
- ``benchmarks/results/figure7_script_trace.txt`` — the script's phase
  trace (Figure 7);
- ``benchmarks/results/figure8_sql_trace.txt`` — the parallel plan's
  phase profile (Figure 8).

Everything reported is measured on this host: the script, Query 1 at
``MAXDOP 1``, and Query 1 on the worker pool at the machine's core count
(at least 2, so a one-core host still exercises the exchange — its
workers then time-slice one CPU). Figure 8 is drawn from the exchange
operator's measured phase times with the busy-core count each phase
really had: the coordinator alone slices storage, partitions and
gathers; only the pool run keeps several cores busy. The absolute
script-vs-SQL gap compresses compared to the paper because both stacks
run in the same interpreter here, whereas the paper compared
interpreted Perl against a native-code engine; at this scale the
measured parallel plan does not beat the serial one (EXPERIMENTS.md).
"""

import os
import time

import pytest

from bench_common import find_operator
from repro.baselines.perl_binning import run_binning_script
from repro.baselines.trace import ResourceTrace
from repro.core import queries
from repro.engine.executor import ParallelHashAggregate


@pytest.fixture(scope="module")
def lane_file(tmp_path_factory, dge_reads):
    from repro.genomics.fastq import write_fastq

    path = tmp_path_factory.mktemp("binning") / "855_s_1.fastq"
    write_fastq(dge_reads, path)
    return path


def run_query1_with_stats(db, dop):
    """Execute Query 1 and return (rows, exchange stats, wall seconds)."""
    plan = db.plan(queries.query1_binning_sql(1, 1, 1, maxdop=dop))
    start = time.perf_counter()
    rows = list(plan)
    elapsed = time.perf_counter() - start
    exchange = find_operator(plan, ParallelHashAggregate)
    return rows, exchange.stats if exchange else None, elapsed


def figure8_trace(stats, cores, cpus):
    """The parallel plan's phase profile from one measured exchange run.

    Phases the coordinator runs alone are drawn with one busy core. The
    pool run spans whatever of the measured wall the coordinator phases
    do not, and keeps ``worker seconds / span`` cores busy — never more
    than the workers that ran or the CPUs this host has."""
    trace = ResourceTrace(label=f"SQL Query 1 ({stats.mode})", cores=cores)
    coordinator = stats.scan_time + stats.partition_time + stats.gather_time
    pool_span = max(stats.measured_parallel_wall - coordinator, 0.0)
    worker_seconds = sum(sec for _w, _rows, sec in stats.worker_breakdown)
    busy = min(
        worker_seconds / pool_span if pool_span > 0 else 0.0,
        len(stats.worker_breakdown),
        cpus,
    )
    now = 0.0
    for name, duration, busy_cores, detail in (
        ("scan", stats.scan_time, 1, "coordinator slices / scans storage"),
        ("repartition", stats.partition_time, 1, "hash on group key"),
        ("aggregate", pool_span, busy,
         f"{len(stats.worker_breakdown)} workers: ship, decode, aggregate"),
        ("gather", stats.gather_time, 1, "merge partial states"),
    ):
        trace.add_phase(name, now, now + duration, busy_cores, detail)
        now += duration
    return trace


def test_f7f8_s532_report(lane_file, dge_warehouse, dge_reads, save_report):
    cpus = os.cpu_count() or 1
    dop = max(cpus, 2)
    db = dge_warehouse.db
    # one untimed execution of each plan: the pool spawn, the compile and
    # every first-touch cost belong to the fixture (the paper measures
    # "with a warm buffer pool")
    run_query1_with_stats(db, dop)
    run_query1_with_stats(db, 1)

    script_ranked, script_trace = run_binning_script(lane_file, cores=4)
    serial_rows, _none, serial_s = run_query1_with_stats(db, 1)
    parallel_rows, stats, parallel_s = run_query1_with_stats(db, dop)

    # Figure 7: the script's sequential trace
    save_report("figure7_script_trace.txt", script_trace.render())

    # Figure 8: the parallel plan's profile, from the exchange
    # operator's measured phase timings and per-worker breakdown
    sql_trace = figure8_trace(stats, cores=4, cpus=cpus)
    save_report("figure8_sql_trace.txt", sql_trace.render())

    shipped_per_row = stats.bytes_shipped / max(len(parallel_rows), 1)
    serial_label = "SQL Query 1, MAXDOP 1"
    parallel_label = f"SQL Query 1, MAXDOP {dop} ({stats.mode}, {cpus} cpu)"
    lines = [
        "Section 5.3.2 (reproduced): unique-read binning, "
        f"{len(dge_reads):,} reads, {len(serial_rows):,} unique tags",
        "=" * 72,
        f"{'Approach (all measured on this host)':<46}{'seconds':>12}",
        "-" * 72,
        f"{'Perl-style sequential script (1 core)':<46}"
        f"{script_trace.total_time:>12.3f}",
        f"{serial_label:<46}{serial_s:>12.3f}",
        f"{parallel_label:<46}{parallel_s:>12.3f}",
        "-" * 72,
        f"script / SQL(MAXDOP 1) ratio: "
        f"{script_trace.total_time / serial_s:.2f}x",
        f"SQL(MAXDOP 1) / SQL(MAXDOP {dop}) ratio: "
        f"{serial_s / parallel_s:.2f}x "
        f"({shipped_per_row:,.0f} bytes shipped per row returned)",
        f"paper: 600s script vs 44s SQL = 13.6x "
        "(native engine vs interpreted Perl; see EXPERIMENTS.md)",
        f"script mean CPU: {script_trace.mean_utilization() * 100:.0f}% of 4 cores "
        f"(paper Figure 7: ~25%)",
    ]
    save_report("binning_s532.txt", "\n".join(lines))

    # what the measurements support: all three approaches produce the
    # same binning, the parallel plan byte-for-byte the serial one
    script_map = {seq: count for _r, count, seq in script_ranked}
    assert script_map and script_map == {
        seq: count for _r, count, seq in serial_rows
    }
    assert parallel_rows == serial_rows
    # a worker tier really ran
    assert stats.measured_parallel_wall > 0 and not stats.fallback_reason
    # and the script is stuck near one core
    assert script_trace.mean_utilization() <= 0.3
