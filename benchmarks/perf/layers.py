"""Per-layer probes: each function times one layer of the program from
outside, through its public calls, or reads its public counters.

Nothing here changes the program; a later change may move spans inside.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional, Sequence

from harness import Recorder, perf_counter

from repro.engine.executor.parallel import ParallelStats
from repro.engine.executor.vector import collect_rows
from repro.engine.metrics import Counters
from repro.engine.optimizer.logical import lower_select
from repro.engine.optimizer.rules import apply_rewrites
from repro.engine.planner import Planner
from repro.engine.sql.lexer import tokenize
from repro.engine.sql.parser import parse_sql
from repro.engine.verify.plan_sanitizer import sanitize_plan


def staged_query(db, sql: str, rec: Recorder) -> List[tuple]:
    """One SELECT through the stages ``Database.execute`` runs, a span
    around each, without the bookkeeping ``execute`` adds around them
    (metrics registry, statement trace, query store): the difference to
    ``db.query`` is ``telemetry.residual_us``.

    ``plancache.fetch`` on a miss compiles (optimizer and planner run
    inside it) and inserts; the compile probes split it.
    """
    with rec.span("plancache.fetch_text"):
        outcome = db.plan_cache.fetch_text(sql)
    if outcome is None:
        with rec.span("sql.parse"):
            (stmt,) = parse_sql(sql)
        with rec.span("plancache.fetch"):
            outcome = db.plan_cache.fetch(stmt)
    with rec.span("executor.collect_rows"):
        rows = collect_rows(outcome.plan)
        if rec.enabled:
            stats = exchange_stats(outcome.plan)
            if stats is not None and stats.measured_parallel_wall:
                rec.add_child("exchange.parallel", stats.measured_parallel_wall)
    return rows


def exchange_stats(plan) -> Optional[ParallelStats]:
    """The ``ParallelStats`` of the plan's exchange operator, if any."""
    for _path, op in plan.walk():
        stats = getattr(op, "stats", None)
        if isinstance(stats, ParallelStats):
            return stats
    return None


def compile_probes(db, statements: Sequence[str], rounds: int = 3) -> Dict[str, float]:
    """Median microseconds per statement of each compile stage, over
    ``statements`` x ``rounds``. ``sql.parse_us`` includes tokenizing and
    ``planner.plan_us`` includes the optimizer, as the calls do."""
    samples: Dict[str, List[float]] = {
        "sql.tokenize_us": [],
        "sql.parse_us": [],
        "optimizer.rewrite_us": [],
        "planner.plan_us": [],
        "verify.sanitize_us": [],
    }
    planner = Planner(db)
    for _ in range(rounds):
        for sql in statements:
            t0 = perf_counter()
            tokenize(sql)
            t1 = perf_counter()
            (stmt,) = parse_sql(sql)
            t2 = perf_counter()
            apply_rewrites(lower_select(stmt, db.catalog), db.catalog)
            t3 = perf_counter()
            plan = planner.plan_select(stmt)
            t4 = perf_counter()
            sanitize_plan(plan, db)
            t5 = perf_counter()
            for name, seconds in zip(samples, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                samples[name].append(seconds * 1e6)
    return {name: statistics.median(values) for name, values in samples.items()}


def plan_probe(db, sql: str, rounds: int = 5):
    """Compile ``sql`` once and run the plan ``rounds`` times.

    Returns (plan, median ``collect_rows`` ms, largest q-error over the
    plan's nodes, rows examined per row returned), the last two from the
    first execution. A node's q-error is max(est/actual, actual/est)
    with both clamped to at least one row; rows examined are the
    leaves' output.
    """
    plan = db.plan(sql)
    times = []
    q_error, examined_ratio = 1.0, 0.0
    for round_no in range(rounds):
        start = perf_counter()
        rows = collect_rows(plan)
        times.append((perf_counter() - start) * 1e3)
        if round_no:
            continue
        examined = 0
        for _path, op in plan.walk():
            if not op.children():
                examined += op.rows_out
            if op.est_rows is not None:
                est, actual = max(op.est_rows, 1), max(op.rows_out, 1)
                q_error = max(q_error, est / actual, actual / est)
        examined_ratio = examined / max(len(rows), 1)
    return plan, statistics.median(times), q_error, examined_ratio


def scan_rows_per_s(table, rounds: int = 3) -> float:
    """Rows per second of ``Table.scan_batches()`` drained, median."""
    rates = []
    for _ in range(rounds):
        start = perf_counter()
        rows = sum(len(batch) for batch in table.scan_batches())
        rates.append(rows / (perf_counter() - start))
    return statistics.median(rates)


def seek_us(table, keys: Iterable[tuple]) -> float:
    """Median microseconds of ``Table.get`` over ``keys``."""
    times = []
    for key in keys:
        start = perf_counter()
        table.get(key)
        times.append((perf_counter() - start) * 1e6)
    return statistics.median(times)


def io_snapshot(db) -> Counters:
    """Database-wide IO counters from the public reports: every table's
    access method and indexes, plus the FILESTREAM store."""
    totals = Counters()
    for table in db.catalog.tables():
        totals.merge(table.io_report())
    totals.merge(db.filestream.io, prefix="filestream_")
    return totals


def stored_bytes(db) -> int:
    """Bytes the engine holds: pages, segments and FILESTREAM blobs."""
    return sum(
        entry["data_bytes"] + entry["filestream_bytes"]
        for entry in db.storage_report()
    )
