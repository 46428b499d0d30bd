"""Parallel query execution: the exchange operator.

SQL Server parallelises a hash aggregate by giving every worker thread a
share of the input, running a *partial* aggregate per worker, and
gathering the results (Gather Streams) — the Figure 9 plan of the paper.
This module reproduces that plan shape over **real OS processes**: the
database owns a :class:`~repro.engine.workers.WorkerPool` whose workers
are forks of the coordinator, and the exchange operator ships each one a
small description of the plan below it (:mod:`.exchange`): worker *i* of
*n* seeks or scans slice *i* of the child's access path on the pages it
inherited, filters it, aggregates it, and returns only its partial
states. The coordinator merges them in range order, which reproduces
the serial hash aggregate's first-occurrence group order byte for byte.

When the workers cannot run it — no pool attached, ``dop=1``, the pool
is disabled, the plan is not one :mod:`.exchange` can describe, or the
pool fails mid-run (a dead worker, a stale snapshot, a task error) —
the operator executes the ordinary serial
:class:`~.operators.HashAggregate` over its child and records
``mode = "serial"`` plus the reason. A parallel plan never surfaces a
pool failure as a query error, and CI sandboxes with a broken
``multiprocessing`` keep passing. :func:`.exchange.choose_exchange_tier`
takes the workers / serial decision, for this operator and for the
planner's EXPLAIN note alike.

:class:`ParallelStats` carries only measurements: phase times and byte
counts from a worker-tier run, ``measured_parallel_wall`` for its
end-to-end wall clock, and nothing but the mode and reason for a serial
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import tracing
from ..errors import ExecutionError
from ..workers import WorkerPool, WorkerPoolError
from .aggregates import AggregateSpec, GroupTable
from .base import PhysicalOperator
from .exchange import (
    MODE_SCAN,
    MODE_SERIAL,
    build_fragment,
    choose_exchange_tier,
    fragment_chain,
)
from .operators import HashAggregate
from .vector import batches_from_rows

RowFn = Callable[[Sequence[Any]], Any]

@dataclass
class ParallelStats:
    """Phase timings captured by one exchange execution (seconds)."""

    #: describing the plan for the workers (they do the scanning)
    scan_time: float = 0.0
    #: always 0: nothing is repartitioned (kept for the benchmark's
    #: ``exchange.partition_s``)
    partition_time: float = 0.0
    partition_agg_times: List[float] = field(default_factory=list)
    gather_time: float = 0.0
    rows_in: int = 0
    rows_out: int = 0
    #: which execution tier ran (``MODE_*`` constants)
    mode: str = MODE_SERIAL
    #: why a worker tier was skipped or abandoned ("" when none was)
    fallback_reason: str = ""
    #: real wall clock of the whole compute when workers ran (0 otherwise)
    measured_parallel_wall: float = 0.0
    #: per-worker ``(worker_id, rows, seconds)`` when workers ran
    worker_breakdown: List[Tuple[int, int, float]] = field(
        default_factory=list
    )
    #: pickled task payload / result bytes (transport cost, measured)
    bytes_shipped: int = 0
    bytes_returned: int = 0


def _record_run(pool: WorkerPool, stats: ParallelStats, results) -> None:
    """Fold one pool run's accounting into the stats block."""
    stats.partition_agg_times = [r.elapsed for r in results]
    run = pool.last_run
    if run is not None:
        stats.bytes_shipped += run.bytes_sent
        stats.bytes_returned += run.bytes_received
    per_worker: Dict[int, List[float]] = {}
    for result in results:
        acc = per_worker.setdefault(result.worker_id, [0, 0.0])
        acc[0] += result.rows
        acc[1] += result.elapsed
    stats.worker_breakdown = [
        (worker_id, int(rows), seconds)
        for worker_id, (rows, seconds) in sorted(per_worker.items())
    ]


class ParallelHashAggregate(PhysicalOperator):
    """Per-worker slice → filter → partial Hash Aggregate, then Gather
    Streams and an in-order merge of the partial states.

    Output is identical to :class:`HashAggregate` — including group
    order — whichever tier executes; the difference is the partitioned
    execution and the :class:`ParallelStats` it records. Aggregates must
    be parallel-safe (mergeable partial states). Pass the database's
    ``pool`` to enable worker-process execution; without one the
    operator runs the serial aggregate. ``group_exprs`` are the group
    keys' ASTs, which is how computed keys reach a worker.

    The constructor refuses a degree of parallelism below 1 and an
    aggregate that is not parallel-safe. The tier it takes at runtime
    is :func:`.exchange.choose_exchange_tier`'s verdict, whose note the
    planner prints in EXPLAIN. This module is one of the fork-safety
    analyser's default targets.
    """

    blocking = True

    def __init__(
        self,
        child: PhysicalOperator,
        group_fns: Sequence[RowFn],
        group_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        agg_names: Sequence[str],
        dop: int = 4,
        group_indexes: Optional[Sequence[int]] = None,
        pool: Optional[WorkerPool] = None,
        group_exprs: Sequence[Any] = (),
    ):
        super().__init__()
        if dop < 1:
            raise ExecutionError("degree of parallelism must be >= 1")
        for spec in aggregates:
            if not spec.parallel_safe:
                raise ExecutionError(
                    f"aggregate {spec.name!r} is not parallel-safe"
                )
        self.child = child
        self.group_fns = list(group_fns)
        self.aggregates = list(aggregates)
        self.columns = list(group_names) + list(agg_names)
        self.dop = dop
        self.group_indexes = tuple(group_indexes) if group_indexes else None
        self.group_exprs = tuple(group_exprs)
        self.pool = pool
        self.stats = ParallelStats()

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        rows = cost.group_rows(self.child, self.group_exprs)
        return rows, (
            cost.exchange_agg_cost(first, self.dop)
            + rows * cost.output_row_cost
        )

    def execute(self):
        yield from batches_from_rows(self._compute())

    # -- tier dispatch -----------------------------------------------------------

    def tier(self):
        """This exchange's :class:`~.exchange.ExchangeTier` verdict."""
        return choose_exchange_tier(
            self.pool, self.child, self.aggregates, self.group_indexes,
            self.dop, self.group_exprs,
        )

    def _compute(self) -> List:
        verdict = self.tier()
        reason = verdict.reason
        if verdict.tier == MODE_SCAN:
            try:
                return self._compute_on_workers(verdict.ship_specs)
            except WorkerPoolError as exc:
                reason = str(exc)
        return self._compute_serial(reason)

    def _compute_serial(self, reason: str) -> List:
        """No worker tier runs: execute the serial :class:`HashAggregate`
        over the child."""
        serial = HashAggregate(
            self.child,
            self.group_fns,
            self.columns[: len(self.group_fns)],
            self.aggregates,
            self.columns[len(self.group_fns):],
            group_indexes=self.group_indexes,
        )
        output = list(serial)
        self.stats = ParallelStats(
            mode=MODE_SERIAL,
            fallback_reason=reason,
            rows_out=len(output),
        )
        return output

    def _compute_on_workers(self, ship: List[AggregateSpec]) -> List:
        """Give each worker one slice of the child's access path; merge
        what they return. The child operators never run here."""
        wall_start = time.perf_counter()
        pool, dop = self.pool, self.dop
        chain = fragment_chain(self.child)
        table = chain[0].table
        with tracing.span(
            "describe plan fragment", category="exchange", dop=dop
        ):
            fragment = build_fragment(
                chain, ship, self.group_indexes, self.group_exprs
            )
            tasks = [
                ("partial_agg", fragment._replace(part=(i, dop)))
                for i in range(dop)
            ]
        stats = ParallelStats(
            mode=MODE_SCAN, scan_time=time.perf_counter() - wall_start
        )
        with tracing.span(
            "parallel execute", category="exchange", tasks=dop, dop=dop
        ):
            results = pool.run(
                tasks, workers=dop, reads={fragment.table: fragment.cookie}
            )
        _record_run(pool, stats, results)

        # gather: merge the partial aggregates slice-by-slice *in range
        # order* — an insertion-ordered dict of the keys then replays
        # the serial hash aggregate's first-occurrence group order.
        start = time.perf_counter()
        values = [result.value for result in results]
        with tracing.span(
            "gather merge", category="exchange", wait_type="AGG_MERGE"
        ):
            first, *rest = values
            groups = GroupTable(first["accumulators"], first["keys"])
            for value in rest:
                groups.merge(value["keys"], value["accumulators"])
            output = groups.rows(bare_keys=len(self.group_fns) == 1)
        stats.gather_time = time.perf_counter() - start

        # the workers ran the child on the coordinator's behalf: every
        # node reports the rows it produced there, in one loop, and the
        # table's counters advance by what the workers read
        for position, node in enumerate(chain):
            node.loops += 1
            node.rows_out += sum(
                value["nodes"][position][0] for value in values
            )
            node.batches_out += sum(
                value["nodes"][position][1] for value in values
            )
        for value in values:
            table.absorb_io(value["io"])
            read, skipped = value["segments"]
            if read or skipped:
                chain[0].segments_read += read
                chain[0].segments_skipped += skipped
        stats.rows_in = sum(value["rows"] for value in values)
        stats.rows_out = len(output)
        stats.measured_parallel_wall = time.perf_counter() - wall_start
        self.stats = stats
        return output

    # -- plumbing ----------------------------------------------------------------

    def children(self):
        return (self.child,)

    def analyze_detail(self):
        """EXPLAIN ANALYZE annotation of one exchange run: what the
        workers measured when a worker tier ran, and why when none did."""
        stats = self.stats
        if stats.measured_parallel_wall <= 0 and not stats.fallback_reason:
            return None
        parts = []
        if stats.measured_parallel_wall > 0:
            task_ms = sum(stats.partition_agg_times) * 1000.0
            parts += [
                f"workers={len(stats.partition_agg_times)}",
                f"worker time={task_ms:.3f}ms",
                f"measured wall={stats.measured_parallel_wall * 1000.0:.3f}ms",
            ]
        parts.append(f"mode={stats.mode}")
        for worker_id, rows, seconds in stats.worker_breakdown:
            parts.append(f"w{worker_id}={rows}r/{seconds * 1000.0:.3f}ms")
        if stats.fallback_reason:
            parts.append(f"serial fallback: {stats.fallback_reason}")
        return ", ".join(parts)

    def explain_node(self):
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        label = (
            f"Parallelism (Gather Streams, merge partial aggregates)\n"
            f"  -> Hash Match (Partial Aggregate: {aggs}) "
            f"[DOP={self.dop}, one slice of the input per worker]"
        )
        return label, (self.child,)
