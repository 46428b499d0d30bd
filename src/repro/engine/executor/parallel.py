"""Parallel query execution: the exchange operator family.

SQL Server parallelises a hash aggregate by partitioning rows across
worker threads (Repartition Streams), running a *partial* aggregate per
worker, and gathering the results (Gather Streams) — the Figure 9 plan of
the paper. This module reproduces that plan shape over **real OS
processes**: the database owns a :class:`~repro.engine.workers.WorkerPool`
and the exchange operator ships partition sub-plans to it.

Two worker tiers, tried in order:

1. **Partitioned scan** — the child is a bare table scan whose storage
   engine splits itself into disjoint picklable slices (heap page ranges,
   columnstore segment ranges). Workers decode *and* aggregate their
   slice; the coordinator merges partial states in range order, which
   reproduces the serial hash aggregate's first-occurrence group order.
2. **Repartitioned rows** — the coordinator scans the child, hash-
   partitions rows on the group key, and ships each partition. A group
   never spans workers, so merge is concatenation and accumulation order
   matches serial execution bit for bit (this is the tier float SUM/AVG
   plans take — see :mod:`.exchange` for the reassociation argument).

When neither can run — no pool attached, ``dop=1``, the pool is
disabled, the plan is not shippable, or the pool fails mid-run (spawn
error, pickle error, timeout) — the operator executes the ordinary
serial :class:`~.operators.HashAggregate` over its child and records
``mode = "serial"`` plus the reason. A parallel plan never surfaces a
pool failure as a query error, and CI sandboxes with a broken
``multiprocessing`` keep passing. :func:`.exchange.choose_exchange_tier`
takes the scan / rows / serial decision, for this operator and for the
planner's EXPLAIN note alike.

:class:`ParallelStats` carries only measurements: phase times and byte
counts from a worker-tier run, ``measured_parallel_wall`` for its
end-to-end wall clock, and nothing but the mode and reason for a serial
run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import tracing
from ..errors import ExecutionError
from ..workers import WorkerPool, WorkerPoolError
from .aggregates import AggregateSpec
from .base import MaterializedResult, PhysicalOperator
from .exchange import (
    MODE_ROWS,
    MODE_SCAN,
    MODE_SERIAL,
    build_scan_tasks,
    choose_exchange_tier,
)
from .operators import ColumnStoreScan, HashAggregate
from .vector import RowBatch, batches_from_rows

RowFn = Callable[[Sequence[Any]], Any]

@dataclass
class ParallelStats:
    """Phase timings captured by one exchange execution (seconds)."""

    scan_time: float = 0.0
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

    @property
    def serial_wall(self) -> float:
        """Single-core cost of a worker-tier run: the sum of every phase.
        The per-task times come from in-worker clocks, so this estimates
        what one core doing all the work would have paid (0 for a serial
        run, which times no phases)."""
        return (
            self.scan_time
            + self.partition_time
            + sum(self.partition_agg_times)
            + self.gather_time
        )

    @property
    def measured_speedup(self) -> float:
        """Real speedup: serial cost over the measured parallel wall
        clock. 1.0 until a worker tier has actually run."""
        measured = self.measured_parallel_wall
        serial = self.serial_wall
        if measured <= 0 or serial <= 0:
            return 1.0
        return serial / measured


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
    """Repartition Streams → per-worker Hash Aggregate → Gather Streams.

    Output is identical to :class:`HashAggregate` — including group
    order — whichever tier executes; the difference is the partitioned
    execution and the :class:`ParallelStats` it records. Aggregates must
    be parallel-safe (mergeable partial states). Pass the database's
    ``pool`` to enable worker-process execution; without one the
    operator runs the serial aggregate.

    The tier this operator takes at runtime
    (:func:`.exchange.choose_exchange_tier`) is proven statically by
    the plan sanitizer before execution — rules
    ``PLAN-EXCHANGE-MERGE`` / ``-DOP`` / ``-FLOAT-SUM`` / ``-SILENT``
    in :mod:`repro.engine.verify.plan_sanitizer` — and this module is
    one of the fork-safety analyser's default targets.
    """

    blocking = True
    batch_capable = True

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
        self.pool = pool
        self.stats = ParallelStats()

    def execute(self):
        return iter(self._compute())

    def execute_batch(self):
        yield from batches_from_rows(self._compute())

    # -- tier dispatch -----------------------------------------------------------

    def _compute(self) -> List:
        stats = self.stats = ParallelStats()
        verdict = choose_exchange_tier(
            self.pool, self.child, self.aggregates, self.group_indexes,
            self.dop,
        )
        reason = verdict.reason
        scanned: Optional[List[RowBatch]] = None
        if verdict.tier != MODE_SERIAL:
            try:
                if verdict.tier == MODE_SCAN:
                    result = self._compute_offload_scan(
                        stats, verdict.ship_specs
                    )
                    if result is not None:
                        return result
                    stats.fallback_reason = "table declined to partition"
                scanned = self._scan_child(stats)
                return self._compute_offload_rows(
                    stats, verdict.ship_specs, scanned
                )
            except WorkerPoolError as exc:
                reason = str(exc)
        return self._compute_serial(reason, scanned)

    def _compute_serial(
        self, reason: str, scanned: Optional[List[RowBatch]]
    ) -> List:
        """No worker tier runs: execute the serial :class:`HashAggregate`
        in this operator's execution mode. ``scanned`` is the child's
        output when the rows tier drained it before the pool failed — the
        child must not run (and be counted) a second time."""
        child = self.child
        if scanned is not None:
            child = MaterializedResult(
                child.columns, [row for batch in scanned for row in batch]
            )
        serial = HashAggregate(
            child,
            self.group_fns,
            self.columns[: len(self.group_fns)],
            self.aggregates,
            self.columns[len(self.group_fns):],
            group_indexes=self.group_indexes,
        )
        if serial.batch_capable:
            serial.execution_mode = self.execution_mode
        output = list(serial)
        self.stats = ParallelStats(
            mode=MODE_SERIAL,
            fallback_reason=reason,
            rows_out=len(output),
        )
        return output

    # -- tier 1: partitioned scan -------------------------------------------------

    def _compute_offload_scan(
        self, stats: ParallelStats, ship: List[AggregateSpec]
    ) -> Optional[List]:
        """Range-partition the child scan's storage across workers; None
        when the store declines (nothing stored, engine opt-out)."""
        wall_start = time.perf_counter()
        start = wall_start
        with tracing.span(
            "slice storage into partitions", category="exchange",
            wait_type="IO",
        ):
            built = build_scan_tasks(
                self.child, ship, self.group_indexes, self.dop
            )
        if built is None:
            return None
        tasks, weights = built
        stats.scan_time = time.perf_counter() - start
        stats.mode = MODE_SCAN
        if not tasks:
            # empty table: nothing to ship, nothing to aggregate
            stats.measured_parallel_wall = time.perf_counter() - wall_start
            self._bump_child_counters(0)
            return []
        with tracing.span(
            "parallel execute (scan tier)", category="exchange",
            tasks=len(tasks), dop=self.dop,
        ):
            results = self.pool.run(tasks, weights, workers=self.dop)
        _record_run(self.pool, stats, results)

        # gather: merge partial states partition-by-partition *in range
        # order* — an insertion-ordered dict then replays the serial
        # hash aggregate's first-occurrence group order exactly.
        start = time.perf_counter()
        with tracing.span(
            "gather merge", category="exchange", wait_type="AGG_MERGE"
        ):
            merged: Dict[Any, List[Any]] = {}
            rows_in = 0
            worker_io: Dict[str, int] = {}
            for result in results:
                value = result.value
                rows_in += value["rows"]
                for name, amount in value["io"].items():
                    worker_io[name] = worker_io.get(name, 0) + amount
                for key, states in value["groups"].items():
                    mine = merged.get(key)
                    if mine is None:
                        merged[key] = states
                    else:
                        for state, other in zip(mine, states):
                            state.merge(other)
            output = self._finish_groups(merged.items())
        stats.gather_time = time.perf_counter() - start
        stats.rows_in = rows_in
        stats.rows_out = len(output)
        stats.measured_parallel_wall = time.perf_counter() - wall_start
        self._bump_child_counters(rows_in, worker_io)
        return output

    def _finish_groups(self, groups) -> List:
        """Output rows from ``(key, merged states)`` pairs, in order."""
        single = len(self.group_fns) == 1
        return [
            ((key,) if single else key)
            + tuple(state.result() for state in states)
            for key, states in groups
        ]

    def _bump_child_counters(
        self, rows: int, worker_io: Optional[Dict[str, int]] = None
    ) -> None:
        """The scan tier never drives the child operator, but EXPLAIN
        ANALYZE must still report the scan's actual rows exactly once —
        the workers *did* read them."""
        child = self.child
        child.loops += 1
        child.loop_rows.append(rows)
        child.rows_out += rows
        if worker_io and isinstance(child, ColumnStoreScan):
            child.segments_read += worker_io.get("segments_read", 0)
            child.segments_skipped += worker_io.get("segments_skipped", 0)
            store_io = child.table.store.io
            for name, amount in worker_io.items():
                store_io.incr(name, amount)

    # -- tier 2: repartitioned rows -----------------------------------------------

    def _scan_child(self, stats: ParallelStats) -> List[RowBatch]:
        """Drain the child once, on the coordinator."""
        start = time.perf_counter()
        with tracing.span(
            "scan child", category="exchange", wait_type="IO"
        ):
            batches = list(self.child.iter_batches())
        stats.scan_time = time.perf_counter() - start
        stats.rows_in = sum(len(batch) for batch in batches)
        return batches

    def _compute_offload_rows(
        self,
        stats: ParallelStats,
        ship: List[AggregateSpec],
        batches: List[RowBatch],
    ) -> List:
        """Hash-partition the scanned rows; workers aggregate."""
        wall_start = time.perf_counter()
        dop = self.dop
        # this tier only runs with plain-column group keys
        key_of = itemgetter(*self.group_indexes)

        # hash-partition, recording global first-occurrence key order so
        # the gather can emit groups in the serial aggregate's order
        start = time.perf_counter()
        with tracing.span(
            "hash partition rows", category="exchange", dop=dop
        ):
            partitions: List[List] = [[] for _ in range(dop)]
            order: Dict[Any, None] = {}
            setorder = order.setdefault
            for batch in batches:
                for row in batch:
                    key = key_of(row)
                    partitions[hash(key) % dop].append(row)
                    setorder(key)
        stats.partition_time = time.perf_counter() - start

        tasks = []
        weights = []
        for partition in partitions:
            if not partition:
                continue
            tasks.append(
                (
                    "partial_agg",
                    {
                        "source": ("rows", {"rows": partition}),
                        "specs": ship,
                        "group_indexes": self.group_indexes,
                    },
                )
            )
            weights.append(float(len(partition)))
        del partitions

        merged: Dict[Any, List[Any]] = {}
        if tasks:
            with tracing.span(
                "parallel execute (rows tier)", category="exchange",
                tasks=len(tasks), dop=dop,
            ):
                results = self.pool.run(tasks, weights, workers=dop)
            _record_run(self.pool, stats, results)
            # hash partitioning keeps keys disjoint across partitions
            for result in results:
                merged.update(result.value["groups"])
        stats.mode = MODE_ROWS

        start = time.perf_counter()
        with tracing.span(
            "gather merge", category="exchange", wait_type="AGG_MERGE"
        ):
            output = self._finish_groups(
                (key, merged[key]) for key in order
            )
        stats.gather_time = time.perf_counter() - start
        stats.rows_out = len(output)
        # the whole compute, the coordinator's scan included
        stats.measured_parallel_wall = (
            stats.scan_time + time.perf_counter() - wall_start
        )
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
            f"Parallelism (Gather Streams)\n"
            f"  -> Hash Match (Partial Aggregate: {aggs}) [DOP={self.dop}]\n"
            f"  -> Parallelism (Repartition Streams, hash on group key)"
        )
        return label, (self.child,)
