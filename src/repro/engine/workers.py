"""The worker-pool runtime: real multi-core parallel execution.

Parallel plans run on real OS processes. One :class:`WorkerPool` is
owned per :class:`~repro.engine.database.Database`, spawned lazily on
the first offloadable parallel plan and reused across queries — the
analogue of SQL Server's scheduler-bound worker threads, surfaced
through ``sys_dm_os_workers``.

Transport is explicit pickling: the coordinator serialises every task
payload itself (so a payload that cannot pickle fails *synchronously*
and the plan falls back to serial, instead of wedging a queue feeder
thread), and workers serialise results the same way. The byte counts
are recorded per task, which is where the cost model's measured
transport constants come from.

Everything a worker touches must be picklable and importable from a
child process: raw page records (bytes), encoded column segments,
:class:`~repro.engine.executor.aggregates.AggregateSpec` objects whose
argument accessors have been rebuilt as ``operator.itemgetter`` (the
planner's compiled closures never ship). Partial aggregation states are
returned whole and merged on the coordinator — the property that lets
UDAs parallelise "just like built-in aggregates".

Set ``REPRO_NO_PARALLEL_WORKERS=1`` to disable the pool (every exchange
then runs the serial aggregate — what constrained CI sandboxes use so a
broken ``multiprocessing`` never hangs a test run).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import tracing
from .errors import EngineError

#: environment kill switch: force every exchange serial
DISABLE_ENV = "REPRO_NO_PARALLEL_WORKERS"
#: per-run collection timeout (seconds); generous, never infinite
TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"
_DEFAULT_TIMEOUT = 120.0

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class WorkerPoolError(EngineError):
    """The pool cannot run tasks (spawn failure, timeout, task crash).

    Callers catch this and fall back to serial execution — a parallel
    plan must never surface a pool failure as a query error."""


def lpt_assign(weights: Sequence[float], workers: int) -> List[List[int]]:
    """Longest-processing-time-first task assignment.

    Returns one list of task indexes per worker: the heaviest remaining
    task always goes to the least-loaded worker. This is the pool's
    actual task-to-worker mapping.
    """
    if workers <= 0:
        raise WorkerPoolError("workers must be positive")
    loads = [0.0] * workers
    assignment: List[List[int]] = [[] for _ in range(workers)]
    order = sorted(range(len(weights)), key=lambda i: weights[i], reverse=True)
    for index in order:
        target = loads.index(min(loads))
        loads[target] += weights[index]
        assignment[target].append(index)
    return assignment


# ---------------------------------------------------------------------------
# worker-side task execution
# ---------------------------------------------------------------------------
#
# Module-level functions only: tasks are dispatched by name so the child
# process resolves them by importing this module, never by unpickling a
# code object.


# Worker-local decoded-slice cache — the worker-side analogue of a warm
# buffer pool. The coordinator ships raw page/segment bytes every query;
# a worker that already decoded an identical slice (same store identity,
# same data version, same partition coordinates, same projection) reuses
# the decoded rows instead of paying the decode again, exactly as the
# coordinator's serial scan reuses its per-page row caches. Any row
# mutation bumps the store's data version, so stale entries can never be
# served; column slices with predicates decode predicate-dependently and
# are not cached.
_SLICE_CACHE: "OrderedDict[tuple, Tuple[list, Dict[str, int]]]" = OrderedDict()
_SLICE_CACHE_LIMIT = 32

#: module-level mutable state that is *intentionally* per-process: the
#: fork-safety analyzer (verify/parallel_safety.py) rejects any other
#: module-level container mutated from function scope, so divergence
#: across the fork boundary is always a declared decision, never an
#: accident.
WORKER_LOCAL_STATE = frozenset({"_SLICE_CACHE"})


def _slice_cache_key(kind: str, payload: Dict[str, Any]) -> Optional[tuple]:
    cookie = payload.get("cache_key")
    if cookie is None:
        return None
    if kind == "column" and payload.get("predicates"):
        return None
    positions = payload.get("out_positions")
    if positions is not None:
        positions = tuple(positions)
    return (kind, cookie, positions)


def _slice_cache_put(key: tuple, rows: list, io: Dict[str, int]) -> None:
    _SLICE_CACHE[key] = (rows, io)
    _SLICE_CACHE.move_to_end(key)
    while len(_SLICE_CACHE) > _SLICE_CACHE_LIMIT:
        _SLICE_CACHE.popitem(last=False)


def _decode_heap_source(source: Dict[str, Any]) -> List[Tuple[Any, ...]]:
    """Materialise rows from shipped heap pages (records are raw
    ROW-format bytes; the worker rebuilds the serializer from the shipped
    schema and pays the decode — the coordinator never touches them)."""
    from .storage.serializer import RowSerializer

    serializer = RowSerializer(
        source["schema"], row_compression=source["row_compression"]
    )
    deserialize = serializer.deserialize
    join = serializer.join_compressed
    rows: List[Tuple[Any, ...]] = []
    for records, tombstones, compressor, ncols in source["pages"]:
        if compressor is None:
            for slot, record in enumerate(records):
                if not tombstones[slot]:
                    rows.append(deserialize(record))
        else:
            for slot, record in enumerate(records):
                if tombstones[slot]:
                    continue
                nulls, fields = compressor.decode_record(record, ncols)
                rows.append(deserialize(join(nulls, fields)))
    positions = source.get("out_positions")
    if positions is not None:
        rows = [tuple(row[i] for i in positions) for row in rows]
    return rows


def _decode_column_source(
    source: Dict[str, Any],
) -> Tuple[List[Tuple[Any, ...]], Dict[str, int]]:
    """Materialise rows from shipped column segments: zone-map pruning,
    encoded selection, and late materialization all run worker-side, on
    this worker's disjoint segment range."""
    from .storage.columnstore import RowSegment

    predicates = source.get("predicates") or []
    out_positions = source["out_positions"]
    rows: List[Tuple[Any, ...]] = []
    io = {"segments_read": 0, "segments_skipped": 0}
    for columns, nrows, deleted in source["segments"]:
        segment = RowSegment.__new__(RowSegment)
        segment.columns = tuple(columns)
        segment.rows = nrows
        segment.deleted = set(deleted)
        segment._cache = {}
        if not all(
            segment.columns[p.col_index].zone_admits(p) for p in predicates
        ):
            io["segments_skipped"] += 1
            continue
        io["segments_read"] += 1
        selection = segment.selection(predicates)
        if selection is not None and not selection:
            continue
        if not out_positions:
            count = segment.rows if selection is None else len(selection)
            rows.extend([()] * count)
            continue
        vectors = [segment.gather(i, selection) for i in out_positions]
        rows.extend(zip(*vectors))
    tail = source.get("tail")
    if tail:
        io["segments_read"] += 1
        if predicates:
            matchers = [(p.col_index, p.matcher()) for p in predicates]
            tail = [
                row
                for row in tail
                if all(match(row[i]) for i, match in matchers)
            ]
        for row in tail:
            rows.append(tuple(row[i] for i in out_positions))
    return rows, io


def _source_rows(
    source: Tuple[str, Dict[str, Any]],
) -> Tuple[List[Tuple[Any, ...]], Dict[str, int]]:
    kind, payload = source
    if kind == "rows":
        return payload["rows"], {}
    key = _slice_cache_key(kind, payload)
    if key is not None:
        hit = _SLICE_CACHE.get(key)
        if hit is not None:
            _SLICE_CACHE.move_to_end(key)
            rows, io = hit
            # warm reads replay the same IO accounting a warm serial
            # scan reports (pages_read counts logical reads, not misses)
            return rows, dict(io)
    if kind == "heap":
        rows, io = _decode_heap_source(payload), {}
    elif kind == "column":
        rows, io = _decode_column_source(payload)
    else:
        raise WorkerPoolError(f"unknown task source {kind!r}")
    if key is not None:
        _slice_cache_put(key, rows, io)
        return rows, dict(io)
    return rows, io


def run_partial_aggregate(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One exchange partition: scan the shipped slice, aggregate into
    per-group partial states, return the states for coordinator merge.

    The groups dict preserves first-occurrence order within this
    partition; the coordinator merges partitions in range order, which
    reproduces the serial hash aggregate's group order exactly."""
    decode_started = time.perf_counter()
    rows, io = _source_rows(payload["source"])
    agg_started = time.perf_counter()
    specs = payload["specs"]
    group_indexes = payload["group_indexes"]
    key_of = itemgetter(*group_indexes)
    # bucket rows by key first (one dict probe + append per row), then
    # bulk-accumulate each bucket column-wise: the per-row interpreter
    # loop of state.add() collapses into C-level map/sum/min/max calls.
    # Bucket order is first-occurrence order; value order within a
    # bucket is input order, so float accumulation matches serial
    # execution bit for bit.
    buckets: Dict[Any, List[Any]] = {}
    for row in rows:
        key = key_of(row)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [row]
        else:
            bucket.append(row)
    groups: Dict[Any, List[Any]] = {}
    for key, bucket in buckets.items():
        states = []
        for spec in specs:
            state = spec.new_state()
            if spec.uda_class is not None:
                for row in bucket:
                    state.add(row)
            elif spec.star:
                state.add_values(bucket)
            else:
                state.add_values(list(map(spec.arg_fns[0], bucket)))
            states.append(state)
        groups[key] = states
    done = time.perf_counter()
    return {
        "groups": groups,
        "rows": len(rows),
        "io": io,
        "phases": [
            ("decode slice", "DECODE", decode_started, agg_started),
            ("partial aggregate", None, agg_started, done),
        ],
    }


_TASK_KINDS = {
    "partial_agg": run_partial_aggregate,
}


def _worker_main(worker_id: int, task_queue, result_queue) -> None:
    """Worker process loop: unpickle task, dispatch by kind, return a
    pickled result. Exceptions are reported, never fatal to the loop.

    When the coordinator is tracing (``want_spans``), the worker
    measures its own phases — queue wait, task unpickle, the handler's
    internal phases (decode/aggregate), result pickle — and ships them
    back as raw ``(name, wait_type, start, end)`` tuples *outside* the
    result blob (the result-ship span cannot be inside the bytes it
    times). ``perf_counter`` shares one monotonic clock across forked
    processes, so the coordinator grafts these endpoints unadjusted."""
    while True:
        item = task_queue.get()
        if item is None:
            break
        task_id, blob, enqueued, want_spans = item
        started = time.perf_counter()
        spans: List[Tuple[str, Optional[str], float, float]] = []
        try:
            kind, payload = pickle.loads(blob)
            decoded = time.perf_counter()
            result = _TASK_KINDS[kind](payload)
            phases = result.pop("phases", [])
            ran = time.perf_counter()
            out = pickle.dumps(result, _PICKLE_PROTOCOL)
            shipped = time.perf_counter()
            elapsed = shipped - started
            if want_spans:
                spans.append(("queue wait", "WORKER_QUEUE", enqueued, started))
                spans.append(("unpickle task", "TRANSPORT", started, decoded))
                spans.extend(phases)
                spans.append(("pickle result", "TRANSPORT", ran, shipped))
            result_queue.put(
                (task_id, worker_id, True, out, elapsed, result["rows"], spans)
            )
        except Exception as exc:  # noqa: BLE001 - reported to coordinator
            elapsed = time.perf_counter() - started
            result_queue.put(
                (
                    task_id,
                    worker_id,
                    False,
                    f"{type(exc).__name__}: {exc}",
                    elapsed,
                    0,
                    spans,
                )
            )


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


@dataclass
class TaskResult:
    """One task's result as the coordinator sees it."""

    value: Any
    worker_id: int
    elapsed: float
    rows: int
    bytes_sent: int
    bytes_received: int
    spans: List[Tuple[str, Optional[str], float, float]] = field(
        default_factory=list
    )


@dataclass
class _WorkerState:
    """Coordinator-side per-worker bookkeeping (sys_dm_os_workers)."""

    worker_id: int
    pid: int
    tasks_completed: int = 0
    rows_processed: int = 0
    busy_seconds: float = 0.0
    last_task_ms: float = 0.0


@dataclass
class RunStats:
    """Aggregates for one :meth:`WorkerPool.run` call."""

    wall: float = 0.0
    bytes_sent: int = 0
    bytes_received: int = 0
    task_times: List[float] = field(default_factory=list)


class WorkerPool:
    """A lazily spawned, reusable pool of worker processes.

    ``fork`` start method when the platform offers it (workers inherit
    the interpreter state, so test-defined UDA classes resolve), else
    ``spawn``. Workers are daemons: an exiting coordinator never leaks
    processes even when :meth:`close` is skipped.
    """

    def __init__(self, max_workers: int = 4):
        self.max_workers = max(int(max_workers), 1)
        self._ctx = None
        self._workers: List[Any] = []
        self._task_queues: List[Any] = []
        self._result_queue = None
        self._states: List[_WorkerState] = []
        self._broken: Optional[str] = None
        self.spawn_seconds = 0.0
        self.runs = 0
        self.last_run: Optional[RunStats] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def disabled_reason(self) -> Optional[str]:
        if os.environ.get(DISABLE_ENV):
            return f"{DISABLE_ENV} is set"
        return self._broken

    def available(self) -> bool:
        return self.disabled_reason is None

    @property
    def size(self) -> int:
        return len(self._workers)

    def _context(self):
        if self._ctx is None:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:
                self._ctx = multiprocessing.get_context("spawn")
        return self._ctx

    def ensure(self, workers: int) -> bool:
        """Spawn up to ``workers`` processes (capped at ``max_workers``);
        returns False — and records the reason — when spawning fails."""
        if not self.available():
            return False
        wanted = min(max(workers, 1), self.max_workers)
        if len(self._workers) >= wanted:
            return True
        started = time.perf_counter()
        try:
            ctx = self._context()
            if self._result_queue is None:
                self._result_queue = ctx.Queue()
            while len(self._workers) < wanted:
                worker_id = len(self._workers)
                task_queue = ctx.Queue()
                process = ctx.Process(
                    target=_worker_main,
                    args=(worker_id, task_queue, self._result_queue),
                    daemon=True,
                    name=f"repro-worker-{worker_id}",
                )
                process.start()
                self._workers.append(process)
                self._task_queues.append(task_queue)
                self._states.append(_WorkerState(worker_id, process.pid or 0))
        except Exception as exc:  # noqa: BLE001 - permanent serial fallback
            self._broken = f"worker spawn failed: {exc}"
            self._terminate()
            return False
        self.spawn_seconds += time.perf_counter() - started
        return True

    def close(self) -> None:
        """Shut the pool down (Database.close). Idempotent."""
        for queue in self._task_queues:
            try:
                queue.put(None)
            except Exception:  # noqa: BLE001
                pass
        for process in self._workers:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
        self._workers = []
        self._task_queues = []
        self._result_queue = None
        self._states = []

    def _terminate(self) -> None:
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        self._workers = []
        self._task_queues = []
        self._result_queue = None
        self._states = []

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Tuple[str, Dict[str, Any]]],
        weights: Optional[Sequence[float]] = None,
        workers: Optional[int] = None,
    ) -> List[TaskResult]:
        """Run ``tasks`` (``(kind, payload)`` pairs) across the pool and
        return results in task order.

        Tasks are LPT-assigned to workers by ``weights`` (estimated
        rows). Raises :class:`WorkerPoolError` on any failure — spawn,
        pickling, task crash, or timeout — after marking the pool
        broken where the failure is permanent; the caller falls back to
        serial execution.
        """
        if not tasks:
            return []
        wanted = workers or min(len(tasks), self.max_workers)
        if not self.ensure(wanted):
            raise WorkerPoolError(
                self.disabled_reason or "worker pool unavailable"
            )
        active = len(self._workers)
        try:
            blobs = [
                pickle.dumps(task, _PICKLE_PROTOCOL) for task in tasks
            ]
        except Exception as exc:  # noqa: BLE001 - plan not shippable
            raise WorkerPoolError(f"task payload not picklable: {exc}")
        task_weights = (
            list(weights)
            if weights is not None
            else [float(len(blob)) for blob in blobs]
        )
        stats = RunStats(bytes_sent=sum(len(b) for b in blobs))
        trace = tracing.current_trace()
        want_spans = trace is not None
        started = time.perf_counter()
        assignment = lpt_assign(task_weights, active)
        for worker_id, task_ids in enumerate(assignment):
            for task_id in task_ids:
                self._task_queues[worker_id].put(
                    (task_id, blobs[task_id], time.perf_counter(), want_spans)
                )
        timeout = float(os.environ.get(TIMEOUT_ENV, _DEFAULT_TIMEOUT))
        deadline = started + timeout
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        for _ in range(len(tasks)):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self._broken = f"worker timeout after {timeout:.0f}s"
                self._terminate()
                raise WorkerPoolError(self._broken)
            try:
                task_id, worker_id, ok, blob, elapsed, rows, spans = (
                    self._result_queue.get(timeout=remaining)
                )
            except Exception:  # noqa: BLE001 - queue.Empty or pipe error
                self._broken = f"worker timeout after {timeout:.0f}s"
                self._terminate()
                raise WorkerPoolError(self._broken)
            if not ok:
                # a task error is the plan's fault, not the pool's:
                # stay alive for the next query, fail this one to serial
                # (after draining in-flight siblings so a later run's
                # result queue starts clean)
                done = sum(1 for r in results if r is not None) + 1
                self._drain(len(tasks) - done)
                raise WorkerPoolError(f"worker task failed: {blob}")
            value = pickle.loads(blob)
            results[task_id] = TaskResult(
                value=value,
                worker_id=worker_id,
                elapsed=elapsed,
                rows=rows,
                bytes_sent=len(blobs[task_id]),
                bytes_received=len(blob),
                spans=spans,
            )
            state = self._states[worker_id]
            if trace is not None and spans:
                tracing.graft_worker_spans(
                    trace,
                    f"task {task_id} (worker {worker_id})",
                    worker_id,
                    state.pid,
                    spans,
                )
            state.tasks_completed += 1
            state.rows_processed += rows
            state.busy_seconds += elapsed
            state.last_task_ms = elapsed * 1000.0
            stats.bytes_received += len(blob)
            stats.task_times.append(elapsed)
        stats.wall = time.perf_counter() - started
        self.runs += 1
        self.last_run = stats
        return [result for result in results if result is not None]

    def _drain(self, expected: int) -> None:
        """Consume ``expected`` in-flight results after a task failure so
        they cannot bleed into the next run. Gives up quietly: a worker
        stuck past the drain window is caught by the next run's timeout."""
        deadline = time.perf_counter() + 5.0
        for _ in range(max(expected, 0)):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                self._result_queue.get(timeout=remaining)
            except Exception:  # noqa: BLE001
                break

    # -- observability -----------------------------------------------------------

    def stats_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for the ``sys_dm_os_workers`` DMV."""
        rows = []
        for state in self._states:
            process = self._workers[state.worker_id]
            rows.append(
                (
                    state.worker_id,
                    state.pid,
                    "running" if process.is_alive() else "dead",
                    state.tasks_completed,
                    state.rows_processed,
                    round(state.busy_seconds * 1000.0, 3),
                    round(state.last_task_ms, 3),
                )
            )
        return rows
