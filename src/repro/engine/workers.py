"""The worker-pool runtime: real multi-core parallel execution.

Parallel plans run on real OS processes. One :class:`WorkerPool` is
owned per :class:`~repro.engine.database.Database`, forked lazily on the
first offloadable parallel plan and reused across queries — the
analogue of SQL Server's scheduler-bound worker threads, surfaced
through ``sys_dm_os_workers``.

A worker is a **fork of the coordinator**: it already holds every table,
index, decoded page, column segment and registered function as of the
fork, so a task carries no table data — only a small picklable
description of what to run on that snapshot (see
:mod:`.executor.exchange`). Staleness has one rule: the pool remembers,
per fork, the catalog/function-library versions and every table's
``data_cookie``, and re-forks its workers before dispatch when the
versions or the cookie of a table the tasks read have moved.

Transport is one duplex pipe per worker carrying explicitly pickled
blobs: a payload that cannot pickle fails *synchronously* on the
coordinator, a worker that dies is an EOF on its pipe at once, and the
byte counts of every task and result are recorded.

Set ``REPRO_NO_PARALLEL_WORKERS=1`` to disable the pool (every exchange
then runs the serial aggregate — what constrained CI sandboxes use so a
broken ``multiprocessing`` never hangs a test run). A platform without
the ``fork`` start method has no worker tier either.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import tracing
from .errors import EngineError

#: environment kill switch: force every exchange serial
DISABLE_ENV = "REPRO_NO_PARALLEL_WORKERS"
#: how long one run may wait on workers that are alive but silent
#: (seconds); a dead worker is noticed at once, not after this
TASK_TIMEOUT_S = 120.0
#: how long in-flight siblings of a failed task are waited for
_DRAIN_S = 5.0

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

class _WorkerLost(Exception):
    """The worker on ``conn`` died: its pipe reads EOF or refuses."""

    def __init__(self, conn):
        super().__init__()
        self.conn = conn


class WorkerPoolError(EngineError):
    """The pool cannot run tasks (fork failure, dead or silent worker,
    task crash, stale snapshot).

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
# Module-level functions only: tasks are dispatched by name, never by
# unpickling a code object.


def run_partial_aggregate(database, payload) -> Dict[str, Any]:
    """One exchange partition: run the plan fragment ``payload``
    describes on this worker's snapshot of ``database`` and return its
    partial aggregate states."""
    from .executor.exchange import run_fragment

    if database is None:
        raise WorkerPoolError("this pool's workers hold no database")
    return run_fragment(database, payload)


_TASK_KINDS = {
    "partial_agg": run_partial_aggregate,
}


def _worker_main(worker_id: int, conn, inherited, database) -> None:
    """Worker process loop: receive a pickled task, dispatch by kind,
    send back a pickled result. Exceptions are reported, never fatal to
    the loop; the coordinator closing the pipe ends it.

    ``inherited`` are the coordinator's ends of the pool's pipes, which
    the fork copied: closing them here is what lets a coordinator that
    dies be an EOF on every worker's pipe.

    When the coordinator is tracing (``want_spans``), the worker
    measures its own phases — queue wait, task unpickle, the handler's
    internal phases, result pickle — and ships them back as raw
    ``(name, wait_type, start, end)`` tuples *outside* the result blob
    (the result-ship span cannot be inside the bytes it times).
    ``perf_counter`` shares one monotonic clock across forked
    processes, so the coordinator grafts these endpoints unadjusted."""
    for other in inherited:
        other.close()
    while True:
        try:
            task_id, blob, enqueued, want_spans = pickle.loads(
                conn.recv_bytes()
            )
        except (EOFError, OSError):
            break
        started = time.perf_counter()
        spans: List[Tuple[str, Optional[str], float, float]] = []
        try:
            kind, payload = pickle.loads(blob)
            decoded = time.perf_counter()
            result = _TASK_KINDS[kind](database, payload)
            phases = result.pop("phases", [])
            ran = time.perf_counter()
            out = pickle.dumps(result, _PICKLE_PROTOCOL)
            shipped = time.perf_counter()
            if want_spans:
                spans.append(("queue wait", "WORKER_QUEUE", enqueued, started))
                spans.append(("unpickle task", "TRANSPORT", started, decoded))
                spans.extend(phases)
                spans.append(("pickle result", "TRANSPORT", ran, shipped))
            reply = (task_id, True, out, shipped - started, result["rows"], spans)
        except Exception as exc:  # noqa: BLE001 - reported to coordinator
            reply = (
                task_id,
                False,
                f"{type(exc).__name__}: {exc}",
                time.perf_counter() - started,
                0,
                spans,
            )
        try:
            conn.send_bytes(pickle.dumps(reply, _PICKLE_PROTOCOL))
        except (EOFError, OSError):
            break


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
class _Worker:
    """Coordinator-side handle and bookkeeping of one worker process
    (``sys_dm_os_workers``)."""

    worker_id: int
    process: Any
    conn: Any
    tasks_completed: int = 0
    rows_processed: int = 0
    busy_seconds: float = 0.0
    last_task_ms: float = 0.0

    @property
    def pid(self) -> int:
        return self.process.pid or 0


@dataclass
class RunStats:
    """Byte accounting of one :meth:`WorkerPool.run` call."""

    bytes_sent: int = 0
    bytes_received: int = 0


class WorkerPool:
    """A lazily forked, reusable pool of worker processes over one
    database (None: a pool whose tasks have no database to read).

    Workers are daemons: an exiting coordinator never leaks processes
    even when :meth:`close` is skipped.
    """

    def __init__(self, max_workers: int = 4, database=None):
        self.max_workers = max(int(max_workers), 1)
        self.database = database
        self._workers: List[_Worker] = []
        #: what the workers inherited: ``""`` -> catalog and function
        #: library versions, table name -> ``data_cookie`` at the fork
        self._forked: Dict[str, Any] = {}
        self._broken: Optional[str] = None
        self.runs = 0
        self.last_run: Optional[RunStats] = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def disabled_reason(self) -> Optional[str]:
        if os.environ.get(DISABLE_ENV):
            return f"{DISABLE_ENV} is set"
        if "fork" not in multiprocessing.get_all_start_methods():
            return "this platform cannot fork worker processes"
        return self._broken

    def available(self) -> bool:
        return self.disabled_reason is None

    @property
    def size(self) -> int:
        return len(self._workers)

    def _versions(self) -> Tuple[int, int]:
        catalog = self.database.catalog
        return (catalog.schema_version, catalog.functions.version)

    def _stale(self, reads: Dict[str, Any]) -> bool:
        """Has anything the tasks depend on moved since the fork?"""
        if not self._workers or self.database is None:
            return False
        forked = self._forked
        return forked[""] != self._versions() or any(
            forked.get(name.lower()) != cookie
            for name, cookie in reads.items()
        )

    def ensure(self, workers: int) -> bool:
        """Fork up to ``workers`` processes (capped at ``max_workers``);
        returns False — and records the reason — when forking fails."""
        if not self.available():
            return False
        wanted = min(max(workers, 1), self.max_workers)
        if len(self._workers) >= wanted:
            return True
        database = self.database
        if not self._workers and database is not None:
            self._forked = {
                table.schema.name.lower(): table.store.data_cookie()
                for table in database.catalog.tables()
            }
            self._forked[""] = self._versions()
        try:
            ctx = multiprocessing.get_context("fork")
            while len(self._workers) < wanted:
                taken = {worker.worker_id for worker in self._workers}
                worker_id = min(set(range(wanted)) - taken)
                conn, child_conn = ctx.Pipe()
                inherited = [w.conn for w in self._workers] + [conn]
                process = ctx.Process(
                    target=_worker_main,
                    args=(worker_id, child_conn, inherited, database),
                    daemon=True,
                    name=f"repro-worker-{worker_id}",
                )
                process.start()
                # only the worker holds its end now: its death is an EOF
                child_conn.close()
                self._workers.append(_Worker(worker_id, process, conn))
        except Exception as exc:  # noqa: BLE001 - permanent serial fallback
            self._broken = f"worker spawn failed: {exc}"
            self.close()
            return False
        return True

    def close(self) -> None:
        """Shut the pool down (Database.close, and before every
        re-fork). Idempotent."""
        for worker in list(self._workers):
            self._discard(worker)

    def _discard(self, worker: _Worker) -> None:
        """End one worker: its loop exits when its pipe closes; one that
        is busy or stuck is killed."""
        worker.conn.close()
        worker.process.join(timeout=0.5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        self._workers.remove(worker)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[Tuple[str, Any]],
        weights: Optional[Sequence[float]] = None,
        workers: Optional[int] = None,
        reads: Optional[Dict[str, Any]] = None,
    ) -> List[TaskResult]:
        """Run ``tasks`` (``(kind, payload)`` pairs) across the pool and
        return results in task order.

        ``reads`` maps each table the tasks read to the ``data_cookie``
        they expect; the workers are re-forked first when their
        snapshot is older. Tasks are LPT-assigned to workers by
        ``weights`` and a worker holds one task at a time. Raises
        :class:`WorkerPoolError` on any failure — fork, pickling, task
        crash, dead or silent worker — with the pool left usable: the
        caller falls back to serial execution and the next run forks
        what is missing.
        """
        if not tasks:
            return []
        if self._stale(reads or {}):
            self.close()
        wanted = workers or min(len(tasks), self.max_workers)
        if not self.ensure(wanted):
            raise WorkerPoolError(
                self.disabled_reason or "worker pool unavailable"
            )
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
        #: connection -> (worker, its task ids; the first is in flight)
        busy = {
            worker.conn: (worker, deque(task_ids))
            for worker, task_ids in zip(
                self._workers, lpt_assign(task_weights, len(self._workers))
            )
            if task_ids
        }
        results: List[Optional[TaskResult]] = [None] * len(tasks)
        deadline = time.perf_counter() + TASK_TIMEOUT_S
        try:
            for conn in busy:
                self._send(busy, conn, blobs, trace is not None)
            while busy:
                ready = wait(
                    list(busy), max(deadline - time.perf_counter(), 0.0)
                )
                if not ready:
                    self.close()
                    raise WorkerPoolError(
                        f"workers silent for {TASK_TIMEOUT_S:.0f}s"
                    )
                for conn in ready:
                    worker, queue = busy[conn]
                    try:
                        reply = pickle.loads(conn.recv_bytes())
                    except (EOFError, OSError):
                        raise _WorkerLost(conn) from None
                    task_id, ok, blob, elapsed, rows, spans = reply
                    queue.popleft()
                    if not ok:
                        # a task error is the plan's fault, not the
                        # pool's: the workers stay for the next query
                        # once their in-flight tasks have drained
                        del busy[conn]
                        self._drain(busy)
                        raise WorkerPoolError(f"worker task failed: {blob}")
                    results[task_id] = TaskResult(
                        value=pickle.loads(blob),
                        worker_id=worker.worker_id,
                        elapsed=elapsed,
                        rows=rows,
                        bytes_sent=len(blobs[task_id]),
                        bytes_received=len(blob),
                        spans=spans,
                    )
                    if trace is not None and spans:
                        tracing.graft_worker_spans(
                            trace,
                            f"task {task_id} (worker {worker.worker_id})",
                            worker.worker_id,
                            worker.pid,
                            spans,
                        )
                    worker.tasks_completed += 1
                    worker.rows_processed += rows
                    worker.busy_seconds += elapsed
                    worker.last_task_ms = elapsed * 1000.0
                    stats.bytes_received += len(blob)
                    if queue:
                        self._send(busy, conn, blobs, trace is not None)
                    else:
                        del busy[conn]
        except _WorkerLost as lost:
            # noticed at once (an EOF on its pipe), not after a timeout:
            # its siblings finish what they hold and stay, the dead
            # worker goes, and the next run forks its replacement
            worker, _queue = busy.pop(lost.conn)
            self._drain(busy)
            self._discard(worker)
            raise WorkerPoolError(
                f"worker {worker.worker_id} (pid {worker.pid}) died mid-task"
            ) from None
        self.runs += 1
        self.last_run = stats
        return [result for result in results if result is not None]

    @staticmethod
    def _send(busy, conn, blobs, want_spans: bool) -> None:
        """Hand the worker on ``conn`` the next task of its queue."""
        task_id = busy[conn][1][0]
        message = (task_id, blobs[task_id], time.perf_counter(), want_spans)
        try:
            conn.send_bytes(pickle.dumps(message, _PICKLE_PROTOCOL))
        except OSError:
            raise _WorkerLost(conn) from None

    def _drain(self, busy: Dict[Any, Any]) -> None:
        """Wait for the one task each worker in ``busy`` has in flight,
        so that its reply cannot bleed into the next run; a worker that
        is dead, or still silent after the window, is discarded."""
        deadline = time.perf_counter() + _DRAIN_S
        while busy:
            ready = wait(list(busy), max(deadline - time.perf_counter(), 0.0))
            if not ready:
                break
            for conn in ready:
                worker, _queue = busy.pop(conn)
                try:
                    conn.recv_bytes()
                except (EOFError, OSError):
                    self._discard(worker)
        for worker, _queue in busy.values():
            self._discard(worker)
        busy.clear()

    # -- observability -----------------------------------------------------------

    def stats_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for the ``sys_dm_os_workers`` DMV."""
        return [
            (
                worker.worker_id,
                worker.pid,
                "running" if worker.process.is_alive() else "dead",
                worker.tasks_completed,
                worker.rows_processed,
                round(worker.busy_seconds * 1000.0, 3),
                round(worker.last_task_ms, 3),
            )
            for worker in self._workers
        ]
