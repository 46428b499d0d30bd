"""End-to-end structured tracing and wait-stats accounting.

SQL Server's operability story rests on Extended Events and the wait
statistics DMVs: every statement can be traced across threads, and the
cumulative time the engine spent *waiting* (on queues, on transport, on
IO) is queryable as ``sys.dm_os_wait_stats``. This module is our
equivalent, sized to the engine we actually have:

- :class:`TraceSpan` / :class:`StatementTrace` — one trace per executed
  statement, holding a tree of wall-clock spans. Coordinator-side code
  opens spans with the :meth:`StatementTrace.span` context manager
  (safe for *blocking* sections; generator-interleaved operators are
  instead grafted structurally after execution, see
  :func:`record_operator_spans`);
- cross-process spans — worker processes return raw
  ``(name, wait_type, start, end)`` tuples for their queue-wait /
  unpickle / decode / aggregate / result-ship phases, and the
  coordinator grafts them into the active statement trace
  (``perf_counter`` is CLOCK_MONOTONIC on Linux, one time base for
  every process on the box, so no clock translation is needed);
- :class:`Tracer` — the per-database trace manager: a ring buffer of
  recent statement traces plus the database-lifetime :class:`WaitStats`
  rollup surfaced as ``sys_dm_os_wait_stats``; its retained spans are
  the ``sys_dm_exec_trace_spans`` rows.

:class:`TraceSpan` is the repo's only span model; the script-baseline
phase charts in :mod:`repro.baselines.trace` hold them too.

Wait types mirror where this engine actually blocks:

========== ==========================================================
WORKER_QUEUE  a task sat in a worker's pipe before being picked up
TRANSPORT     unpickling a task description worker-side / pickling
              partial aggregates back (the exchange's "wire")
AGG_MERGE     coordinator-side gather: merging partial aggregates
              back into one result
IO            a worker reading its slice of the table through the
              plan fragment's operators (seek or scan, then filters)
========== ==========================================================
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

#: the statement trace currently being recorded, if any (the engine is a
#: single-caller library; a thread-local would be overkill until the
#: serving tier lands)
_ACTIVE: Optional["StatementTrace"] = None


def current_trace() -> Optional["StatementTrace"]:
    """The statement trace being recorded right now, or None."""
    return _ACTIVE


def span(
    name: str,
    category: str = "",
    wait_type: Optional[str] = None,
    **attrs: Any,
) -> ContextManager[Optional["TraceSpan"]]:
    """Open a span on the active trace; a no-op when no statement is
    being traced (planning outside ``Database.execute``, a worker).

    Only safe around *blocking* code — the parent stack assumes the
    section runs to completion before its caller resumes."""
    trace = _ACTIVE
    if trace is None:
        return nullcontext()
    return trace.span(name, category=category, wait_type=wait_type, **attrs)


# ---------------------------------------------------------------------------
# spans and statement traces
# ---------------------------------------------------------------------------


@dataclass
class TraceSpan:
    """One wall-clock interval in a statement trace.

    ``start``/``end`` are raw ``time.perf_counter()`` readings (not
    normalised); ``pid`` is 0 for the coordinator and the OS pid for
    grafted worker spans; ``wait_type`` marks spans that count toward
    ``sys_dm_os_wait_stats``."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    category: str = ""
    wait_type: Optional[str] = None
    pid: int = 0
    worker: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)


class StatementTrace:
    """The span tree recorded for one executed statement."""

    def __init__(self, trace_id: int, text: str, kind: str):
        self.trace_id = trace_id
        self.text = text
        self.kind = kind
        start = time.perf_counter()
        self.root = TraceSpan(
            0, None, f"{kind}: {text}" if text else kind, start, start,
            "statement",
        )
        self.spans: List[TraceSpan] = [self.root]
        #: ids of the open spans, innermost last
        self._stack: List[int] = [0]

    # -- recording ---------------------------------------------------------------

    def add_raw(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        category: str = "",
        wait_type: Optional[str] = None,
        pid: int = 0,
        worker: Optional[int] = None,
        **attrs: Any,
    ) -> TraceSpan:
        """Graft a span with already-measured endpoints (worker phases,
        post-hoc operator spans); by default under the innermost open
        span."""
        span_obj = TraceSpan(
            len(self.spans),
            self._stack[-1] if parent_id is None else parent_id,
            name, start, end, category, wait_type, pid, worker, attrs,
        )
        self.spans.append(span_obj)
        return span_obj

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        wait_type: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[TraceSpan]:
        start = time.perf_counter()
        span_obj = self.add_raw(
            name, start, start, category=category, wait_type=wait_type,
            **attrs,
        )
        self._stack.append(span_obj.span_id)
        try:
            yield span_obj
        finally:
            span_obj.end = time.perf_counter()
            self._stack.pop()

    def finish(self) -> None:
        self.root.end = time.perf_counter()

    # -- reading -----------------------------------------------------------------

    def children_of(self, span_id: int) -> List[TraceSpan]:
        kids = [s for s in self.spans if s.parent_id == span_id]
        kids.sort(key=lambda s: s.start)
        return kids

    def wait_rollup(self) -> Dict[str, Tuple[int, float, float]]:
        """``wait_type -> (count, total_seconds, max_seconds)``."""
        rollup: Dict[str, Tuple[int, float, float]] = {}
        for s in self.spans:
            if s.wait_type is not None:
                count, total, peak = rollup.get(s.wait_type, (0, 0.0, 0.0))
                seconds = s.duration
                rollup[s.wait_type] = (
                    count + 1, total + seconds, max(peak, seconds)
                )
        return rollup

    def render(self) -> str:
        """Indented text tree (the ``repro-genomics trace`` output)."""
        origin = self.root.start
        lines: List[str] = []

        def walk(span_obj: TraceSpan, depth: int) -> None:
            offset = (span_obj.start - origin) * 1000.0
            label = span_obj.name
            details = [f"{span_obj.duration * 1000.0:.3f}ms"]
            if span_obj.wait_type:
                details.append(f"wait={span_obj.wait_type}")
            if span_obj.pid:
                details.append(f"pid={span_obj.pid}")
            for key, value in span_obj.attrs.items():
                details.append(f"{key}={value}")
            lines.append(
                "  " * depth
                + f"{label}  [{', '.join(details)}] @+{offset:.3f}ms"
            )
            for kid in self.children_of(span_obj.span_id):
                walk(kid, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# operator spans (structural grafting after EXPLAIN ANALYZE)
# ---------------------------------------------------------------------------


def record_operator_spans(
    trace: StatementTrace, op: Any, parent_id: Optional[int] = None
) -> None:
    """Graft per-operator spans from an executed, timing-armed plan.

    Operators are generators that interleave arbitrarily, so their spans
    cannot be opened on the live parent stack; instead each operator
    records its first-pull and exhaustion timestamps
    (:class:`~repro.engine.executor.base.PhysicalOperator`) and this
    walks the plan *structurally*, parenting each operator span under
    its parent operator's span."""
    if parent_id is None:
        parent_id = trace.root.span_id
    start = getattr(op, "_span_start", None)
    end = getattr(op, "_span_end", None)
    if start is not None and end is not None:
        label = op.explain_node()[0].split("\n")[0]
        span_obj = trace.add_raw(
            label,
            start,
            end,
            parent_id=parent_id,
            category="operator",
            rows=op.rows_out,
            loops=op.loops,
        )
        parent_id = span_obj.span_id
    for child in op.children():
        record_operator_spans(trace, child, parent_id)


def graft_worker_spans(
    trace: StatementTrace,
    task_label: str,
    worker_id: int,
    pid: int,
    raw_spans: Sequence[Tuple[str, Optional[str], float, float]],
    parent_id: Optional[int] = None,
) -> Optional[TraceSpan]:
    """Attach one worker task's phase spans under a container span.

    ``raw_spans`` is the worker-returned ``(name, wait_type, start,
    end)`` sequence; the container spans their full extent."""
    if not raw_spans:
        return None
    start = min(s[2] for s in raw_spans)
    end = max(s[3] for s in raw_spans)
    container = trace.add_raw(
        task_label,
        start,
        end,
        parent_id=parent_id,
        category="worker",
        pid=pid,
        worker=worker_id,
    )
    for name, wait_type, span_start, span_end in raw_spans:
        trace.add_raw(
            name,
            span_start,
            span_end,
            parent_id=container.span_id,
            category="worker",
            wait_type=wait_type,
            pid=pid,
            worker=worker_id,
        )
    return container


# ---------------------------------------------------------------------------
# wait statistics (sys_dm_os_wait_stats)
# ---------------------------------------------------------------------------


class WaitStats:
    """Cumulative engine-lifetime wait accounting by wait type."""

    def __init__(self):
        self._waits: Dict[str, List[float]] = {}

    def record(self, wait_type: str, seconds: float, count: int = 1) -> None:
        acc = self._waits.setdefault(wait_type, [0, 0.0, 0.0])
        acc[0] += count
        acc[1] += seconds
        acc[2] = max(acc[2], seconds)

    def absorb(self, trace: StatementTrace) -> None:
        for wait_type, (count, total, peak) in trace.wait_rollup().items():
            acc = self._waits.setdefault(wait_type, [0, 0.0, 0.0])
            acc[0] += count
            acc[1] += total
            acc[2] = max(acc[2], peak)

    def clear(self) -> None:
        self._waits.clear()

    def rows(self) -> List[Tuple[str, int, float, float]]:
        """``(wait_type, waiting_tasks_count, wait_time_ms, max_wait_time_ms)``."""
        return [
            (
                wait_type,
                int(count),
                round(total * 1000.0, 3),
                round(peak * 1000.0, 3),
            )
            for wait_type, (count, total, peak) in sorted(self._waits.items())
        ]


# ---------------------------------------------------------------------------
# the per-database tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Owns statement traces for one database.

    Every statement is traced; the last :attr:`RETAIN` completed traces
    are kept, and their wait spans roll up into :attr:`wait_stats`."""

    RETAIN = 32

    def __init__(self):
        self.traces: List[StatementTrace] = []
        self.wait_stats = WaitStats()
        self._next_trace_id = 1
        #: the traces open statements interrupted (None: no statement),
        #: innermost last; each is active again when its inner one ends
        self._interrupted: List[Optional[StatementTrace]] = []

    @property
    def last(self) -> Optional[StatementTrace]:
        return self.traces[-1] if self.traces else None

    def begin(self, text: str, kind: str) -> StatementTrace:
        """Open one statement's trace and make it the active one;
        :meth:`end` closes it. A statement begun inside another (a
        stored procedure executing SQL) gets its own trace, and the
        outer one resumes when it ends."""
        global _ACTIVE
        self._interrupted.append(_ACTIVE)
        trace = _ACTIVE = StatementTrace(self._next_trace_id, text, kind)
        self._next_trace_id += 1
        return trace

    def end(self, trace: StatementTrace) -> None:
        """Close what :meth:`begin` returned: restore the interrupted
        trace, roll its waits up, and retain it."""
        global _ACTIVE
        _ACTIVE = self._interrupted.pop()
        trace.finish()
        self.wait_stats.absorb(trace)
        traces = self.traces
        traces.append(trace)
        if len(traces) > self.RETAIN:
            del traces[0]

    # -- DMV row sources ---------------------------------------------------------

    def span_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for ``sys_dm_exec_trace_spans`` (retained traces)."""
        rows = []
        for trace in self.traces:
            origin = trace.root.start
            for s in trace.spans:
                rows.append(
                    (
                        trace.trace_id,
                        s.span_id,
                        -1 if s.parent_id is None else s.parent_id,
                        s.name,
                        s.category,
                        s.wait_type or "",
                        round((s.start - origin) * 1000.0, 3),
                        round(s.duration * 1000.0, 3),
                        s.pid,
                        -1 if s.worker is None else s.worker,
                    )
                )
        return rows
