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
  rollup surfaced as ``sys_dm_os_wait_stats``;
- Chrome trace-event export — :func:`chrome_trace_payload` renders
  statement traces as ``chrome://tracing`` / Perfetto JSON. The
  script-baseline phase charts in :mod:`repro.baselines.trace` hold
  :class:`TraceSpan` objects too and go through the same
  :func:`chrome_complete_event` / :func:`write_chrome_trace` writer.

:class:`TraceSpan` is the repo's only span model.

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

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: the statement trace currently being recorded, if any (the engine is a
#: single-caller library; a thread-local would be overkill until the
#: serving tier lands)
_ACTIVE: Optional["StatementTrace"] = None


def current_trace() -> Optional["StatementTrace"]:
    """The statement trace being recorded right now, or None."""
    return _ACTIVE


@contextmanager
def span(
    name: str,
    category: str = "",
    wait_type: Optional[str] = None,
    **attrs: Any,
) -> Iterator[Optional["TraceSpan"]]:
    """Open a span on the active trace; a no-op when tracing is off.

    Only safe around *blocking* code — the parent stack assumes the
    section runs to completion before its caller resumes."""
    trace = _ACTIVE
    if trace is None:
        yield None
        return
    with trace.span(name, category=category, wait_type=wait_type, **attrs) as s:
        yield s


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
        #: wall-clock time the statement started (for display only;
        #: span math uses perf_counter)
        self.started_at = time.time()
        self.spans: List[TraceSpan] = []
        self._next_id = 0
        root = self._new_span(
            name=f"{kind}: {text}" if text else kind,
            parent_id=None,
            start=time.perf_counter(),
            category="statement",
        )
        self.root = root
        self._stack: List[int] = [root.span_id]

    # -- recording ---------------------------------------------------------------

    def _new_span(self, name, parent_id, start, **kwargs) -> TraceSpan:
        span_obj = TraceSpan(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            start=start,
            end=start,
            **kwargs,
        )
        self._next_id += 1
        self.spans.append(span_obj)
        return span_obj

    @property
    def current_parent_id(self) -> int:
        return self._stack[-1]

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
        post-hoc operator spans)."""
        if parent_id is None:
            parent_id = self.current_parent_id
        span_obj = self._new_span(
            name,
            parent_id,
            start,
            category=category,
            wait_type=wait_type,
            pid=pid,
            worker=worker,
            attrs=dict(attrs),
        )
        span_obj.end = end
        return span_obj

    @contextmanager
    def span(
        self,
        name: str,
        category: str = "",
        wait_type: Optional[str] = None,
        **attrs: Any,
    ) -> Iterator[TraceSpan]:
        span_obj = self._new_span(
            name,
            self.current_parent_id,
            time.perf_counter(),
            category=category,
            wait_type=wait_type,
            attrs=dict(attrs),
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

    @property
    def duration(self) -> float:
        return self.root.duration

    def find(self, name_substring: str) -> List[TraceSpan]:
        return [s for s in self.spans if name_substring in s.name]

    def children_of(self, span_id: int) -> List[TraceSpan]:
        kids = [s for s in self.spans if s.parent_id == span_id]
        kids.sort(key=lambda s: s.start)
        return kids

    def wait_rollup(self) -> Dict[str, Tuple[int, float, float]]:
        """``wait_type -> (count, total_seconds, max_seconds)``."""
        rollup: Dict[str, List[float]] = {}
        for s in self.spans:
            if s.wait_type is None:
                continue
            acc = rollup.setdefault(s.wait_type, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += s.duration
            acc[2] = max(acc[2], s.duration)
        return {k: (int(c), t, m) for k, (c, t, m) in rollup.items()}

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

    ``enabled`` gates all recording (the observability benchmark's
    on/off knob); the last :attr:`RETAIN` completed traces are kept,
    and their wait spans roll up into :attr:`wait_stats`."""

    RETAIN = 32

    def __init__(self):
        self.enabled = True
        self.traces: List[StatementTrace] = []
        self.wait_stats = WaitStats()
        self._next_trace_id = 1

    @property
    def last(self) -> Optional[StatementTrace]:
        return self.traces[-1] if self.traces else None

    @contextmanager
    def statement(self, text: str, kind: str) -> Iterator[Optional[StatementTrace]]:
        """Record one statement's trace (None yielded when disabled).

        Nested statements (stored procedures executing SQL) each get
        their own trace; the outer statement's trace resumes on exit."""
        global _ACTIVE
        if not self.enabled:
            yield None
            return
        trace = StatementTrace(self._next_trace_id, text, kind)
        self._next_trace_id += 1
        previous = _ACTIVE
        _ACTIVE = trace
        try:
            yield trace
        finally:
            _ACTIVE = previous
            trace.finish()
            self.wait_stats.absorb(trace)
            self.traces.append(trace)
            if len(self.traces) > self.RETAIN:
                del self.traces[: -self.RETAIN]

    def clear(self) -> None:
        self.traces.clear()

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


# ---------------------------------------------------------------------------
# Chrome trace-event export (the one writer, shared with baselines)
# ---------------------------------------------------------------------------


def chrome_complete_event(
    name: str,
    ts_us: float,
    dur_us: float,
    pid: int = 0,
    tid: int = 0,
    category: str = "",
    args: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One ``ph="X"`` (complete) trace event."""
    event: Dict[str, Any] = {
        "name": name,
        "ph": "X",
        "ts": round(ts_us, 3),
        "dur": round(max(dur_us, 0.0), 3),
        "pid": pid,
        "tid": tid,
    }
    if category:
        event["cat"] = category
    if args:
        event["args"] = args
    return event


def _process_name_event(pid: int, name: str) -> Dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }


def trace_chrome_events(
    trace: StatementTrace, origin: Optional[float] = None
) -> List[Dict[str, Any]]:
    """A statement trace as complete events (µs relative to ``origin``,
    default the trace's own root start). Coordinator spans land on
    pid 0 / tid = trace id; worker spans on their own pid."""
    if origin is None:
        origin = trace.root.start
    events = []
    for s in trace.spans:
        args: Dict[str, Any] = dict(s.attrs)
        if s.wait_type:
            args["wait_type"] = s.wait_type
        if s.parent_id is not None:
            args["parent_span"] = s.parent_id
        events.append(
            chrome_complete_event(
                s.name,
                ts_us=(s.start - origin) * 1e6,
                dur_us=s.duration * 1e6,
                pid=s.pid,
                tid=s.worker if s.worker is not None else trace.trace_id,
                category=s.category or "span",
                args=args,
            )
        )
    return events


def chrome_trace_payload(
    traces: Sequence[StatementTrace],
) -> Dict[str, Any]:
    """Retained statement traces as one Chrome trace-event JSON object
    (load in ``chrome://tracing`` or https://ui.perfetto.dev)."""
    events: List[Dict[str, Any]] = []
    pids = {0: "coordinator"}
    origin = min((t.root.start for t in traces), default=0.0)
    for trace in traces:
        events.extend(trace_chrome_events(trace, origin=origin))
        for s in trace.spans:
            if s.pid and s.pid not in pids:
                pids[s.pid] = (
                    f"worker-{s.worker}" if s.worker is not None else "worker"
                )
    metadata = [_process_name_event(pid, name) for pid, name in pids.items()]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(path: Any, payload: Dict[str, Any]) -> None:
    """Serialise a trace payload to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
