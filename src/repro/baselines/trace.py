"""Phase-level resource traces (the Figures 7 and 8 instrumentation).

The paper contrasts the resource profile of the sequential Perl script
(read everything → process on one core → write; ~25 % CPU on a 4-core
box) with the parallel SQL plan (all cores busy). We record the same
story as *phase traces*: each phase has a wall-clock span and a CPU
utilisation (cores busy ÷ cores available), and the renderer draws the
text equivalent of the paper's perfmon screenshots.

A :class:`Phase` *is* an engine :class:`~repro.engine.tracing.TraceSpan`
(the repo's one span model) with its utilisation and note in ``attrs``;
a :class:`ResourceTrace` is an ordered list of them sharing one time
origin. The Figure 8 chart is the same trace shape filled from an
exchange operator's measured phase times, with the busy-core count each
phase really had (``benchmarks/bench_binning.py``).

Chrome trace-event export goes through the engine's one trace writer
(:func:`~repro.engine.tracing.chrome_complete_event`), so a script
baseline timeline and an engine statement trace load side by side in
``chrome://tracing``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.tracing import (
    TraceSpan,
    _process_name_event,
    chrome_complete_event,
)


class Phase(TraceSpan):
    """One trace phase: a span, in seconds from the trace's origin,
    carrying CPU utilisation and a note."""

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        utilization: float,
        detail: str = "",
    ):
        super().__init__(
            span_id=0,
            parent_id=None,
            name=name,
            start=start,
            end=end,
            category="phase",
            attrs={"utilization": utilization, "detail": detail},
        )

    @property
    def utilization(self) -> float:
        return self.attrs["utilization"]

    @property
    def detail(self) -> str:
        return self.attrs["detail"]


class ResourceTrace:
    """An ordered list of phases for one program run.

    The first recorded phase pins the origin; later phases are stored
    relative to it, so traces render from t=0 regardless of when the
    process started."""

    def __init__(
        self,
        label: str,
        cores: int = 4,
        phases: Optional[Sequence[Phase]] = None,
    ):
        self.label = label
        self.cores = cores
        self.phases: List[Phase] = list(phases or ())
        self._origin: Optional[float] = None

    @contextmanager
    def record(self, name: str, busy_cores: float = 1.0, detail: str = ""):
        """Context manager timing one phase::

            with trace.record("process", busy_cores=1):
                ...
        """
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_phase(
                name, start, time.perf_counter(), busy_cores, detail
            )

    def add_phase(
        self,
        name: str,
        start: float,
        end: float,
        busy_cores: float,
        detail: str = "",
    ) -> None:
        if self._origin is None:
            self._origin = start
        self.phases.append(
            Phase(
                name,
                start - self._origin,
                end - self._origin,
                min(busy_cores / self.cores, 1.0),
                detail,
            )
        )

    @property
    def total_time(self) -> float:
        return max((phase.end for phase in self.phases), default=0.0)

    def mean_utilization(self) -> float:
        total = self.total_time
        if total <= 0:
            return 0.0
        busy = sum(p.duration * p.utilization for p in self.phases)
        return busy / total

    # -- rendering ---------------------------------------------------------------------

    def render(self, width: int = 64) -> str:
        """Draw the trace as a text chart: one row per phase, bar length
        ∝ duration, bar fill ∝ CPU utilisation."""
        lines = [
            f"{self.label}  (total {self.total_time:.2f}s, "
            f"mean CPU {self.mean_utilization() * 100:.0f}% of {self.cores} cores)"
        ]
        total = self.total_time or 1.0
        for phase in self.phases:
            bar_len = max(1, round(width * phase.duration / total))
            filled = max(0, round(bar_len * phase.utilization))
            bar = "#" * filled + "." * (bar_len - filled)
            lines.append(
                f"  {phase.name:<10} |{bar:<{width}}| "
                f"{phase.duration:6.2f}s @ {phase.utilization * 100:3.0f}% CPU"
                + (f"  ({phase.detail})" if phase.detail else "")
            )
        return "\n".join(lines)

    # -- Chrome trace export (shared writer) ---------------------------------------

    def to_chrome_payload(self, pid: int = 0) -> Dict[str, Any]:
        """A self-contained Chrome trace-event JSON object (write it with
        :func:`repro.engine.tracing.write_chrome_trace`): this trace's
        phases as complete events on process ``pid`` (they are already
        relative to t=0)."""
        events = [
            chrome_complete_event(
                phase.name,
                ts_us=phase.start * 1e6,
                dur_us=phase.duration * 1e6,
                pid=pid,
                category=phase.category,
                args=dict(phase.attrs),
            )
            for phase in self.phases
        ]
        return {
            "traceEvents": [_process_name_event(pid, self.label or "trace")]
            + events,
            "displayTimeUnit": "ms",
        }
