"""Measurement primitives of the perf benchmark: the closed-loop
repetition driver, the span recorder of the traced run, and the
run-condition record.

Load model: closed loop, one client. The next operation is issued only
when the previous one has returned, because the paper's users are
analysts and pipeline scripts that wait for each statement.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence

perf_counter = time.perf_counter


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class _Span:
    """One open span; a class and not a generator-based context manager
    because three spans bracket a 70-microsecond lookup."""

    __slots__ = ("recorder", "name", "record")

    def __init__(self, recorder: "Recorder", name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        recorder = self.recorder
        stack = recorder._stack
        self.record = record = [
            self.name, 0.0, 0.0, stack[-1] if stack else None, recorder.op
        ]
        stack.append(len(recorder.spans))
        recorder.spans.append(record)
        record[1] = perf_counter()

    def __exit__(self, *exc) -> None:
        self.record[2] = perf_counter()
        self.recorder._stack.pop()


class Recorder:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    enclosing span (None at the root) and ``op`` identifies the operation
    every span of one request shares. Spans are recorded from the
    benchmark's own files, around the calls into each layer; a disabled
    recorder runs the same staged code without recording, which is the
    base the tracing overhead is measured against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else nullcontext()

    def add_child(self, name: str, seconds: float) -> None:
        """Attach a child of the innermost open span whose duration the
        program itself measured (``ParallelStats``); it starts with its
        parent because only its length is known."""
        parent = self._stack[-1]
        start = self.spans[parent][1]
        self.spans.append([name, start, start + seconds, parent, self.op])

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name: a span's duration minus
        the part of it its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent, _op), inner in zip(self.spans, covered):
            totals[name] = totals.get(name, 0.0) + max(end - start - inner, 0.0)
        return totals

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _p, _o in self.spans if n == name]


# ---------------------------------------------------------------------------
# machine-speed calibration
# ---------------------------------------------------------------------------

#: seconds the calibration loop takes on the reference machine
CALIBRATION_REFERENCE_S = 0.0015
#: timed work between two calibrations, at most (one op when it is longer)
CHUNK_S = 0.02


def calibrate() -> float:
    """Seconds a fixed loop of interpreter work (dict, tuple, string,
    float, list) takes right now: about 2 ms.

    The sandboxes this benchmark runs in change CPU speed by up to 1.3x
    on every time scale from 10 ms to minutes (a busy sibling
    hyperthread), so a raw median does not repeat from run to run within
    any useful bound. Every stretch of timed work is therefore bracketed
    by two calibrations and reported at reference speed:
    ``time * CALIBRATION_REFERENCE_S / calibration``. The program never
    runs the loop, so a change to the program moves the times and not
    the calibration.
    """
    start = perf_counter()
    counts: Dict[tuple, int] = {}
    out: List[tuple] = []
    for i in range(3_500):
        key = (i & 255, "k%d" % (i & 63))
        counts[key] = counts.get(key, 0) + i
        out.append((i, key[1], float(i)))
        if len(out) > 512:
            out = []
    return perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """What to multiply a time measured between two calibrations by."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Measurement:
    """Per-op wall times of the repetitions of one workload, as measured
    (``raw_reps``) and at reference speed (``reps``)."""

    def __init__(self) -> None:
        self.raw_reps: List[List[float]] = []
        self.reps: List[List[float]] = []
        self.attempted = 0
        self.failed = 0

    @property
    def pooled(self) -> List[float]:
        return [t for rep in self.reps for t in rep]

    @property
    def raw_pooled(self) -> List[float]:
        return [t for rep in self.raw_reps for t in rep]

    @property
    def rep_walls(self) -> List[float]:
        return [sum(rep) for rep in self.reps]


def run_repetitions(
    workload,
    seconds: float,
    execute,
    min_reps: int = 3,
    first_rep: int = 0,
) -> Measurement:
    """Run whole repetitions of ``workload`` until ``seconds`` have passed
    (at least ``min_reps``), one operation at a time.

    ``execute(op)`` is the timed call; ``workload.check(op, result)`` is
    the oracle and runs outside the timer. An operation that raises or
    fails its oracle counts as failed. A calibration runs after every
    ``CHUNK_S`` of timed work and ``gc.collect()`` between repetitions;
    the collector is otherwise at its defaults.
    """
    out = Measurement()
    deadline = perf_counter() + seconds
    rep = first_rep
    while len(out.reps) < min_reps or perf_counter() < deadline:
        gc.collect()
        raw: List[float] = []
        scaled: List[float] = []
        before = calibrate()

        def close_chunk() -> None:
            # an op far longer than a chunk has only these two samples of
            # the speed it ran at, so each is a median of three
            nonlocal before, since
            if since >= 5 * CHUNK_S:
                after = statistics.median(calibrate() for _ in range(3))
            else:
                after = calibrate()
            factor = speed_factor(before, after)
            scaled.extend(t * factor for t in raw[len(scaled):])
            before, since = after, 0.0

        since = 0.0
        for op in workload.ops(rep):
            start = perf_counter()
            try:
                result = execute(op)
                raised = False
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                result, raised = exc, True
            raw.append(perf_counter() - start)
            since += raw[-1]
            if since >= CHUNK_S:
                close_chunk()
            out.attempted += 1
            if raised or not workload.check(op, result):
                out.failed += 1
                if out.failed == 1:
                    print(
                        f"[{workload.name}] op failed: {op!r:.120} -> "
                        f"{result!r:.200}",
                        file=sys.stderr,
                    )
        if len(scaled) < len(raw):
            close_chunk()
        out.raw_reps.append(raw)
        out.reps.append(scaled)
        rep += 1
    return out


# ---------------------------------------------------------------------------
# run conditions
# ---------------------------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident set of this process plus the largest reaped child
    (pool workers are reaped when their database closes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def conditions(root, seed: int, scale: float, seconds: float) -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "load_1min_start": load,
        # a one-client run leaves a load of 1 behind for the next one
        "noisy": load > nproc - 0.5,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "PYTHONHASHSEED": "0",
    }


def _commit(root) -> str:
    """HEAD of the checkout; ``unknown`` in an exported tree (the check
    for ``.git`` keeps git from answering for an enclosing repository)."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def stop_children() -> None:
    """Wait for every process this one started (the engine's pool
    workers) to end."""
    import multiprocessing

    for process in multiprocessing.active_children():
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join()
