"""Aggregate state machines.

Built-in aggregates (COUNT/SUM/MIN/MAX/AVG) and the adapter that runs a
registered UDA under the same interface: one :class:`AggregateState`
per group inside the Stream Aggregate (one group at a time is its
algorithm), one :class:`BatchAccumulator` over all groups inside the
hash aggregates. Every accumulator supports ``merge``, so the exchange
operator can combine partial aggregates computed on separate slices of
the input — the property that lets the optimizer parallelise UDAs "just
like built-in aggregates" (paper Section 2.3.4).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Sequence, Type

from ..errors import BindError, UdfError
from ..udf import UserDefinedAggregate


class AggregateState:
    """One group's accumulator for one aggregate expression."""

    def add(self, row: Sequence[Any]) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        raise NotImplementedError


class _CountStar(AggregateState):
    __slots__ = ("count",)

    def __init__(self, _fn=None):
        self.count = 0

    def add(self, row):
        self.count += 1

    def result(self):
        return self.count


class _CountValue(AggregateState):
    __slots__ = ("count", "_fn")

    def __init__(self, fn):
        self.count = 0
        self._fn = fn

    def add(self, row):
        if self._fn(row) is not None:
            self.count += 1

    def result(self):
        return self.count


class _CountDistinct(AggregateState):
    __slots__ = ("values", "_fn")

    def __init__(self, fn):
        self.values = set()
        self._fn = fn

    def add(self, row):
        value = self._fn(row)
        if value is not None:
            self.values.add(value)

    def result(self):
        return len(self.values)


class _Sum(AggregateState):
    __slots__ = ("total", "seen", "_fn")

    def __init__(self, fn):
        self.total = 0
        self.seen = False
        self._fn = fn

    def add(self, row):
        value = self._fn(row)
        if value is not None:
            self.total += value
            self.seen = True

    def result(self):
        return self.total if self.seen else None


class _Min(AggregateState):
    __slots__ = ("best", "_fn")

    def __init__(self, fn):
        self.best = None
        self._fn = fn

    def add(self, row):
        value = self._fn(row)
        if value is not None and (self.best is None or value < self.best):
            self.best = value

    def result(self):
        return self.best


class _Max(AggregateState):
    __slots__ = ("best", "_fn")

    def __init__(self, fn):
        self.best = None
        self._fn = fn

    def add(self, row):
        value = self._fn(row)
        if value is not None and (self.best is None or value > self.best):
            self.best = value

    def result(self):
        return self.best


class _Avg(AggregateState):
    __slots__ = ("total", "count", "_fn")

    def __init__(self, fn):
        self.total = 0.0
        self.count = 0
        self._fn = fn

    def add(self, row):
        value = self._fn(row)
        if value is not None:
            self.total += value
            self.count += 1

    def result(self):
        return self.total / self.count if self.count else None


class _UdaState(AggregateState):
    """Adapter running a :class:`UserDefinedAggregate` instance."""

    __slots__ = ("instance", "_fns")

    def __init__(self, uda_class: Type[UserDefinedAggregate], fns):
        self.instance = uda_class()
        self.instance.init()
        self._fns = fns

    def add(self, row):
        self.instance.accumulate(*[fn(row) for fn in self._fns])

    def merge(self, other: "_UdaState"):
        if not self.instance.parallel_safe:
            raise UdfError(
                f"UDA {self.instance.name!r} is not parallel-safe but was "
                "asked to merge partial states"
            )
        self.instance.merge(other.instance)

    def result(self):
        return self.instance.terminate()


class AggregateSpec:
    """Describes one aggregate expression in a GROUP BY query.

    Parameters
    ----------
    name:
        Aggregate name (``count``, ``sum``, ... or a registered UDA name).
    arg_fns:
        Compiled argument accessors (empty for ``COUNT(*)``).
    star / distinct:
        ``COUNT(*)`` / ``COUNT(DISTINCT x)`` flags.
    uda_class:
        The UDA class when ``name`` is user-defined.
    arg_index:
        When the single argument is a plain column, its input-row
        position — lets the hash aggregates extract values by index
        instead of calling the compiled closure per row.
    arg_exprs:
        The arguments' ASTs: what ships to an exchange worker, which
        compiles its own accessors (closures do not pickle).
    """

    def __init__(
        self,
        name: str,
        arg_fns: Sequence[Callable[[Sequence[Any]], Any]],
        star: bool = False,
        distinct: bool = False,
        uda_class: Optional[Type[UserDefinedAggregate]] = None,
        arg_index: Optional[int] = None,
        arg_exprs: Optional[Sequence[Any]] = None,
    ):
        self.name = name.lower()
        self.arg_fns = list(arg_fns)
        self.star = star
        self.distinct = distinct
        self.uda_class = uda_class
        self.arg_index = arg_index
        self.arg_exprs = tuple(arg_exprs) if arg_exprs is not None else None
        if uda_class is None and self.name not in (
            "count",
            "count_big",
            "sum",
            "min",
            "max",
            "avg",
        ):
            raise BindError(f"unknown aggregate {name!r}")

    @property
    def parallel_safe(self) -> bool:
        if self.uda_class is not None:
            # the declared flag only counts when the verifier confirmed
            # a merge() actually exists (_merge_verified, set at
            # registration); an unregistered class is taken at its word
            return bool(self.uda_class.parallel_safe) and bool(
                getattr(self.uda_class, "_merge_verified", True)
            )
        return True

    @property
    def requires_ordered_input(self) -> bool:
        return bool(
            self.uda_class is not None and self.uda_class.requires_ordered_input
        )

    def new_state(self) -> AggregateState:
        if self.uda_class is not None:
            return _UdaState(self.uda_class, self.arg_fns)
        fn = self.arg_fns[0] if self.arg_fns else None
        if self.name in ("count", "count_big"):
            if self.star:
                return _CountStar()
            if self.distinct:
                return _CountDistinct(fn)
            return _CountValue(fn)
        if self.name == "sum":
            return _Sum(fn)
        if self.name == "min":
            return _Min(fn)
        if self.name == "max":
            return _Max(fn)
        if self.name == "avg":
            return _Avg(fn)
        raise BindError(f"unknown aggregate {self.name!r}")

    def describe(self) -> str:
        if self.star:
            return f"{self.name.upper()}(*)"
        inner = "DISTINCT ..." if self.distinct else "..."
        return f"{self.name.upper()}({inner})"


# ---------------------------------------------------------------------------
# batch accumulators
# ---------------------------------------------------------------------------
#
# The Stream Aggregate keeps one AggregateState per aggregate for the
# group it is on and dispatches ``state.add(row)`` per input row.  The
# hash aggregates invert that: one accumulator per aggregate holds a dict
# keyed by group key and consumes a whole vector per call, so the per-row
# work is a zip over two lists.  The numeric semantics deliberately
# replicate the per-group states item for item (SUM starts from int 0,
# AVG from float 0.0, additions happen in input order) so a query gives
# bit-identical results whichever aggregate operator its plan picks.


class BatchAccumulator:
    """Per-aggregate, all-groups batch accumulator.

    ``add_vector`` consumes a vector of group keys and the aggregate's
    argument values beside it (:func:`batch_getter` extracts them from a
    row batch; the column-scan aggregate gathers them without ever
    materialising row tuples).

    An accumulator is plain data: it pickles, and ``merge`` folds in the
    accumulator of a later slice of the same input — how the exchange's
    workers hand their partial aggregates to the coordinator. Merging
    re-adds partial sums, which is exact for integers only; the
    exchange admits no float SUM/AVG.
    """

    def add_vector(self, keys: Sequence[Any], values: Sequence[Any]) -> None:
        raise NotImplementedError

    def merge(self, other: "BatchAccumulator") -> None:
        raise NotImplementedError

    def result(self, key: Any) -> Any:
        raise NotImplementedError


class _BatchCountStar(BatchAccumulator):
    __slots__ = ("counts",)

    def __init__(self):
        from collections import Counter

        self.counts = Counter()

    def add_vector(self, keys, values=None):
        self.counts.update(keys)

    def merge(self, other):
        self.counts.update(other.counts)

    def result(self, key):
        return self.counts[key]


class _BatchCountValue(BatchAccumulator):
    __slots__ = ("counts",)

    def __init__(self):
        self.counts: dict = {}

    def add_vector(self, keys, values):
        counts = self.counts
        for key, value in zip(keys, values):
            if value is not None:
                counts[key] = counts.get(key, 0) + 1

    def merge(self, other):
        counts = self.counts
        for key, count in other.counts.items():
            counts[key] = counts.get(key, 0) + count

    def result(self, key):
        return self.counts.get(key, 0)


class _BatchCountDistinct(BatchAccumulator):
    __slots__ = ("values",)

    def __init__(self):
        self.values: dict = {}

    def add_vector(self, keys, values):
        buckets = self.values
        for key, value in zip(keys, values):
            if value is not None:
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = {value}
                else:
                    bucket.add(value)

    def merge(self, other):
        buckets = self.values
        for key, bucket in other.values.items():
            buckets.setdefault(key, set()).update(bucket)

    def result(self, key):
        return len(self.values.get(key, ()))


class _BatchSum(BatchAccumulator):
    __slots__ = ("totals",)

    def __init__(self):
        self.totals: dict = {}

    def add_vector(self, keys, values):
        totals = self.totals
        for key, value in zip(keys, values):
            if value is not None:
                # absent key starts from int 0, exactly like _Sum
                totals[key] = totals.get(key, 0) + value

    def merge(self, other):
        totals = self.totals
        for key, total in other.totals.items():
            totals[key] = totals.get(key, 0) + total

    def result(self, key):
        # a group whose values were all NULL never materialises a total,
        # matching _Sum's seen=False -> NULL
        return self.totals.get(key)


class _BatchExtreme(BatchAccumulator):
    """MIN / MAX: ``better(candidate, held)`` decides a replacement."""

    __slots__ = ("best",)

    better = None

    def __init__(self):
        self.best: dict = {}

    def add_vector(self, keys, values):
        best, better = self.best, self.better
        for key, value in zip(keys, values):
            if value is not None:
                held = best.get(key)
                if held is None or better(value, held):
                    best[key] = value

    def merge(self, other):
        self.add_vector(other.best.keys(), other.best.values())

    def result(self, key):
        return self.best.get(key)


class _BatchMin(_BatchExtreme):
    __slots__ = ()
    better = staticmethod(operator.lt)


class _BatchMax(_BatchExtreme):
    __slots__ = ()
    better = staticmethod(operator.gt)


class _BatchAvg(BatchAccumulator):
    __slots__ = ("states",)

    def __init__(self):
        self.states: dict = {}  # key -> [total, count]

    def add_vector(self, keys, values):
        states = self.states
        for key, value in zip(keys, values):
            if value is not None:
                state = states.get(key)
                if state is None:
                    # float 0.0 start, matching _Avg
                    states[key] = [0.0 + value, 1]
                else:
                    state[0] += value
                    state[1] += 1

    def merge(self, other):
        states = self.states
        for key, (total, count) in other.states.items():
            state = states.get(key)
            if state is None:
                states[key] = [total, count]
            else:
                state[0] += total
                state[1] += count

    def result(self, key):
        state = self.states.get(key)
        return state[0] / state[1] if state else None


class _BatchUda(BatchAccumulator):
    """One UDA instance per group; ``values`` are argument lists."""

    __slots__ = ("states", "_uda_class")

    def __init__(self, uda_class):
        self.states: dict = {}
        self._uda_class = uda_class

    def add_vector(self, keys, values):
        states = self.states
        for key, args in zip(keys, values):
            state = states.get(key)
            if state is None:
                state = states[key] = _UdaState(self._uda_class, ())
            state.instance.accumulate(*args)

    def merge(self, other):
        states = self.states
        for key, state in other.states.items():
            mine = states.get(key)
            if mine is None:
                states[key] = state
            else:
                mine.merge(state)

    def result(self, key):
        return self.states[key].result()


_BATCH_ACCUMULATORS = {
    "sum": _BatchSum,
    "min": _BatchMin,
    "max": _BatchMax,
    "avg": _BatchAvg,
}


def make_batch_accumulator(spec: AggregateSpec) -> BatchAccumulator:
    """Build the batch accumulator mirroring ``spec.new_state()``."""
    if spec.uda_class is not None:
        return _BatchUda(spec.uda_class)
    if spec.star:
        return _BatchCountStar()
    if spec.name in ("count", "count_big"):
        return _BatchCountDistinct() if spec.distinct else _BatchCountValue()
    return _BATCH_ACCUMULATORS[spec.name]()


def batch_getter(spec: AggregateSpec) -> Callable[[Sequence[Any]], Any]:
    """``batch -> values``: the argument vector :meth:`BatchAccumulator.
    add_vector` takes beside the keys (None for ``COUNT(*)``, argument
    lists for a UDA)."""
    if spec.star:
        return lambda batch: None
    fns = spec.arg_fns
    if spec.uda_class is not None:
        return lambda batch: [[fn(row) for fn in fns] for row in batch]
    if spec.arg_index is not None:
        index = spec.arg_index
        return lambda batch: [row[index] for row in batch]
    fn = fns[0]
    return lambda batch: [fn(row) for row in batch]
