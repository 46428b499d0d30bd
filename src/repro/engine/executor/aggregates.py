"""Aggregate semantics, written once.

Built-in aggregates (COUNT/SUM/MIN/MAX/AVG) and the adapter that runs a
registered UDA share one contract: one :class:`BatchAccumulator` per
aggregate expression holds the state of every group it has seen. Every
accumulator supports ``merge``, so the exchange operator can combine
partial aggregates computed on separate slices of the input — the
property that lets the optimizer parallelise UDAs "just like built-in
aggregates" (paper Section 2.3.4). :class:`GroupTable` is the group
bookkeeping every aggregate operator shares.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import accumulate, repeat
from typing import Any, Callable, Iterable, Optional, Sequence, Type

from ..errors import BindError, UdfError
from ..udf import UserDefinedAggregate


class AggregateSpec:
    """Describes one aggregate expression in a GROUP BY query.

    Parameters
    ----------
    name:
        Aggregate name (``count``, ``sum``, ... or a registered UDA name).
    arg_fns:
        Compiled argument accessors (empty for ``COUNT(*)``): ``row ->
        value`` closures for a built-in, ``batch -> column`` closures
        (``ExpressionCompiler.compile_batch``) for a UDA.
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
        # one argument, none for COUNT(*); DISTINCT only where the
        # accumulators have a distinct form (MIN/MAX ignore it)
        upper = self.name.upper()
        if uda_class is None and self.name not in (
            "count",
            "count_big",
            "sum",
            "min",
            "max",
            "avg",
        ):
            raise BindError(f"unknown aggregate {name!r}")
        if star and self.name not in ("count", "count_big"):
            raise BindError(f"{upper}(*) is not supported")
        args = self.arg_fns if self.arg_exprs is None else self.arg_exprs
        if uda_class is None and len(args) != (0 if star else 1):
            raise BindError(f"{upper} takes exactly one argument")
        if distinct and (
            star
            or uda_class is not None
            or self.name not in ("count", "count_big", "min", "max")
        ):
            raise BindError(f"DISTINCT is not supported in {upper}")

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

    def describe(self) -> str:
        if self.star:
            return f"{self.name.upper()}(*)"
        inner = "DISTINCT ..." if self.distinct else "..."
        return f"{self.name.upper()}({inner})"


# ---------------------------------------------------------------------------
# batch accumulators
# ---------------------------------------------------------------------------


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
                # an integer SUM stays int: the start is int 0
                totals[key] = totals.get(key, 0) + value

    def merge(self, other):
        totals = self.totals
        for key, total in other.totals.items():
            totals[key] = totals.get(key, 0) + total

    def result(self, key):
        # a group whose values were all NULL never materialises a
        # total: its SUM is NULL
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
                    # float 0.0 start: AVG of integers is a float
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
    """One UDA instance per group; ``values`` are the argument columns.
    A group's rows of one batch, in input order, are its run, and go to
    its instance in one ``accumulate_batch`` call."""

    __slots__ = ("states", "_uda_class")

    def __init__(self, uda_class):
        self.states: dict = {}
        self._uda_class = uda_class

    def _fresh(self) -> UserDefinedAggregate:
        instance = self._uda_class()
        instance.init()
        return instance

    def add_vector(self, keys, values):
        states = self.states
        if not values:  # no argument column carries a run's length
            groups, runs = keys, repeat(())
        else:
            # a row's rank is the first index of its key
            groups = {}
            ranks = list(map(groups.setdefault, keys, range(len(keys))))
            if len(groups) < 2:  # the batch is one run, or none
                runs = (values,)
            else:
                # a stable sort by rank lines the runs up in
                # first-occurrence order; cut every column at their ends
                pick = operator.itemgetter(
                    *sorted(range(len(keys)), key=ranks.__getitem__)
                )
                ends = list(accumulate(Counter(ranks).values()))
                bounds = list(map(slice, [0, *ends[:-1]], ends))
                runs = zip(*[
                    list(map(pick(column).__getitem__, bounds))
                    for column in values
                ])
        for key, columns in zip(groups, runs):
            state = states.get(key)
            if state is None:
                state = states[key] = self._fresh()
            state.accumulate_batch(*columns)

    def merge(self, other):
        if not self._uda_class.parallel_safe:
            raise UdfError(
                f"UDA {self._uda_class.name!r} is not parallel-safe but was "
                "asked to merge partial states"
            )
        states = self.states
        for key, state in other.states.items():
            mine = states.get(key)
            if mine is None:
                states[key] = state
            else:
                mine.merge(state)

    def result(self, key):
        # a group the UDA never saw (a scalar aggregate over no rows)
        # reports what a fresh instance terminates with
        state = self.states.get(key)
        return (self._fresh() if state is None else state).terminate()


_BATCH_ACCUMULATORS = {
    "sum": _BatchSum,
    "min": _BatchMin,
    "max": _BatchMax,
    "avg": _BatchAvg,
}


def make_batch_accumulator(spec: AggregateSpec) -> BatchAccumulator:
    """The accumulator that runs ``spec``'s semantics."""
    if spec.uda_class is not None:
        return _BatchUda(spec.uda_class)
    if spec.star:
        return _BatchCountStar()
    if spec.name in ("count", "count_big"):
        return _BatchCountDistinct() if spec.distinct else _BatchCountValue()
    return _BATCH_ACCUMULATORS[spec.name]()


def batch_getter(spec: AggregateSpec) -> Callable[[Sequence[Any]], Any]:
    """``batch -> values``: the argument vector :meth:`BatchAccumulator.
    add_vector` takes beside the keys (None for ``COUNT(*)``, and for a
    UDA a list of its argument columns)."""
    if spec.star:
        return lambda batch: None
    fns = spec.arg_fns
    if spec.uda_class is not None:
        return lambda batch: [fn(batch) for fn in fns]
    if spec.arg_index is not None:
        index = spec.arg_index
        return lambda batch: [row[index] for row in batch]
    fn = fns[0]
    return lambda batch: [fn(row) for row in batch]


def group_key(
    group_fns: Sequence[Callable[[Sequence[Any]], Any]],
    group_indexes: Optional[Sequence[int]] = None,
) -> Callable[[Sequence[Any]], Any]:
    """``row -> group key`` for the hash aggregates: a single group
    expression keys by its bare value, several by their tuple; plain
    columns (``group_indexes``) are read by position."""
    if group_indexes is not None:
        return operator.itemgetter(*group_indexes)
    if len(group_fns) == 1:
        return group_fns[0]
    return lambda row: tuple(fn(row) for fn in group_fns)


class GroupTable:
    """The groups of one aggregation: their keys in first-occurrence
    order, and one accumulator per aggregate over all of them.

    Every aggregate operator keeps its groups here: a hash aggregate one
    table for its whole input, the Stream Aggregate one per group, an
    exchange worker one for its slice, and the gather one that merges
    the workers' tables in range order, which replays the serial first
    occurrence order. :meth:`rows` builds every aggregate's output.
    """

    __slots__ = ("keys", "accumulators")

    def __init__(
        self,
        accumulators: Iterable[BatchAccumulator],
        keys: Iterable[Any] = (),
    ):
        self.accumulators = list(accumulators)
        self.keys = dict.fromkeys(keys)

    def add(self, keys: Sequence[Any], vectors: Iterable[Any]) -> None:
        """Feed a vector of group keys and, per aggregate, the argument
        values beside it."""
        self.keys.update(dict.fromkeys(keys))
        for accumulator, values in zip(self.accumulators, vectors):
            accumulator.add_vector(keys, values)

    def merge(
        self, keys: Sequence[Any], accumulators: Sequence[BatchAccumulator]
    ) -> None:
        """Fold in the table of a later slice of the same input, given
        as its keys and accumulators."""
        self.keys.update(dict.fromkeys(keys))
        for mine, other in zip(self.accumulators, accumulators):
            mine.merge(other)

    def rows(self, bare_keys: bool = False) -> list:
        """One row per group: the key's values, then each aggregate's
        result. ``bare_keys``: a key is one value, not a tuple."""
        accumulators = self.accumulators
        return [
            ((key,) if bare_keys else key)
            + tuple(accumulator.result(key) for accumulator in accumulators)
            for key in self.keys
        ]
