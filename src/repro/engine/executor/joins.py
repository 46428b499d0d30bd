"""Join operators: hash join, merge join and key-lookup join.

The paper's Figure 10 plan hinges on the merge join: with clustered
indexes chosen so both inputs arrive ordered on the join key, the join
streams at ~1.6 M alignments/s on the authors' box without any build
phase. The hash join is the fallback when order is unavailable. When
the join keys are the inner table's whole clustered key and the outer
side is a few rows, the key-lookup join seeks each outer key instead of
scanning and hashing the inner table.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import add, is_
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..schema import tuple_getter
from .base import PhysicalOperator
from .operators import Filter
from .vector import RowBatch, batches_from_rows

RowFn = Callable[[Sequence[Any]], Any]


def _tuple_key_getter(
    indexes: Optional[Sequence[int]], fns: Sequence[RowFn]
) -> Callable[[Sequence[Any]], Tuple[Any, ...]]:
    """row -> join-key tuple, by position when the keys are plain columns."""
    if indexes is not None:
        return tuple_getter(indexes)
    return lambda row: tuple(fn(row) for fn in fns)


def _drop_null_keys(
    keys: List[Tuple[Any, ...]], rows: Sequence[Tuple[Any, ...]]
) -> Tuple[List[Tuple[Any, ...]], List[Tuple[Any, ...]]]:
    """``keys`` and ``rows`` without the rows whose key holds a NULL,
    decided by identity: a value whose ``__eq__`` answers True for None
    is no NULL."""
    keep = [not any(map(is_, key, repeat(None))) for key in keys]
    return list(compress(keys, keep)), list(compress(rows, keep))


class HashJoin(PhysicalOperator):
    """Hash Match (Inner Join) on equality keys.

    Builds on the right input, probes with the left. NULL keys never
    match (SQL equality semantics).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key_fns: Sequence[RowFn],
        right_key_fns: Sequence[RowFn],
        left_key_indexes: Optional[Sequence[int]] = None,
        right_key_indexes: Optional[Sequence[int]] = None,
        pairs: Sequence[Tuple[Any, Any]] = (),
    ):
        super().__init__()
        if len(left_key_fns) != len(right_key_fns):
            raise ExecutionError("join key arity mismatch")
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        #: the ``(left ref, right ref)`` equi pairs, which price the join
        self.pairs = tuple(pairs)
        #: row positions of the keys when they are plain columns: keys
        #: are then extracted positionally instead of per closure
        self.left_key_indexes = (
            tuple(left_key_indexes) if left_key_indexes is not None else None
        )
        self.right_key_indexes = (
            tuple(right_key_indexes) if right_key_indexes is not None else None
        )
        self.columns = list(left.columns) + list(right.columns)
        # probing streams the left input in order; matches are emitted
        # per left row, so the left ordering survives the join
        self.ordering = left.ordering
        self.bound_columns = left.bound_columns

    def execute(self):
        right_key_of = _tuple_key_getter(
            self.right_key_indexes, self.right_key_fns
        )
        built = []
        # does a build key value compare equal to None (a NULL, or a
        # value that claims to be one)? Only then can a NULL probe key
        # find a match that it must not have
        nulls = False
        for batch in self.right.iter_batches():
            keys = list(map(right_key_of, batch))
            if None in chain.from_iterable(keys):
                nulls = True
                keys, batch = _drop_null_keys(keys, batch)
            built.append((keys, batch))
        # a build side whose keys are unique (every key of a lookup
        # table, as Query 3's [Read]) maps each key to its row; one
        # that repeats a key maps each key to its rows
        build: dict = {}
        for keys, rows in built:
            build.update(zip(keys, rows))
        repeats = len(build) != sum(len(keys) for keys, _rows in built)
        if repeats:
            build = {}
            for keys, rows in built:
                for key, row in zip(keys, rows):
                    build.setdefault(key, []).append(row)
        del built
        # probe: one output batch per left batch, left order preserved
        left_key_of = _tuple_key_getter(self.left_key_indexes, self.left_key_fns)
        for rows in self.left.iter_batches():
            keys = list(map(left_key_of, rows))
            if nulls:
                keys, rows = _drop_null_keys(keys, rows)
            if repeats:
                out = RowBatch([
                    left + right
                    for left, matches in zip(rows, map(build.get, keys))
                    if matches
                    for right in matches
                ])
            else:
                found = list(map(build.get, keys))
                out = RowBatch(
                    map(add, rows, found) if None not in found
                    else [l + r for l, r in zip(rows, found) if r is not None]
                )
            if out:
                yield out

    def children(self):
        return (self.left, self.right)

    def estimate(self, cost, child_rows):
        left_rows, right_rows = child_rows
        rows = cost.join_rows(self.left, self.right, self.pairs)
        return rows, (
            cost.hash_build_startup_cost
            + right_rows * cost.hash_build_row_cost
            + left_rows * cost.hash_probe_row_cost
            + rows * cost.output_row_cost
        )

    def explain_node(self):
        return "Hash Match (Inner Join)", (self.left, self.right)


class MergeJoin(PhysicalOperator):
    """Merge Join (Inner Join) over inputs pre-ordered on the join keys.

    Duplicate keys on both sides are handled by buffering the right-side
    group. Streaming and non-blocking: rows flow as soon as keys align,
    which is what lets the consensus plan feed its ordered UDA without
    a sort.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key_fns: Sequence[RowFn],
        right_key_fns: Sequence[RowFn],
        pairs: Sequence[Tuple[Any, Any]] = (),
    ):
        super().__init__()
        if len(left_key_fns) != len(right_key_fns):
            raise ExecutionError("join key arity mismatch")
        self.left = left
        self.right = right
        self.left_key_fns = list(left_key_fns)
        self.right_key_fns = list(right_key_fns)
        self.pairs = tuple(pairs)
        self.columns = list(left.columns) + list(right.columns)
        self.ordering = left.ordering
        self.bound_columns = left.bound_columns

    @staticmethod
    def _key_cmp(a: Tuple[Any, ...], b: Tuple[Any, ...]) -> int:
        # NULL keys never join; treat them as smallest so they are skipped
        for x, y in zip(a, b):
            xk = (0, 0) if x is None else (1, x)
            yk = (0, 0) if y is None else (1, y)
            if xk < yk:
                return -1
            if xk > yk:
                return 1
        return 0

    def execute(self):
        return batches_from_rows(self._matches())

    def _matches(self):
        left_iter = iter(self.left)
        right_iter = iter(self.right)
        left_keys = self.left_key_fns
        right_keys = self.right_key_fns

        def next_or_none(iterator):
            return next(iterator, None)

        left_row = next_or_none(left_iter)
        right_row = next_or_none(right_iter)
        while left_row is not None and right_row is not None:
            lkey = tuple(fn(left_row) for fn in left_keys)
            rkey = tuple(fn(right_row) for fn in right_keys)
            if any(v is None for v in lkey):
                left_row = next_or_none(left_iter)
                continue
            if any(v is None for v in rkey):
                right_row = next_or_none(right_iter)
                continue
            cmp = self._key_cmp(lkey, rkey)
            if cmp < 0:
                left_row = next_or_none(left_iter)
            elif cmp > 0:
                right_row = next_or_none(right_iter)
            else:
                # buffer the right-side duplicate group for this key
                group: List[Tuple[Any, ...]] = [right_row]
                right_row = next_or_none(right_iter)
                while right_row is not None:
                    nkey = tuple(fn(right_row) for fn in right_keys)
                    if self._key_cmp(nkey, rkey) == 0:
                        group.append(right_row)
                        right_row = next_or_none(right_iter)
                    else:
                        break
                while left_row is not None:
                    ckey = tuple(fn(left_row) for fn in left_keys)
                    if self._key_cmp(ckey, rkey) != 0:
                        break
                    for match in group:
                        yield left_row + match
                    left_row = next_or_none(left_iter)

    def children(self):
        return (self.left, self.right)

    def estimate(self, cost, child_rows):
        left_rows, right_rows = child_rows
        rows = cost.join_rows(self.left, self.right, self.pairs)
        return rows, (
            (left_rows + right_rows) * cost.merge_row_cost
            + rows * cost.output_row_cost
        )

    def explain_node(self):
        return "Merge Join (Inner Join)", (self.left, self.right)


class KeyLookupJoin(PhysicalOperator):
    """Nested Loops (Inner Join) over clustered-key lookups: one
    ``Table.get`` per distinct outer key per batch.

    ``right`` is the inner ``TableScan``, optionally under the ``Filter``
    pushed onto it; it is never run. Its projection shapes each row
    looked up and its predicate keeps or drops it, so the output columns
    are outer + inner exactly as :class:`HashJoin` produces them. Left
    order survives, and a NULL key never matches."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key_indexes: Sequence[int],
        pairs: Sequence[Tuple[Any, Any]] = (),
    ):
        super().__init__()
        self.left = left
        self.right = right
        #: outer row positions of the lookup key, in clustered-key order
        self.left_key_indexes = tuple(left_key_indexes)
        self.pairs = tuple(pairs)
        self.inner = right.child if isinstance(right, Filter) else right
        self.predicate = right.predicate if right is not self.inner else None
        self.columns = list(left.columns) + list(right.columns)
        self.ordering = left.ordering
        self.bound_columns = left.bound_columns

    def execute(self):
        get = self.inner.table.get
        projection = self.inner.projection
        shape = tuple_getter(projection) if projection is not None else None
        predicate = self.predicate
        key_of = tuple_getter(self.left_key_indexes)
        for batch in self.left.iter_batches():
            keys = list(map(key_of, batch))
            found = {}
            for key in set(keys):
                row = None if None in key else get(key)
                if row is not None:
                    found[key] = row if shape is None else shape(row)
            if found and predicate is not None:
                rows = list(found.values())
                found = {
                    key: row
                    for key, row, flag in zip(found, rows, predicate(rows))
                    if flag is True
                }
            out = RowBatch()
            append = out.append
            match_of = found.get
            for row, key in zip(batch, keys):
                match = match_of(key)
                if match is not None:
                    append(row + match)
            if out:
                yield out

    def children(self):
        return (self.left,)

    def column_inputs(self):
        # the inner input is never run; its columns are the rows looked up
        return (self.left, self.right)

    def estimate(self, cost, child_rows):
        (left_rows,) = child_rows
        rows = cost.join_rows(self.left, self.right, self.pairs)
        return rows, (
            left_rows * cost.key_lookup_cost + rows * cost.output_row_cost
        )

    def explain_node(self):
        name = self.inner.table.schema.name
        label = f"Nested Loops (Inner Join, Key Lookup [{name}])"
        if self.predicate is not None:
            label += f" where {self.right.label}"
        return label, (self.left,)
