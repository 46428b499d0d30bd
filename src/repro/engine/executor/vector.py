"""Batch-at-a-time (vectorized) execution primitives.

A row-at-a-time Volcano interpreter pays a Python generator resumption
and a virtual dispatch per row per operator.  The executor amortises
that cost by moving a :class:`RowBatch` — up to
:data:`DEFAULT_BATCH_SIZE` tuples — through each operator call, so the
per-row work inside an operator is a tight list comprehension or a
``map`` over a precompiled closure rather than an interpreter
round-trip.  The same idea drives SQL Server's batch-mode execution and
the array-granularity processing of the SQL Server array library (Dobos
et al.): touch each datum once, in bulk.

This module deliberately imports nothing from the rest of the executor
package so both :mod:`.base` and :mod:`repro.engine.storage` can depend
on it without cycles.
"""

from __future__ import annotations

import operator
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, List, Sequence, Tuple

#: rows per batch; tests may monkeypatch this module attribute to force
#: degenerate batch sizes (1, or larger than the table)
DEFAULT_BATCH_SIZE = 1024


class RowBatch(list):
    """A batch of result tuples.

    Just a ``list`` with a distinct type so call sites can assert they
    were handed a batch; keeping it a real list means every consumer
    (``len``, ``extend``, slicing, comprehensions) runs at C speed."""

    __slots__ = ()


def batches_from_rows(rows: Iterable[Tuple[Any, ...]]) -> Iterator[RowBatch]:
    """Chunk a row iterator into :class:`RowBatch` objects.

    :data:`DEFAULT_BATCH_SIZE` is read at call time, so monkeypatching
    the module attribute affects every operator."""
    size = DEFAULT_BATCH_SIZE
    iterator = iter(rows)
    while True:
        batch = RowBatch(islice(iterator, size))
        if not batch:
            return
        yield batch


def batches_from_runs(
    runs: Iterable[Sequence[Tuple[Any, ...]]],
) -> Iterator[RowBatch]:
    """Re-chunk lists of rows of any length (the leaf runs of an index
    seek) into :class:`RowBatch` objects of :data:`DEFAULT_BATCH_SIZE`.
    The runs are walked at C speed: no Python frame per row."""
    return batches_from_rows(chain.from_iterable(runs))


def make_batch_projector(
    positions: Sequence[int],
) -> Callable[[Sequence[Tuple[Any, ...]]], RowBatch]:
    """A whole-batch positional projection: ``batch -> RowBatch``.

    ``operator.itemgetter`` returns a bare value (not a 1-tuple) for a
    single index, so that arity gets a dedicated closure."""
    if len(positions) == 1:
        index = positions[0]
        return lambda batch: RowBatch((row[index],) for row in batch)
    getter = operator.itemgetter(*positions)
    return lambda batch: RowBatch(map(getter, batch))


def collect_rows(op: Any) -> List[Tuple[Any, ...]]:
    """Materialise an operator's full output as a list of rows,
    extending it a batch at a time. This is where a plan starts an
    execution: the operators' runtime counters restart from zero."""
    op.facts.begin_execution(op)
    rows: List[Tuple[Any, ...]] = []
    for batch in op.iter_batches():
        rows.extend(batch)
    return rows
