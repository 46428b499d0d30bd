"""Core physical operators: scans, filter, project, sort, top, window,
distinct, and the aggregation operators (stream and hash).

Naming follows SQL Server showplan operators where a close analogue
exists (Table Scan, Clustered Index Scan/Seek, Stream Aggregate, Hash
Match Aggregate, Sort, Top, Segment/Sequence Project for ROW_NUMBER).
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import ExecutionError
from ..table import Table
from .aggregates import (
    AggregateSpec,
    GroupTable,
    batch_getter,
    group_key,
    make_batch_accumulator,
)
from .base import PhysicalOperator
from . import vector
from .vector import (
    RowBatch,
    batches_from_rows,
    batches_from_runs,
    make_batch_projector,
)

#: a row-compiled expression (``ExpressionCompiler.compile``): sort,
#: group and aggregate-argument keys
RowFn = Callable[[Sequence[Any]], Any]
#: a batch-compiled expression (``ExpressionCompiler.compile_batch``):
#: batch -> list of per-row values
BatchFn = Callable[[Sequence[Sequence[Any]]], List[Any]]


def _qualify(alias: Optional[str], names: Sequence[str]) -> List[str]:
    if alias:
        return [f"{alias}.{n}" for n in names]
    return list(names)


def _sort_cost(cost, rows: int) -> float:
    return rows * math.log2(rows + 1) * cost.sort_row_factor


def _resolve_key(bound: Optional[Tuple[Any, ...]]) -> Optional[Tuple[Any, ...]]:
    """Seek bounds may carry plan-cache parameter slots (duck-typed via
    ``is_parameter``); resolve them to the current values at execute time
    so a cached seek follows the parameters, not the values it was
    compiled under."""
    if bound is None or not any(
        getattr(v, "is_parameter", False) for v in bound
    ):
        return bound
    return tuple(
        v.value if getattr(v, "is_parameter", False) else v for v in bound
    )


def _shared_prefix(
    lo: Optional[Tuple[Any, ...]], hi: Optional[Tuple[Any, ...]]
) -> int:
    """How many leading key columns both seek bounds pin to one value.
    A parameter slot pins its column only where both bounds hold the
    same slot: two slots may hold different values on the next
    execution."""
    shared = 0
    for low, high in zip(lo or (), hi or ()):
        if low is not high and (
            low != high or getattr(low, "is_parameter", False)
        ):
            break
        shared += 1
    return shared


class _TableLeaf:
    """Mixed into the operators reading a stored table. Their output
    columns are the table's, qualified by the alias; ``projection`` (a
    sequence of schema column names) narrows them to those columns —
    projection pruning's way of avoiding the materialisation of
    never-referenced columns."""

    def __init__(
        self,
        table: Table,
        alias: Optional[str] = None,
        projection: Optional[Sequence[str]] = None,
    ):
        super().__init__()
        self.table = table
        self.alias = alias or table.schema.name
        names = list(table.schema.column_names)
        #: schema positions of the output columns; None: all, in order
        self.projection: Optional[Tuple[int, ...]] = None
        if projection is not None:
            self.projection = tuple(map(table.schema.column_index, projection))
            names = [names[i] for i in self.projection]
        self.columns = _qualify(self.alias, names)
        #: "slice i of n" of the rows, set on an exchange worker's copy
        self.part = None

    def _stored_at(self, position: int) -> Tuple[Table, Any]:
        name = self.columns[position].rsplit(".", 1)[-1]
        return self.table, self.table.schema.column(name)


class TableScan(_TableLeaf, PhysicalOperator):
    """Heap scan in physical order."""

    def execute(self):
        # page-aligned batches straight from the per-page row cache;
        # under-filled pages (row-at-a-time loads seal a page per
        # statement) are coalesced up to the target batch size so a scan
        # never degenerates to one-row batches
        project = (
            make_batch_projector(self.projection)
            if self.projection is not None
            else RowBatch
        )
        target = vector.DEFAULT_BATCH_SIZE
        pending: List[Tuple[Any, ...]] = []
        for batch in self.table.scan_batches(self.part):
            if not pending and len(batch) >= target:
                yield project(batch)
                continue
            pending.extend(batch)
            if len(pending) >= target:
                yield project(pending)
                pending = []
        if pending:
            yield project(pending)

    def estimate(self, cost, child_rows):
        rows = self.table.row_count
        return rows, rows * cost.scan_row_cost

    def explain_node(self):
        parts = []
        store = getattr(self.table, "store", None)
        if store is not None:
            parts.append(f"storage={store.engine_name}")
        if self.projection is not None:
            names = [
                self.table.schema.column_names[i] for i in self.projection
            ]
            parts.append(f"cols: {', '.join(names)}")
        suffix = f" ({'; '.join(parts)})" if parts else ""
        return f"Table Scan [{self.table.schema.name}]{suffix}", ()


class _SegmentView:
    """One sealed segment's surviving rows, not yet materialised.

    ``positions`` is None when every row survives (no tombstones, no
    predicate rejected anything).
    """

    __slots__ = ("segment", "positions", "io", "count")

    def __init__(self, segment, positions, io):
        self.segment = segment
        self.positions = positions
        self.io = io
        self.count = segment.rows if positions is None else len(positions)

    def gather(self, schema_index: int) -> List[Any]:
        """Values of the surviving rows for one schema column (late
        materialization: nothing else is ever decoded)."""
        return self.segment.gather(schema_index, self.positions, self.io)


class _TailView:
    """The open (row-wise) tail, already filtered, presented through the
    same interface as a sealed segment view."""

    __slots__ = ("rows", "count")

    def __init__(self, rows):
        self.rows = rows
        self.count = len(rows)

    def gather(self, schema_index: int) -> List[Any]:
        return [row[schema_index] for row in self.rows]


class ColumnStoreScan(_TableLeaf, PhysicalOperator):
    """Columnstore Index Scan: segment-at-a-time scan over a column table.

    Pushed predicates are evaluated in three stages:

    1. **zone maps** — segments whose min/max range cannot satisfy every
       predicate are skipped without decoding anything;
    2. **selection** — surviving segments test the first predicate on
       its decoded vector, later predicates only on prior survivors;
    3. **late materialization** — only the projected columns are
       decoded, and only at the surviving positions.

    Per-scan ``segments_read`` / ``segments_skipped`` tallies feed
    EXPLAIN ANALYZE; the same counts go to the store's IO counters for
    ``sys_dm_io_stats`` / SET STATISTICS IO.
    """

    def __init__(
        self,
        table: Table,
        alias: Optional[str] = None,
        projection: Optional[Sequence[str]] = None,
        predicates: Sequence[Any] = (),
    ):
        super().__init__(table, alias, projection)
        self.store = table.store
        self.out_positions: Tuple[int, ...] = (
            self.projection or tuple(range(len(self.columns)))
        )
        self.predicates = list(predicates)
        #: the WHERE conjuncts the planner pushed as ``predicates``,
        #: which price the rows the scan delivers
        self.conjuncts: List[Any] = []
        self.segments_read = 0
        self.segments_skipped = 0

    def schema_index(self, output_index: int) -> int:
        """Map an output column position back to its schema position."""
        return self.out_positions[output_index]

    def push(self, predicates, conjuncts) -> None:
        """Test ``predicates`` in the scan; ``conjuncts`` are the WHERE
        conjuncts they translate."""
        self.predicates += predicates
        self.conjuncts += conjuncts

    # -- segment-level iteration ----------------------------------------------

    def _views(self):
        store = self.store
        io = store.io
        if self.part is None or self.part[0] == 0:
            io.incr("scans")
        predicates = self.predicates
        segments, tail = store.part(self.part)
        for segment in segments:
            admitted = True
            for pred in predicates:
                if not segment.columns[pred.col_index].zone_admits(pred):
                    admitted = False
                    break
            if not admitted:
                self.segments_skipped += 1
                io.incr("segments_skipped")
                continue
            self.segments_read += 1
            io.incr("segments_read")
            selection = segment.selection(predicates, io)
            if selection is not None and not selection:
                continue
            yield _SegmentView(segment, selection, io)
        if tail:
            # the open tail is row-wise and unindexed: always one read
            self.segments_read += 1
            io.incr("segments_read")
            if predicates:
                matchers = [(p.col_index, p.matcher()) for p in predicates]
                tail = [
                    row
                    for row in tail
                    if all(match(row[i]) for i, match in matchers)
                ]
            if tail:
                yield _TailView(tail)

    def iter_segment_views(self):
        """Accounted segment-level iteration for encoded consumers
        (:class:`EncodedAggregate`): the bookkeeping of ``iter_batches``
        without ever materialising row tuples."""
        return self._accounted(self._views(), attrgetter("count"))

    # -- batch iteration -------------------------------------------------------

    def _view_rows(self, view) -> List[Tuple[Any, ...]]:
        out_positions = self.out_positions
        if not out_positions:
            return [()] * view.count
        vectors = [view.gather(i) for i in out_positions]
        return list(zip(*vectors))

    def execute(self):
        # one batch per surviving segment; runty survivors (heavy
        # pruning, small tails) are coalesced up to the target size so
        # a scan never degenerates to droplet batches
        target = vector.DEFAULT_BATCH_SIZE
        io = self.store.io
        pending: List[Tuple[Any, ...]] = []
        for view in self._views():
            rows = self._view_rows(view)
            if not pending and len(rows) >= target:
                io.incr("batch_reads")
                yield RowBatch(rows)
                continue
            pending.extend(rows)
            if len(pending) >= target:
                io.incr("batch_reads")
                yield RowBatch(pending)
                pending = []
        if pending:
            io.incr("batch_reads")
            yield RowBatch(pending)

    def analyze_detail(self):
        return (
            f"segments={self.segments_read} "
            f"skipped={self.segments_skipped}"
        )

    def estimate(self, cost, child_rows):
        """The rows its pushed conjuncts keep, priced by the segments
        the zone maps keep: the skipped fraction of the table is never
        decoded at all."""
        table_rows = self.table.row_count
        read, skipped = self.store.prune_estimate(self.predicates)
        total = read + skipped
        fraction = (read / total) if total else 1.0
        rows = cost.scan_output(self.table, self.conjuncts)
        return rows, table_rows * fraction * (
            cost.column_scan_row_cost
            + len(self.predicates) * cost.pushed_predicate_row_cost
        )

    def explain_node(self):
        parts = ["storage=column"]
        if self.projection is not None:
            names = [
                self.table.schema.column_names[i] for i in self.projection
            ]
            parts.append(f"cols: {', '.join(names)}")
        if self.predicates:
            labels = " AND ".join(
                pred.label or pred.op for pred in self.predicates
            )
            parts.append(f"pushed: {labels}")
        return (
            f"Columnstore Index Scan [{self.table.schema.name}] "
            f"({'; '.join(parts)})",
            (),
        )


class ClusteredIndexScan(_TableLeaf, PhysicalOperator):
    """Full scan in clustered-key order (feeds merge joins / stream aggs).

    Supports the same ``projection`` narrowing as :class:`TableScan`;
    the advertised ordering is remapped to output positions and stops at
    the first clustered-key column the projection drops.
    """

    def __init__(
        self,
        table: Table,
        alias: Optional[str] = None,
        projection: Optional[Sequence[str]] = None,
    ):
        super().__init__(table, alias, projection)
        output_position = {
            schema_pos: i
            for i, schema_pos in enumerate(
                self.projection or range(len(self.columns))
            )
        }
        ordering = []
        for key_pos in table.schema.key_indexes:
            if key_pos not in output_position:
                break
            ordering.append(output_position[key_pos])
        self.ordering = tuple(ordering)

    def execute(self):
        batches = batches_from_runs(self.table.seek_batches())
        if self.projection is None:
            return batches
        return map(make_batch_projector(self.projection), batches)

    def estimate(self, cost, child_rows):
        rows = self.table.row_count
        return rows, rows * cost.ordered_scan_row_cost

    def explain_node(self):
        key = ", ".join(self.table.schema.primary_key)
        parts = [f"ordered by {key}"]
        store = getattr(self.table, "store", None)
        if store is not None:
            parts.append(f"storage={store.engine_name}")
        return (
            f"Clustered Index Scan [{self.table.schema.name}] "
            f"({'; '.join(parts)})",
            (),
        )


class ClusteredIndexSeek(_TableLeaf, PhysicalOperator):
    """Range seek on the clustered key: an equality prefix plus at most
    a range on the next key column, either end open or exclusive (an
    equality seek is the range from its prefix to itself)."""

    def __init__(
        self,
        table: Table,
        lo: Optional[Tuple[Any, ...]],
        hi: Optional[Tuple[Any, ...]],
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        alias: Optional[str] = None,
    ):
        super().__init__(table, alias)
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        key_indexes = tuple(table.schema.key_indexes)
        bound = _shared_prefix(lo, hi)
        # an equality-bound key prefix is constant across the output, so
        # the remaining key columns alone determine the order — this is
        # what lets a GROUP BY on a later key column stream
        self.ordering = key_indexes[bound:] or key_indexes
        self.bound_columns = frozenset(key_indexes[:bound])

    def bounds(self) -> Tuple[Any, ...]:
        """The constructor's arguments after ``table`` that rebuild this
        seek on an exchange worker: ``(lo, hi)`` with this execution's
        parameter values, then both inclusive flags only when an end is
        exclusive (an inclusive range ships what it always did)."""
        bounds = (_resolve_key(self.lo), _resolve_key(self.hi))
        if self.lo_inclusive and self.hi_inclusive:
            return bounds
        return bounds + (self.lo_inclusive, self.hi_inclusive)

    def execute(self):
        return batches_from_runs(
            self.table.seek_batches(
                _resolve_key(self.lo),
                _resolve_key(self.hi),
                self.part,
                self.lo_inclusive,
                self.hi_inclusive,
            )
        )

    def estimate(self, cost, child_rows):
        """Counted in the B+tree over this execution's bounds (the
        conjuncts a seek consumes are one predicate, not independent
        factors); never below one row, so a full key equality is one."""
        rows = max(self.table.key_count(*self.bounds()), 1)
        return rows, cost.seek_cost(rows)

    def explain_node(self):
        lo = repr(self.lo) if self.lo_inclusive else f"after {self.lo!r}"
        hi = repr(self.hi) if self.hi_inclusive else f"before {self.hi!r}"
        return (
            f"Clustered Index Seek [{self.table.schema.name}] ({lo} .. {hi})",
            (),
        )


class SecondaryIndexSeek(_TableLeaf, PhysicalOperator):
    """Equality seek through a non-clustered index: the index range
    yields rids, rows come from the heap (a bookmark lookup per row)."""

    def __init__(
        self,
        table: Table,
        index_name: str,
        lo: Optional[Tuple[Any, ...]],
        hi: Optional[Tuple[Any, ...]],
        alias: Optional[str] = None,
    ):
        super().__init__(table, alias)
        self.index_name = index_name
        self.lo = lo
        self.hi = hi
        # rows arrive in index-key order, but downstream consumers care
        # about base-column order only when the seek key is a prefix of
        # it — keep it conservative
        self.ordering = ()

    def execute(self):
        return batches_from_rows(
            self.table.index_seek(
                self.index_name, _resolve_key(self.lo), _resolve_key(self.hi)
            )
        )

    def estimate(self, cost, child_rows):
        """Priced from the column statistics of the key prefix this
        execution binds."""
        schema = self.table.schema
        names = [
            schema.columns[i].name
            for i in self.table.secondary_indexes()[self.index_name]
        ]
        bound = zip(names, _resolve_key(self.lo))
        rows = cost.seek_rows(self.table, bound)
        return rows, cost.seek_cost(rows, secondary=True)

    def explain_node(self):
        return (
            f"Index Seek [{self.table.schema.name}.{self.index_name}] "
            f"({self.lo!r} .. {self.hi!r}) + RID Lookup",
            (),
        )


class Filter(PhysicalOperator):
    """Row filter; keeps the rows whose flag — the batch-compiled
    predicate's value for that row — is exactly True."""

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: BatchFn,
        label: str = "",
        expr: Any = None,
        conjuncts: Sequence[Any] = (),
    ):
        super().__init__()
        self.child = child
        self.predicate = predicate
        #: the predicate's AST, which is what ships to an exchange
        #: worker (it compiles its own closures); None: cannot ship
        self.expr = expr
        #: the conjuncts the predicate tests, which price its rows
        self.conjuncts = conjuncts
        self.label = label
        self.columns = list(child.columns)
        self.ordering = child.ordering
        self.bound_columns = child.bound_columns

    def execute(self):
        predicate = self.predicate
        for batch in self.child.iter_batches():
            flags = predicate(batch)
            kept = RowBatch(
                row for row, flag in zip(batch, flags) if flag is True
            )
            if kept:
                yield kept

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        """Its input's rows reduced by its conjuncts, priced with the
        statistics of the table leaf under it; over a full scan the
        clustered-key rule of ``scan_output`` holds too."""
        first = child_rows[0]
        child = self.child
        if isinstance(child, (TableScan, ClusteredIndexScan)):
            rows = cost.scan_output(child.table, self.conjuncts)
        else:
            table = getattr(child, "table", None)
            rows = cost.filter_output(first, self.conjuncts, table)
        return rows, first * cost.filter_row_cost

    def explain_node(self):
        suffix = f" ({self.label})" if self.label else ""
        return f"Filter{suffix}", (self.child,)


class Project(PhysicalOperator):
    """Compute scalar expressions over each input batch: every
    batch-compiled expression yields one output column, re-zipped into
    rows."""

    def __init__(
        self,
        child: PhysicalOperator,
        fns: Sequence[BatchFn],
        names: Sequence[str],
    ):
        super().__init__()
        if len(fns) != len(names):
            raise ExecutionError("projection arity mismatch")
        self.child = child
        self.fns = list(fns)
        self.columns = list(names)
        # projection generally destroys known ordering (conservative)
        self.ordering = ()

    def execute(self):
        fns = self.fns
        for batch in self.child.iter_batches():
            if len(fns) == 1:
                yield RowBatch((v,) for v in fns[0](batch))
            else:
                yield RowBatch(zip(*[fn(batch) for fn in fns]))

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        return first, first * cost.project_row_cost

    def explain_node(self):
        return f"Compute Scalar ({', '.join(self.columns)})", (self.child,)


class Sort(PhysicalOperator):
    """Blocking full sort."""

    blocking = True

    def __init__(
        self,
        child: PhysicalOperator,
        key_fns: Sequence[RowFn],
        descending: Sequence[bool],
        label: str = "",
    ):
        super().__init__()
        self.child = child
        self.key_fns = list(key_fns)
        self.descending = list(descending)
        self.label = label
        self.columns = list(child.columns)

    @staticmethod
    def _sort_key(value: Any) -> Tuple[int, Any]:
        # NULLs sort first (ascending), mirroring T-SQL
        return (0, 0) if value is None else (1, value)

    def execute(self):
        rows = list(self.child)
        # stable multi-key sort: apply keys right-to-left
        for fn, desc in reversed(list(zip(self.key_fns, self.descending))):
            rows.sort(key=lambda r: self._sort_key(fn(r)), reverse=desc)
        yield from batches_from_rows(rows)

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        return first, _sort_cost(cost, first)

    def explain_node(self):
        suffix = f" ({self.label})" if self.label else ""
        return f"Sort{suffix}", (self.child,)


class Top(PhysicalOperator):
    """TOP n."""

    def __init__(self, child: PhysicalOperator, n: int):
        super().__init__()
        self.child = child
        self.n = n
        self.columns = list(child.columns)
        self.ordering = child.ordering

    def execute(self):
        remaining = self.n
        if remaining <= 0:
            return
        for batch in self.child.iter_batches():
            if len(batch) >= remaining:
                # stop mid-batch: trim and abandon the child stream
                yield RowBatch(batch[:remaining])
                return
            remaining -= len(batch)
            yield batch

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        return min(self.n, child_rows[0]), 0.0

    def explain_node(self):
        return f"Top ({self.n})", (self.child,)


class Distinct(PhysicalOperator):
    """Hash-based duplicate elimination."""

    blocking = True

    def __init__(self, child: PhysicalOperator):
        super().__init__()
        self.child = child
        self.columns = list(child.columns)

    def execute(self):
        seen: set = set()
        for batch in self.child.iter_batches():
            fresh = RowBatch(
                row for row in dict.fromkeys(batch) if row not in seen
            )
            if fresh:
                seen.update(fresh)
                yield fresh

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        return first, first * cost.agg_row_cost

    def explain_node(self):
        return "Hash Match (Distinct)", (self.child,)


class RowNumberWindow(PhysicalOperator):
    """``ROW_NUMBER() OVER (ORDER BY ...)``: sort, then number.

    SQL Server plans this as Sort → Segment → Sequence Project; we fold
    the numbering into one operator and append the number as a trailing
    output column.
    """

    blocking = True

    def __init__(
        self,
        child: PhysicalOperator,
        order_fns: Sequence[RowFn],
        descending: Sequence[bool],
        output_name: str = "row_number",
    ):
        super().__init__()
        self.child = child
        self.order_fns = list(order_fns)
        self.descending = list(descending)
        self.columns = list(child.columns) + [output_name]

    def execute(self):
        rows = list(self.child)
        for fn, desc in reversed(list(zip(self.order_fns, self.descending))):
            rows.sort(key=lambda r: Sort._sort_key(fn(r)), reverse=desc)
        yield from batches_from_rows(
            row + (number,) for number, row in enumerate(rows, start=1)
        )

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        return first, _sort_cost(cost, first)

    def explain_node(self):
        return "Sequence Project (ROW_NUMBER)", (self.child,)


class HashAggregate(PhysicalOperator):
    """Hash Match (Aggregate): group rows by key, run aggregate states.

    Blocking: the full input is consumed before the first group emerges.
    Output columns are the group-by values followed by one column per
    aggregate.
    """

    blocking = True

    def __init__(
        self,
        child: PhysicalOperator,
        group_fns: Sequence[RowFn],
        group_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        agg_names: Sequence[str],
        group_indexes: Optional[Sequence[int]] = None,
        group_exprs: Sequence[Any] = (),
    ):
        super().__init__()
        self.child = child
        self.group_fns = list(group_fns)
        self.aggregates = list(aggregates)
        self.columns = list(group_names) + list(agg_names)
        #: when every group expression is a plain column, its row
        #: indexes: keys are then read by position, not per closure
        self.group_indexes = tuple(group_indexes) if group_indexes else None
        #: the group keys' ASTs, which price the groups
        self.group_exprs = tuple(group_exprs)

    def execute(self):
        key_of = group_key(self.group_fns, self.group_indexes)
        getters = [batch_getter(spec) for spec in self.aggregates]
        groups = GroupTable(map(make_batch_accumulator, self.aggregates))
        for batch in self.child.iter_batches():
            groups.add(
                list(map(key_of, batch)), [getter(batch) for getter in getters]
            )
        yield from batches_from_rows(
            groups.rows(bare_keys=len(self.group_fns) == 1)
        )

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        rows = cost.group_rows(self.child, self.group_exprs)
        return rows, first * cost.agg_row_cost + rows * cost.output_row_cost

    def explain_node(self):
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Hash Match (Aggregate: {aggs})", (self.child,)


class EncodedAggregate(HashAggregate):
    """Hash aggregation fed segment by segment from a column scan.

    The child must be a :class:`ColumnStoreScan`, the group key a single
    plain column, and every aggregate a built-in, non-DISTINCT one over
    a plain column (or ``COUNT(*)``).  Instead of materialising row
    tuples, each surviving segment feeds the batch accumulators
    column-wise from the cached decoded vectors, and only the columns
    an aggregate references are ever gathered, so late materialization
    ends *inside* the aggregate.

    Groups are emitted in global first-occurrence order, exactly like
    :class:`HashAggregate`, keeping both aggregation paths bit-identical.
    """

    @staticmethod
    def eligible(child, group_indexes, aggregates) -> bool:
        """May this (child, groups, aggs) combination run encoded?"""
        if not isinstance(child, ColumnStoreScan):
            return False
        if group_indexes is None or len(group_indexes) != 1:
            return False
        return all(
            spec.uda_class is None
            and not spec.distinct
            and (spec.star or spec.arg_index is not None)
            for spec in aggregates
        )

    def execute(self):
        scan = self.child
        group_schema = scan.schema_index(self.group_indexes[0])
        # argument schema position per aggregate, None for *
        arg_schemas = [
            None if spec.star else scan.schema_index(spec.arg_index)
            for spec in self.aggregates
        ]
        groups = GroupTable(map(make_batch_accumulator, self.aggregates))
        for view in scan.iter_segment_views():
            groups.add(
                view.gather(group_schema),
                [
                    None if arg is None else view.gather(arg)
                    for arg in arg_schemas
                ],
            )
        yield from batches_from_rows(groups.rows(bare_keys=True))

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        rows = cost.group_rows(self.child, self.group_exprs)
        return rows, (
            first * cost.encoded_agg_row_cost + rows * cost.output_row_cost
        )

    def explain_node(self):
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Columnstore Aggregate ({aggs})", (self.child,)


class StreamAggregate(PhysicalOperator):
    """Stream Aggregate: requires input grouped (sorted) by the group key.

    Non-blocking per group — each group is emitted as soon as the key
    changes, which is what makes the sliding-window consensus plan
    stream. Also handles the no-GROUP-BY scalar aggregate case.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_fns: Sequence[RowFn],
        group_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        agg_names: Sequence[str],
        group_exprs: Sequence[Any] = (),
    ):
        super().__init__()
        self.child = child
        self.group_fns = list(group_fns)
        self.aggregates = list(aggregates)
        self.columns = list(group_names) + list(agg_names)
        self.group_exprs = tuple(group_exprs)

    def execute(self):
        return batches_from_rows(self._groups())

    @staticmethod
    def _runs(batch, key_of):
        """``(key, rows)`` per run of rows with equal ``key_of(row)`` in
        ``batch``; a scalar aggregate (no ``key_of``) has one run, of key
        ``()``."""
        if key_of is None:
            yield (), batch
            return
        start = 0
        for key, run in groupby(map(key_of, batch)):
            end = start + len(list(run))
            yield key, batch[start:end]
            start = end

    def _groups(self):
        specs = self.aggregates
        getters = [batch_getter(spec) for spec in specs]
        # keyed as the hash aggregates key: one group expression by its
        # bare value, several by their tuple
        key_of = group_key(self.group_fns) if self.group_fns else None
        bare = len(self.group_fns) == 1

        def group(key):
            return GroupTable(map(make_batch_accumulator, specs), [key])

        # a scalar aggregate is the one group (), reported on empty input
        current, groups = (), None if self.group_fns else group(())
        for batch in self.child.iter_batches():
            for key, run in self._runs(batch, key_of):
                if groups is None or key != current:
                    if groups is not None:
                        yield from groups.rows(bare)
                    current, groups = key, group(key)
                groups.add([current] * len(run), [get(run) for get in getters])
        if groups is not None:
            yield from groups.rows(bare)

    def children(self):
        return (self.child,)

    def estimate(self, cost, child_rows):
        first = child_rows[0]
        rows = cost.group_rows(self.child, self.group_exprs)
        return rows, first * cost.stream_agg_row_cost

    def explain_node(self):
        aggs = ", ".join(spec.describe() for spec in self.aggregates)
        return f"Stream Aggregate ({aggs})", (self.child,)
