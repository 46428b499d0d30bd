"""Query planner: SELECT AST → bound record → physical operator tree.

Planning runs two compile phases, then lowers once:

1. :func:`~repro.engine.optimizer.logical.lower_select` binds the AST
   into a flat record — FROM units, JOIN/CROSS APPLY steps, WHERE
   conjuncts, aggregate and window calls — and
   :func:`~repro.engine.optimizer.rules.apply_rewrites` places each
   WHERE conjunct on the first unit or join that binds it and prunes
   unread columns; the SQL lint reads that record;
2. this module lowers the record straight to physical operators, in
   SQL's semantic order: FROM, the WHERE left over, aggregation,
   HAVING, windows, ORDER BY with the projection, DISTINCT, TOP.
   Access paths and joins are chosen by one rule: build each eligible
   candidate as the operator subtree it would put in the plan, annotate
   it with the cost model of :mod:`repro.engine.optimizer.cost` (fed by
   the table statistics ``UPDATE STATISTICS`` collects), and keep the
   first candidate of least ``est_cost``. The planner prices nothing
   itself: each operator answers for its rows and cost (``estimate``),
   the stored column a reference reads (``stored_column``) and the
   columns an equality seek pins (``bound_columns``). The candidates,
   in order:

   - **access paths** — the heap scan under a Filter holding every
     conjunct, a clustered range seek (its rows counted in the B+tree),
     an equality seek per secondary index (its rows from column
     statistics); a tie keeps the scan. A column table has no
     alternative: its scan takes every conjunct the segment matcher can
     test. Both read conjuncts through ``optimizer.cost.sarg``;
   - **join algorithm** — a Merge Join where both inputs deliver
     join-key order (Figure 10's plan), the Hash Join, a lookup per
     outer row where the equi keys are the inner table's whole
     clustered key; non-equi predicates stay as residuals.

   The other decisions are rules, not prices:

   - **join order** — the units joined before any CROSS APPLY, lowered
     to their access paths, join greedily by ``est_rows`` along
     equality conjuncts, each join-level conjunct placed again by
     :func:`~repro.engine.optimizer.rules.place_conjuncts`;
   - **aggregation strategy** — ordered-input UDAs get a Stream
     Aggregate (sorting first if needed); parallel-safe aggregations
     take the exchange-based parallel plan (Figure 9) exactly when an
     ``OPTION (MAXDOP n)`` hint with n > 1 asks for it (parallelism is
     opt-in); otherwise a column scan keeps its aggregate on the
     segments' decoded vectors;
   - **windows** — ``ROW_NUMBER() OVER (ORDER BY ...)`` plans as a
     Sequence Project above the aggregation.

``CostModel.annotate`` alone fills every node's ``est_rows`` / ``est_cost``;
``explain()`` renders the tree with those annotations, and EXPLAIN
ANALYZE adds the actual row counts observed during execution.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import tracing
from .errors import BindError
from .executor import (
    AggregateSpec,
    ClusteredIndexScan,
    ClusteredIndexSeek,
    ColumnStoreScan,
    CrossApply,
    Distinct,
    EncodedAggregate,
    Filter,
    HashAggregate,
    HashJoin,
    KeyLookupJoin,
    MaterializedResult,
    MergeJoin,
    ParallelHashAggregate,
    PhysicalOperator,
    Project,
    RowNumberWindow,
    SecondaryIndexSeek,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
    TvfScan,
)
from .expressions import (
    BoundRef,
    ColumnRef,
    Expr,
    ExpressionCompiler,
    Literal,
    Parameter,
    WindowCall,
    expression_to_sql,
    rewrite,
)
from .optimizer import CostModel, apply_rewrites, lower_select
from .optimizer.cost import range_mismatch, sarg
from .optimizer.logical import BoundSelect, FromUnit, bind_udas, conjoin
from .optimizer.rules import equi_refs, is_equi_between, place_conjuncts
from .storage.base import STORAGE_COLUMN
from .storage.columnstore import PushedPredicate
from .types import value_order_family
from .sql import ast
from .verify import plan_sanitizer, sql_lint
from .verify.diagnostics import finding, parse_suppressions


#: scan output position → ``(conjunct, [(is_lower, bound, inclusive)])``
_KeyConjuncts = Dict[int, List[Tuple[Expr, List[Tuple[Any, Any, bool]]]]]


def _slot_or_value(bound: Literal) -> Any:
    """A bound's value, or the parameter slot itself: a cached seek or
    column scan reads this execution's value from it."""
    return bound if isinstance(bound, Parameter) else bound.value


class _Relabel(PhysicalOperator):
    """Expose a child operator under new column names (derived tables)."""

    def __init__(self, child: PhysicalOperator, columns: Sequence[str]):
        super().__init__()
        self.child = child
        self.columns = list(columns)
        self.ordering = child.ordering

    def execute(self):
        return self.child.iter_batches()

    def children(self):
        return (self.child,)

    def explain_node(self):
        label, _ = self.child.explain_node()
        return label, self.child.children()


class Planner:
    """Plans statements against one database instance."""

    def __init__(self, database):
        self.database = database
        self.cost = CostModel()
        #: optimizer notes for the plan being built (EXPLAIN renders them
        #: as ``note:`` lines under the operator tree)
        self._notes: List[str] = []
        #: verifier findings for the statement being planned
        self._findings: list = []

    # ------------------------------------------------------------------ SELECT

    def plan_select(self, stmt: ast.SelectStmt) -> PhysicalOperator:
        """Plan one SELECT. Its findings — lint, the forced-serial
        aggregate, and the plan sanitizer under ``SET PLAN_VERIFY ON``
        — form one list, filtered by the statement's ``-- lint:
        ignore`` pragmas and recorded once, even when lowering raises
        (a cartesian join is linted, then refused). The sanitizer runs
        on the annotated plan with the optimizer's notes attached;
        EXPLAIN shows the findings after those notes."""
        database = self.database
        self._notes = []
        self._findings = findings = []
        with tracing.span("plan statement", category="plan"):
            try:
                bound = lower_select(stmt, database.catalog)
                apply_rewrites(bound, database.catalog, self._notes)
                findings += sql_lint.lint_plan(bound, database.catalog)
                op = self._lower_select(bound)
                self.cost.annotate(op)
                op.plan_notes = list(self._notes)
                if database.plan_verify:
                    findings += plan_sanitizer.sanitize_plan(op, database)
            finally:
                if findings:
                    source_sql = getattr(stmt, "source_sql", "") or ""
                    ignored = parse_suppressions(source_sql)
                    findings = [d for d in findings if d.rule not in ignored]
                    database.record_lint(
                        findings, source=" ".join(source_sql.split())[:200]
                    )
        op.plan_notes += [str(d) for d in findings]
        return op

    def _warn_serial_forced(self, uda_name: str) -> None:
        forced = finding(
            "LINT-SERIAL-AGG",
            uda_name,
            f"serial aggregate forced — uda {uda_name!r} has no "
            "verified merge",
        )
        if forced not in self._findings:
            self._findings.append(forced)

    def explain_select(self, stmt: ast.SelectStmt) -> str:
        return self.plan_select(stmt).explain()

    # -- the spine ---------------------------------------------------------------------

    def _lower_select(self, bound: BoundSelect) -> PhysicalOperator:
        """Lower one bound SELECT in SQL's semantic order: FROM, the
        WHERE conjuncts no unit or join took, aggregation, HAVING,
        windows, ORDER BY with the projection, DISTINCT, TOP."""
        stmt = bound.stmt
        op = self._apply_residual_where(self._lower_from(bound), bound.where)
        subst: Dict[str, BoundRef] = {}
        if stmt.group_by or bound.aggregates:
            op, subst = self._apply_group_by(op, bound)
        if stmt.having is not None:
            op = self._lower_having(op, stmt.having, subst)
        if bound.windows:
            op, windows = self._apply_windows(op, bound.windows, subst)
            subst.update(windows)
        op = self._apply_order_project(op, stmt, subst)
        if stmt.distinct:
            op = Distinct(op)
        if stmt.top is not None:
            op = Top(op, stmt.top)
        return op

    # -- FROM --------------------------------------------------------------------

    def _lower_from(self, bound: BoundSelect) -> PhysicalOperator:
        """Each unit at its access path under the conjuncts placed on it,
        then the steps: the JOINs before the first CROSS APPLY in the
        order :meth:`_join_order` picks, the rest as written."""
        ops = {unit: self._lower_unit(unit) for unit in bound.units}
        lead = next(
            (i for i, step in enumerate(bound.steps) if step.unit is None),
            len(bound.steps),
        )
        chain, placed = self._join_order(
            [ops[unit] for unit in bound.units[: lead + 1]],
            [step.conjuncts for step in bound.steps[:lead]],
        )
        joined = chain[0]
        for op, conjuncts in zip(chain[1:], placed):
            joined = self._make_join(joined, op, list(conjuncts))
        for step in bound.steps[lead:]:
            if step.unit is None:
                joined = self._plan_cross_apply(joined, step.source)
            else:
                joined = self._make_join(
                    joined, ops[step.unit], list(step.conjuncts)
                )
        return joined

    def _lower_unit(self, unit: FromUnit) -> PhysicalOperator:
        return self._apply_residual_where(self._access(unit), unit.conjuncts)

    def _access(self, unit: FromUnit) -> PhysicalOperator:
        source = unit.source
        if source is None:
            return MaterializedResult([], [()])  # constant one-row input
        if isinstance(source, ast.TableRef):
            store = getattr(unit.table, "store", None)
            scan_class = (
                ColumnStoreScan
                if store is not None
                and store.engine_name == STORAGE_COLUMN
                else TableScan
            )
            return scan_class(
                unit.table,
                alias=source.binding_name,
                projection=unit.required,
            )
        if isinstance(source, ast.TvfRef):
            tvf = self._tvf(source)
            args = self._eval_constant_args(source.args)
            return TvfScan(tvf, args, alias=source.binding_name)
        if isinstance(source, ast.SubqueryRef):
            inner = self._lower_select(unit.inner)
            alias = source.binding_name
            renamed = [
                f"{alias}.{c.rsplit('.', 1)[-1]}" for c in inner.columns
            ]
            return _Relabel(inner, renamed)
        data = self.database.read_bulk_file(source.path)  # OPENROWSET
        return MaterializedResult([unit.columns[0]], [(data,)])

    def _eval_constant_args(self, args: Sequence[Expr]) -> List[Any]:
        def no_columns(ref: ColumnRef) -> int:
            raise BindError(
                f"TVF arguments in FROM must be constants, found column {ref}"
            )

        compiler = ExpressionCompiler(
            no_columns, self.database.catalog.functions
        )
        return [compiler.compile(a)(()) for a in args]

    def _plan_cross_apply(
        self, outer: PhysicalOperator, source
    ) -> PhysicalOperator:
        tvf = self._tvf(source)
        compiler = ExpressionCompiler(
            outer.scope.resolve, self.database.catalog.functions
        )
        arg_fns = [compiler.compile(a) for a in source.args]
        return CrossApply(outer, tvf, arg_fns, alias=source.binding_name)

    def _tvf(self, source: ast.TvfRef):
        tvf = self.database.catalog.functions.tvf(source.name)
        if tvf is None:
            raise BindError(f"unknown table-valued function {source.name!r}")
        return tvf

    # -- joins -----------------------------------------------------------------------

    def _join_order(
        self, ops: List[PhysicalOperator], steps: List[List[Expr]]
    ) -> Tuple[List[PhysicalOperator], List[List[Expr]]]:
        """``(units, each join's conjuncts)``, greedily: the smallest
        ``est_rows`` first, then each time the smallest unit an equality
        conjunct connects to those before it, the written joins'
        conjuncts placed again by :func:`place_conjuncts`. The written
        ``ops`` and ``steps`` stand for two units, when the greedy order
        is the written one, and wherever it needs a cross product, a
        step without an equality, or a conjunct the first unit alone
        binds or no join does."""
        if len(ops) < 3:
            return ops, steps
        rows = {op: self.cost.annotate(op).est_rows for op in ops}
        scopes = {op: op.scope for op in ops}
        pool = [c for conjuncts in steps for c in conjuncts]
        order = [min(ops, key=rows.get)]
        bound = [scopes[order[0]]]  # bound[k] resolves order[:k + 1]
        while len(order) < len(ops):
            connected = [
                op for op in ops if op not in order and any(
                    is_equi_between(c, bound[-1], scopes[op]) for c in pool
                )
            ]
            if not connected:
                return ops, steps
            order.append(min(connected, key=rows.get))
            bound.append(bound[-1] + scopes[order[-1]])
        if order == ops or any(bound[0].binds(c) for c in pool):
            return ops, steps
        placed: List[List[Expr]] = [[] for _ in order[1:]]
        if place_conjuncts(bound[1:], placed, pool) or not all(
            any(is_equi_between(c, before, scopes[op]) for c in here)
            for before, op, here in zip(bound, order[1:], placed)
        ):
            return ops, steps
        return order, placed

    def _make_join(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        conjuncts: List[Expr],
    ) -> PhysicalOperator:
        equi: List[Tuple[ColumnRef, ColumnRef]] = []
        residual: List[Expr] = []
        for conjunct in conjuncts:
            pair = self._equi_pair(left, right, conjunct)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct)
        if not equi:
            raise BindError(
                "JOIN requires at least one equality predicate between the inputs"
            )
        left_refs, right_refs = zip(*equi)
        # equi keys are plain columns, so the hash join builds and probes
        # with positional getters
        candidates = [
            self._try_merge_join(left, right, equi),
            HashJoin(
                left,
                right,
                self._key_fns(left, left_refs),
                self._key_fns(right, right_refs),
                left_key_indexes=[left.scope.resolve(r) for r in left_refs],
                right_key_indexes=[right.scope.resolve(r) for r in right_refs],
                pairs=equi,
            ),
            self._try_key_lookup(left, right, equi),
        ]
        joined = self._cheapest(j for j in candidates if j is not None)
        if residual:
            joined = self._filter(joined, residual, role="join residual")
        return joined

    def _cheapest(
        self, candidates: Iterable[PhysicalOperator]
    ) -> PhysicalOperator:
        """The first of ``candidates`` — each the operator subtree it
        would put in the plan, annotated here — whose ``est_cost`` is
        least: the one rule choosing an access path or a join."""
        return min(candidates, key=lambda op: self.cost.annotate(op).est_cost)

    def _key_fns(
        self, op: PhysicalOperator, refs: Sequence[ColumnRef]
    ) -> List[Callable]:
        compiler = ExpressionCompiler(
            op.scope.resolve, self.database.catalog.functions
        )
        return [compiler.compile(ref) for ref in refs]

    def _equi_pair(
        self, left: PhysicalOperator, right: PhysicalOperator, conjunct: Expr
    ) -> Optional[Tuple[ColumnRef, ColumnRef]]:
        refs = equi_refs(conjunct)
        if refs is None:
            return None
        a, b = refs
        if a in left.scope and b in right.scope:
            return (a, b)
        if b in left.scope and a in right.scope:
            return (b, a)
        return None

    def _try_merge_join(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        equi: Sequence[Tuple[ColumnRef, ColumnRef]],
    ) -> Optional[MergeJoin]:
        left_refs, right_refs = zip(*equi)
        left_ordered = self._ordered_on(left, left_refs)
        if left_ordered is None:
            return None
        right_ordered = self._ordered_on(right, right_refs)
        if right_ordered is None:
            return None
        return MergeJoin(
            left_ordered,
            right_ordered,
            self._key_fns(left_ordered, left_refs),
            self._key_fns(right_ordered, right_refs),
            pairs=equi,
        )

    def _try_key_lookup(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        equi: Sequence[Tuple[ColumnRef, ColumnRef]],
    ) -> Optional[KeyLookupJoin]:
        """A key-lookup join when the inner side is a row-store table
        scan (under at most its pushed filter) and the equi keys cover
        each clustered-key column exactly once, with key types that
        compare, so that index equality is hash-join equality."""
        scan = right.child if isinstance(right, Filter) else right
        if not isinstance(scan, TableScan) or scan.table.schema.heap:
            return None
        schema = scan.table.schema
        outer_of: Dict[str, ColumnRef] = {}
        for left_ref, right_ref in equi:
            _table, column = right.stored_column(right_ref)
            _table, outer = left.stored_column(left_ref) or (None, None)
            if (
                outer is None
                or outer.sql_type.order_family != column.sql_type.order_family
            ):
                return None
            outer_of[column.name.lower()] = left_ref
        key = [c.lower() for c in schema.primary_key]
        if len(equi) != len(key) or set(outer_of) != set(key):
            return None
        positions = [left.scope.resolve(outer_of[c]) for c in key]
        return KeyLookupJoin(left, right, positions, pairs=equi)

    def _ordered_on(
        self, op: PhysicalOperator, refs: Sequence[ColumnRef]
    ) -> Optional[PhysicalOperator]:
        """Return a (possibly replaced) operator delivering rows ordered
        by ``refs``, or None when order cannot be obtained cheaply.

        Columns bound to constants by an equality seek are trivially
        ordered, so they are skipped when matching the requirement."""
        indexes = tuple(op.scope.find(r) for r in refs)
        if None in indexes:
            return None
        effective = tuple(i for i in indexes if i not in op.bound_columns)
        if op.ordering[: len(effective)] == effective:
            return op
        # Upgrade a bare heap scan to a clustered scan when the clustered
        # key leads with the join columns.
        if isinstance(op, TableScan):
            names = [op.columns[i].rsplit(".", 1)[-1] for i in indexes]
            table = op.table
            if not table.schema.heap and tuple(
                c.lower() for c in table.schema.primary_key[: len(names)]
            ) == tuple(n.lower() for n in names):
                # keep the scan's projection so column positions — which
                # expressions above may already be compiled against —
                # stay identical across the upgrade
                projection = None
                if op.projection is not None:
                    projection = [
                        table.schema.column_names[i] for i in op.projection
                    ]
                upgraded = ClusteredIndexScan(
                    table, alias=op.alias, projection=projection
                )
                if upgraded.ordering[: len(effective)] != effective:
                    return None
                return upgraded
        if isinstance(op, Filter):
            upgraded = self._ordered_on(op.child, refs)
            if upgraded is op.child:
                return op
            if upgraded is not None:
                return Filter(
                    upgraded, op.predicate, op.label, op.expr, op.conjuncts
                )
        return None

    # -- WHERE ------------------------------------------------------------------------

    def _apply_residual_where(
        self, op: PhysicalOperator, conjuncts: List[Expr]
    ) -> PhysicalOperator:
        if not conjuncts:
            return op
        # a statement that cannot compare its rows gets no access path
        # either: the Filter raises on the first row it is handed
        mismatch = range_mismatch(conjuncts, op.stored_column)
        if isinstance(op, (TableScan, ColumnStoreScan)) and mismatch is None:
            op, conjuncts = self._cheapest_access(op, conjuncts)
        return self._filter(op, conjuncts, mismatch) if conjuncts else op

    def _filter(
        self, op: PhysicalOperator, conjuncts: List[Expr], mismatch=None,
        role=None,
    ) -> Filter:
        """A Filter testing ``conjuncts`` over ``op``, labelled with their
        text (truncated to 60 characters), after ``role`` when given
        (``join residual: …``); a :func:`range_mismatch` predicate
        replaces the compiled one, and then nothing ships."""
        expr = conjoin(conjuncts)
        label = expression_to_sql(expr)
        label = label if len(label) <= 60 else label[:57] + "..."
        if role is not None:
            label = f"{role}: {label}"
        if mismatch is not None:
            return Filter(op, mismatch, label, None, conjuncts)
        library = self.database.catalog.functions
        compiled = ExpressionCompiler(op.scope.resolve, library).compile_batch
        return Filter(op, compiled(expr), label, expr, conjuncts)

    @staticmethod
    def _key_conjuncts(
        scan: TableScan, conjuncts: List[Expr]
    ) -> _KeyConjuncts:
        """Scan output position → ``(conjunct, ends)`` for every conjunct
        a seek may consume on that column, in conjunct order (ends as
        ``Sarg.ends`` gives them, bounds as values or slots).

        One rule makes a conjunct eligible, for equality and range ends,
        clustered and secondary seeks alike: every bound is a non-NULL
        literal or parameter slot whose value shares the column's
        ``SqlType.order_family``. The B+tree key is the value a scan
        decodes, so the seek then matches and orders rows the way the
        Filter it replaces compares them; any other conjunct stays in
        that Filter. Parameter slots stay nodes, so a cached seek reads
        this execution's value (the plan cache keys a statement by its
        literals' kinds, so the family holds on every hit)."""
        columns = scan.table.schema.columns
        found: _KeyConjuncts = {}
        for conjunct in conjuncts:
            decoded = sarg(conjunct)
            ref = decoded.column() if decoded is not None else None
            position = scan.scope.find(ref) if ref is not None else None
            ends = decoded.ends() if position is not None else ()
            if not ends:
                continue
            stored = scan.projection[position] if scan.projection else position
            family = columns[stored].sql_type.order_family
            if family is None or any(
                value_order_family(bound.value) != family
                for _is_lower, bound, _inclusive in ends
            ):
                continue
            found.setdefault(position, []).append((conjunct, [
                (is_lower, _slot_or_value(bound), inclusive)
                for is_lower, bound, inclusive in ends
            ]))
        return found

    @staticmethod
    def _seek_bounds(
        scan: TableScan,
        found: _KeyConjuncts,
        key: Sequence[str],
        ranged: bool,
    ) -> Optional[Tuple[Any, Any, bool, bool, List[Expr]]]:
        """``(lo, hi, lo_inclusive, hi_inclusive, consumed)`` of the seek
        the :meth:`_key_conjuncts` ``found`` allow on the index columns
        ``key``: the longest equality-bound prefix, extended (when
        ``ranged``) by at most one lower and one upper end on the next
        key column (an equality seek is the range from its prefix to
        itself); None when there is neither."""
        prefix: List[Any] = []
        ends: Dict[bool, Tuple[Any, bool]] = {}
        consumed: List[Expr] = []
        for name in key:
            on_column = found.get(scan.scope.find(ColumnRef(name)), [])
            equal = [
                (conjunct, column_ends[0][1])
                for conjunct, column_ends in on_column
                if column_ends[0][0] is None  # column = constant
            ]
            if equal:
                conjunct, bound = equal[0]
                prefix.append(bound)
                consumed.append(conjunct)
                continue
            for conjunct, column_ends in on_column if ranged else ():
                if any(side in ends for side, _b, _i in column_ends):
                    continue
                for is_lower, bound, inclusive in column_ends:
                    ends[is_lower] = (bound, inclusive)
                consumed.append(conjunct)
            break
        if not consumed:
            return None
        # one tuple for both bounds of an equality seek: an exchange
        # pickles it once
        shared = tuple(prefix)

        def end(is_lower: bool) -> Tuple[Optional[Tuple[Any, ...]], bool]:
            if is_lower in ends:
                bound, inclusive = ends[is_lower]
                return shared + (bound,), inclusive
            return shared or None, True

        (lo, lo_inclusive), (hi, hi_inclusive) = end(True), end(False)
        return lo, hi, lo_inclusive, hi_inclusive, consumed

    def _cheapest_access(
        self, scan: PhysicalOperator, conjuncts: List[Expr]
    ) -> Tuple[PhysicalOperator, List[Expr]]:
        """The cheapest reader of ``scan``'s rows under ``conjuncts``,
        and the conjuncts it leaves to a Filter.

        A column table's scan takes every conjunct the segment matcher
        can test — a column against non-NULL constants (``col <> NULL``
        must match nothing, which the three-valued Filter gets right but
        a two-valued matcher would not) and a hashable IN list — so that
        zone maps prune whole segments and the survivors are tested
        before any other column is decoded. A heap scan's candidates, in
        this order: the scan, priced with every conjunct in its Filter
        (whose predicate only a kept scan compiles); a clustered range
        seek; an equality seek on each secondary index. A seek is one
        where :meth:`_seek_bounds` finds bounds on its key; it prices
        the rows they reach, without the Filter its leftover conjuncts
        get."""
        if isinstance(scan, ColumnStoreScan):
            left = []
            for conjunct in conjuncts:
                decoded = sarg(conjunct)
                ref = decoded.column() if decoded is not None else None
                position = scan.scope.find(ref) if ref is not None else None
                if position is None or any(
                    bound.value is None for bound in decoded.bounds
                ):
                    left.append(conjunct)
                    continue
                op, values = decoded.op, list(map(_slot_or_value, decoded.bounds))
                if op == "in" and not any(
                    isinstance(value, Parameter) for value in values
                ):
                    try:
                        value: Any = frozenset(values)
                    except TypeError:
                        left.append(conjunct)
                        continue
                elif op in ("in", "between"):
                    value = tuple(values)
                else:
                    value = values[0] if values else None
                scan.push([PushedPredicate(
                    scan.schema_index(position), op, value,
                    label=expression_to_sql(conjunct),
                )], [conjunct])
            return scan, left
        found = self._key_conjuncts(scan, conjuncts)
        if not found:
            return scan, conjuncts
        table = scan.table
        schema = table.schema
        keys = {
            name: [schema.columns[i].name for i in positions]
            for name, positions in table.secondary_indexes().items()
        }
        if not schema.heap and schema.primary_key:
            keys = {None: schema.primary_key, **keys}
        filtered = Filter(scan, None)
        candidates = {filtered: conjuncts}
        for name, key in keys.items():
            bounds = self._seek_bounds(scan, found, key, ranged=name is None)
            if bounds is None:
                continue
            lo, hi, lo_inclusive, hi_inclusive, consumed = bounds
            seek = (
                ClusteredIndexSeek(
                    table, lo, hi, lo_inclusive, hi_inclusive, alias=scan.alias
                )
                if name is None
                else SecondaryIndexSeek(table, name, lo, hi, alias=scan.alias)
            )
            consumed_ids = {id(c) for c in consumed}
            candidates[seek] = [
                c for c in conjuncts if id(c) not in consumed_ids
            ]
        best = self._cheapest(candidates)
        return (scan if best is filtered else best), candidates[best]

    # -- GROUP BY / aggregates -----------------------------------------------------------

    def _apply_group_by(
        self, op: PhysicalOperator, bound: BoundSelect
    ) -> Tuple[PhysicalOperator, Dict[str, BoundRef]]:
        library = self.database.catalog.functions
        compiler = ExpressionCompiler(op.scope.resolve, library)

        group_exprs = list(bound.stmt.group_by)
        group_fns = [compiler.compile(e) for e in group_exprs]
        group_names = [expression_to_sql(e) for e in group_exprs]
        group_indexes = None
        if group_exprs and all(isinstance(e, ColumnRef) for e in group_exprs):
            indexes = tuple(op.scope.find(e) for e in group_exprs)
            if None not in indexes:
                group_indexes = indexes
                group_fns = list(map(itemgetter, indexes))  # no Python frame

        specs: List[AggregateSpec] = []
        agg_names: List[str] = []
        subst: Dict[str, BoundRef] = {}
        for i, agg in enumerate(bound.aggregates.values()):
            uda_class = library.uda(agg.name)
            # a UDA takes its arguments as columns, a built-in per row
            compile_arg = compiler.compile_batch if uda_class else compiler.compile
            arg_fns = [compile_arg(a) for a in agg.args]
            # plain-column argument position, so the hash aggregates
            # extract the argument column without a per-row closure call
            arg_index = None
            if not agg.star and len(agg.args) == 1:
                arg = agg.args[0]
                if isinstance(arg, BoundRef):
                    arg_index = arg.index
                elif isinstance(arg, ColumnRef):
                    arg_index = op.scope.find(arg)
            specs.append(
                AggregateSpec(
                    agg.name,
                    arg_fns,
                    star=agg.star,
                    distinct=agg.distinct,
                    uda_class=uda_class,
                    arg_index=arg_index,
                    arg_exprs=agg.args,
                )
            )
            agg_names.append(f"$agg{i}")
        # group columns come first in aggregate output
        for i, text in enumerate(n.lower() for n in group_names):
            subst[text] = BoundRef(i, label=group_names[i])
        for i, text in enumerate(bound.aggregates.keys()):
            subst[text] = BoundRef(len(group_names) + i, label=agg_names[i])

        needs_order = any(s.requires_ordered_input for s in specs)
        all_parallel_safe = all(s.parallel_safe for s in specs)
        # only an OPTION (MAXDOP n > 1) hint asks for the exchange;
        # without one the aggregate is serial (encoded where eligible)
        dop = bound.stmt.maxdop or 1
        go_parallel = dop > 1
        ordered = self._ordered_on(op, group_exprs) if group_indexes else None

        # a UDA that *claims* parallel_safe but failed merge verification
        # falls out of all_parallel_safe (AggregateSpec consults
        # _merge_verified) — when that is what blocks an otherwise
        # parallel plan, say so
        if (
            not all_parallel_safe
            and not needs_order
            and group_fns
            and go_parallel
        ):
            for spec in specs:
                cls = spec.uda_class
                if (
                    cls is not None
                    and cls.parallel_safe
                    and not getattr(cls, "_merge_verified", True)
                ):
                    self._warn_serial_forced(getattr(cls, "name", spec.name))

        if needs_order and ordered is None and group_fns:
            # a scalar aggregate's one group is its input in arrival order
            ordered = Sort(
                op, group_fns, [False] * len(group_fns), label="for ordered UDA"
            )
        result: PhysicalOperator
        if all_parallel_safe and go_parallel and group_fns and not needs_order:
            # scalar aggregates stay serial; cheap anyway
            result = ParallelHashAggregate(
                op,
                group_fns,
                group_names,
                specs,
                agg_names,
                dop=dop,
                group_indexes=group_indexes,
                pool=getattr(self.database, "worker_pool", None),
                group_exprs=group_exprs,
            )
            # say at plan time whether the exchange will run on workers
            # and why not, in the verdict the operator reaches at
            # execution (a serial fallback must never be silent)
            note = result.tier().note
            if note is not None and note not in self._notes:
                self._notes.append(note)
        elif ordered is not None or not group_fns:
            # input in group order streams; a scalar aggregate emits
            # exactly one row, with NULL/0 results on empty input (SQL
            # semantics)
            result = StreamAggregate(
                op if ordered is None else ordered,
                group_fns,
                group_names,
                specs,
                agg_names,
                group_exprs=group_exprs,
            )
        else:
            hashed = (
                EncodedAggregate
                if EncodedAggregate.eligible(op, group_indexes, specs)
                else HashAggregate
            )
            result = hashed(
                op,
                group_fns,
                group_names,
                specs,
                agg_names,
                group_indexes=group_indexes,
                group_exprs=group_exprs,
            )
        return result, subst

    # -- windows ---------------------------------------------------------------------

    def _apply_windows(
        self,
        op: PhysicalOperator,
        windows: Dict[str, WindowCall],
        agg_subst: Dict[str, BoundRef],
    ) -> Tuple[PhysicalOperator, Dict[str, BoundRef]]:
        subst: Dict[str, BoundRef] = {}
        library = self.database.catalog.functions
        for text, window in windows.items():
            if window.name.lower() != "row_number":
                raise BindError(
                    f"unsupported window function {window.name!r}"
                )
            # substitute aggregate results into the OVER clause first; the
            # substitution key must be this *rebuilt* form, because that
            # is what projection expressions contain after their own
            # (bottom-up) aggregate substitution
            rebuilt = self._substitute(window, agg_subst)
            compiler = ExpressionCompiler(op.scope.resolve, library)
            order_fns = []
            descending = []
            for order_expr, desc in rebuilt.order_by:
                order_fns.append(compiler.compile(order_expr))
                descending.append(desc)
            op = RowNumberWindow(op, order_fns, descending)
            bound = BoundRef(len(op.columns) - 1, label="row_number")
            subst[expression_to_sql(rebuilt).lower()] = bound
            subst[text] = bound
        return op, subst

    # -- HAVING ----------------------------------------------------------------------

    def _lower_having(
        self, op: PhysicalOperator, having: Expr, subst: Dict[str, BoundRef]
    ) -> PhysicalOperator:
        library = self.database.catalog.functions
        bound = self._substitute(bind_udas(having, library), subst)
        compiler = ExpressionCompiler(op.scope.resolve, library)
        return Filter(
            op, compiler.compile_batch(bound), label="HAVING", conjuncts=[having]
        )

    # -- projection / order ----------------------------------------------------------------

    def _substitute(self, expr: Expr, subst: Dict[str, BoundRef]) -> Expr:
        if not subst:
            return expr

        def transform(node: Expr) -> Optional[Expr]:
            # any expression matching a computed value (group-by
            # expression, aggregate, window) is replaced by a reference
            # to the aggregate/window operator's output — this is what
            # lets GROUP BY CASE ... / SELECT CASE ... line up
            return subst.get(expression_to_sql(node).lower())

        return rewrite(expr, transform)

    def _apply_order_project(
        self,
        op: PhysicalOperator,
        stmt: ast.SelectStmt,
        subst: Dict[str, BoundRef],
    ) -> PhysicalOperator:
        library = self.database.catalog.functions
        compiler = ExpressionCompiler(op.scope.resolve, library)

        # Resolve select items against the current (pre-projection) op.
        fns: List[Callable] = []
        names: List[str] = []
        alias_exprs: Dict[str, Expr] = {}
        for item in stmt.items:
            if item.star:
                if stmt.group_by:
                    raise BindError("SELECT * is invalid with GROUP BY")
                for i, col in enumerate(op.columns):
                    if item.star_qualifier and not col.lower().startswith(
                        item.star_qualifier.lower() + "."
                    ):
                        continue
                    fns.append(lambda batch, j=i: [row[j] for row in batch])
                    names.append(col.rsplit(".", 1)[-1])
                continue
            expr = self._substitute(bind_udas(item.expr, library), subst)
            fns.append(compiler.compile_batch(expr))
            if item.alias:
                name = item.alias
                alias_exprs[item.alias.lower()] = expr
            elif isinstance(item.expr, ColumnRef):
                name = item.expr.name
            else:
                name = expression_to_sql(item.expr)
            names.append(name)

        # ORDER BY runs before projection (it may use non-projected values);
        # aliases resolve to their defining expressions.
        if stmt.order_by:
            order_fns = []
            descending = []
            for order_expr, desc in stmt.order_by:
                if (
                    isinstance(order_expr, ColumnRef)
                    and order_expr.qualifier is None
                    and order_expr.name.lower() in alias_exprs
                ):
                    bound = alias_exprs[order_expr.name.lower()]
                else:
                    bound = self._substitute(
                        bind_udas(order_expr, library), subst
                    )
                order_fns.append(compiler.compile(bound))
                descending.append(desc)
            op = Sort(op, order_fns, descending, label="ORDER BY")
        return Project(op, fns, names)
