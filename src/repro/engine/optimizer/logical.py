"""Binding: a SELECT AST as the flat record the planner lowers.

``lower_select`` binds a statement into a :class:`BoundSelect`: its FROM
units (each a base table, TVF, derived table or bulk rowset, with its
output ``columns``), the JOIN and CROSS APPLY steps that combine them
in written order, the WHERE conjuncts, and the statement's distinct
aggregate and window calls. The other clauses stay on the statement.
:func:`~.rules.apply_rewrites` then places the WHERE conjuncts and
prunes columns; the planner lowers the record straight to physical
operators.

Columns are qualified the way the physical operators qualify theirs,
so "does this expression bind against these sources?" is answered by
the physical operators' own :class:`~repro.engine.expressions.Scope`,
without building any physical operator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import BindError
from ..expressions import (
    AggregateCall,
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    WindowCall,
    expression_to_sql,
    rewrite,
    walk as walk_expr,
)
from ..sql import ast


# -- expression helpers (shared with the planner) ----------------------------

def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Rebuild a single predicate from conjuncts (None when empty)."""
    result: Optional[Expr] = None
    for conjunct in conjuncts:
        result = (
            conjunct if result is None else BinaryOp("AND", result, conjunct)
        )
    return result


def calls_functions(expr: Expr) -> bool:
    """Does ``expr`` hold a function call anywhere?"""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, FuncCall):
            return True
        stack.extend(node.children())
    return False


def bind_udas(expr: Expr, library) -> Expr:
    """Convert registered-UDA function calls into AggregateCall nodes."""
    if not calls_functions(expr):
        return expr

    def transform(node: Expr) -> Optional[Expr]:
        if isinstance(node, FuncCall) and library.uda(node.name) is not None:
            return AggregateCall(node.name, node.args)
        return None

    return rewrite(expr, transform)


# -- the bound record ----------------------------------------------------------

class FromUnit:
    """One FROM source: base table, TVF, derived table, or bulk rowset
    (``source`` None for a SELECT without FROM).

    ``table`` is set for base tables; ``inner`` is a derived table's own
    bound record. ``apply_rewrites`` fills ``conjuncts`` with the WHERE
    conjuncts placed on this unit, and narrows ``columns`` to the base
    columns the statement touches, named in ``required`` (None: all)."""

    __slots__ = ("source", "columns", "table", "inner", "conjuncts", "required")

    def __init__(self, source, columns, table=None, inner=None):
        self.source = source
        self.columns: List[str] = list(columns)
        self.table = table
        self.inner: Optional[BoundSelect] = inner
        self.conjuncts: List[Expr] = []
        self.required: Optional[Tuple[str, ...]] = None

    @property
    def binding(self) -> Optional[str]:
        return getattr(self.source, "binding_name", None)


class JoinStep:
    """One ``stmt.joins`` entry, in written order: an inner JOIN of
    ``unit`` tested by ``conjuncts`` (its ON clause, then the WHERE
    conjuncts placed on it), or — ``unit`` None — a CROSS APPLY of the
    TVF ``source`` to each row so far, adding ``tvf_columns``."""

    __slots__ = ("source", "unit", "conjuncts", "tvf_columns")

    def __init__(self, source, unit, conjuncts, tvf_columns=()):
        self.source = source
        self.unit: Optional[FromUnit] = unit
        self.conjuncts: List[Expr] = list(conjuncts)
        self.tvf_columns: List[str] = list(tvf_columns)

    @property
    def columns(self) -> List[str]:
        """The columns this step adds to the rows so far."""
        return self.unit.columns if self.unit is not None else self.tvf_columns


class BoundSelect:
    """A bound SELECT: ``units`` (the first FROM source, then each
    JOIN's), ``steps`` combining them, the ``where`` conjuncts no unit or
    join takes, the distinct ``aggregates`` and ``windows`` keyed by
    lower-cased SQL text in discovery order (the keys the planner
    substitutes), and the output ``columns`` a derived table exposes."""

    __slots__ = (
        "stmt", "units", "steps", "where", "aggregates", "windows", "columns",
    )

    def __init__(self, stmt, units, steps, where, aggregates, windows, columns):
        self.stmt: ast.SelectStmt = stmt
        self.units: List[FromUnit] = units
        self.steps: List[JoinStep] = steps
        self.where: List[Expr] = where
        self.aggregates: Dict[str, AggregateCall] = aggregates
        self.windows: Dict[str, WindowCall] = windows
        self.columns: List[str] = columns

    def join_inputs(self) -> List[Tuple[List[str], JoinStep]]:
        """``(columns before it, step)`` for each JOIN, in written order:
        the left input's columns, CROSS APPLY outputs included."""
        columns = list(self.units[0].columns)
        found = []
        for step in self.steps:
            if step.unit is not None:
                found.append((columns, step))
            columns = columns + step.columns
        return found


# -- binding -------------------------------------------------------------------

def _tvf_columns(source, catalog) -> List[str]:
    tvf = catalog.functions.tvf(source.name)
    if tvf is None:
        raise BindError(f"unknown table-valued function {source.name!r}")
    return [f"{source.binding_name}.{c.name}" for c in tvf.columns]


def _bind_source(source, catalog) -> FromUnit:
    if isinstance(source, ast.TableRef):
        table = catalog.table(source.name)
        alias = source.binding_name
        columns = [f"{alias}.{n}" for n in table.schema.column_names]
        return FromUnit(source, columns, table=table)
    if isinstance(source, ast.TvfRef):
        return FromUnit(source, _tvf_columns(source, catalog))
    if isinstance(source, ast.SubqueryRef):
        inner = lower_select(source.select, catalog)
        alias = source.binding_name
        columns = [f"{alias}.{c.rsplit('.', 1)[-1]}" for c in inner.columns]
        return FromUnit(source, columns, inner=inner)
    if isinstance(source, ast.OpenRowsetRef):
        return FromUnit(source, [f"{source.binding_name}.BulkColumn"])
    raise BindError(f"unsupported FROM source {type(source).__name__}")


def _discover_calls(
    stmt: ast.SelectStmt, library
) -> Tuple[Dict[str, AggregateCall], Dict[str, WindowCall]]:
    """The statement's distinct aggregate calls (select list, HAVING,
    ORDER BY) and window calls (select list), keyed by lower-cased SQL
    text in discovery order; each expression is walked once."""
    aggregates: Dict[str, AggregateCall] = {}
    windows: Dict[str, WindowCall] = {}
    exprs = [item.expr for item in stmt.items if item.expr is not None]
    in_items = len(exprs)
    if stmt.having is not None:
        exprs.append(stmt.having)
    exprs.extend(order_expr for order_expr, _ in stmt.order_by)
    for position, expr in enumerate(exprs):
        for node in walk_expr(bind_udas(expr, library)):
            if isinstance(node, AggregateCall):
                aggregates.setdefault(expression_to_sql(node).lower(), node)
            elif isinstance(node, WindowCall) and position < in_items:
                windows.setdefault(expression_to_sql(node).lower(), node)
    return aggregates, windows


def _project_columns(
    stmt: ast.SelectStmt, below: Sequence[str]
) -> List[str]:
    """The select list's output names over the columns ``below`` it."""
    names: List[str] = []
    for item in stmt.items:
        if item.star:
            for col in below:
                if item.star_qualifier and not col.lower().startswith(
                    item.star_qualifier.lower() + "."
                ):
                    continue
                names.append(col.rsplit(".", 1)[-1])
            continue
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(expression_to_sql(item.expr))
    return names


def lower_select(stmt: ast.SelectStmt, catalog) -> BoundSelect:
    """Bind a SELECT statement into its :class:`BoundSelect` record."""
    if stmt.source is None:
        units = [FromUnit(None, [])]
    else:
        units = [_bind_source(stmt.source, catalog)]
    steps: List[JoinStep] = []
    for join in stmt.joins:
        if join.kind == "CROSS APPLY":
            if not isinstance(join.source, ast.TvfRef):
                raise BindError(
                    "CROSS APPLY supports table-valued functions only"
                )
            columns = _tvf_columns(join.source, catalog)
            steps.append(JoinStep(join.source, None, [], columns))
        else:
            unit = _bind_source(join.source, catalog)
            units.append(unit)
            steps.append(
                JoinStep(join.source, unit, split_conjuncts(join.on))
            )

    aggregates, windows = _discover_calls(stmt, catalog.functions)
    if stmt.group_by or aggregates:
        below = [expression_to_sql(e) for e in stmt.group_by]
        below += [f"$agg{i}" for i in range(len(aggregates))]
    else:
        below = list(units[0].columns)
        for step in steps:
            below += step.columns
    below += ["row_number" for _ in windows]
    return BoundSelect(
        stmt, units, steps, split_conjuncts(stmt.where), aggregates, windows,
        _project_columns(stmt, below),
    )
