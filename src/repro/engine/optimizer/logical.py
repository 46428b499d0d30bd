"""The logical plan IR.

``lower_select`` turns a bound SELECT AST into a tree of logical
operators — *what* to compute, free of access paths and algorithms.
The rewrite rules (:mod:`.rules`) transform this tree; the planner then
lowers it to physical operators, choosing seeks, join algorithms and
aggregation strategies with the cost model.

The spine of a lowered SELECT mirrors SQL's semantic order::

    Top? < Distinct? < Project < Sort? < Window? < Filter(HAVING)?
        < Aggregate? < Filter(WHERE)? < [join tree of Get leaves]

Each node knows its output ``columns`` (qualified the same way the
physical operators qualify theirs), so the rules can answer "does this
expression bind against this subtree?" with the physical operators'
own :class:`~repro.engine.expressions.Scope`, without building any
physical operator.
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


# -- nodes -------------------------------------------------------------------

class LogicalNode:
    """Base class: output ``columns`` plus a uniform child protocol."""

    columns: List[str]
    #: the attributes holding this node's inputs, in ``children()`` order
    child_attrs: Tuple[str, ...] = ()

    def children(self) -> Sequence["LogicalNode"]:
        return ()


class LogicalGet(LogicalNode):
    """One FROM source: base table, TVF, derived table, or bulk rowset.

    ``table`` is set for base tables (the rules read its statistics);
    ``inner`` holds the lowered plan of a derived table; ``required``
    is filled by projection pruning with the base columns the query
    actually touches."""

    def __init__(
        self,
        source,
        columns: Sequence[str],
        table=None,
        inner: Optional["LogicalPlan"] = None,
    ):
        self.source = source
        self.columns = list(columns)
        self.table = table
        self.inner = inner
        self.required: Optional[Tuple[str, ...]] = None

    @property
    def binding(self) -> Optional[str]:
        return getattr(self.source, "binding_name", None)


class LogicalFilter(LogicalNode):
    """AND-ed conjuncts over one input. ``kind`` records provenance:
    ``WHERE`` (original clause), ``PUSHED`` (moved onto a source by
    predicate pushdown), or ``HAVING``."""

    child_attrs = ("child",)

    def __init__(self, child: LogicalNode, conjuncts: List[Expr], kind: str):
        self.child = child
        self.conjuncts = list(conjuncts)
        self.kind = kind
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)


class LogicalJoin(LogicalNode):
    """Inner join; ``conjuncts`` is the flattened ON clause."""

    child_attrs = ("left", "right")

    def __init__(
        self, left: LogicalNode, right: LogicalNode, conjuncts: List[Expr]
    ):
        self.left = left
        self.right = right
        self.conjuncts = list(conjuncts)
        self.columns = list(left.columns) + list(right.columns)

    def children(self):
        return (self.left, self.right)


class LogicalApply(LogicalNode):
    """CROSS APPLY of a table-valued function to each outer row."""

    child_attrs = ("outer",)

    def __init__(self, outer: LogicalNode, source, tvf_columns: Sequence[str]):
        self.outer = outer
        self.source = source
        self.columns = list(outer.columns) + list(tvf_columns)

    def children(self):
        return (self.outer,)


class LogicalAggregate(LogicalNode):
    """Grouped (or scalar) aggregation. ``aggregates`` maps the
    lower-cased SQL text of each distinct aggregate call to its node,
    in discovery order — the same keys the planner substitutes."""

    child_attrs = ("child",)

    def __init__(
        self,
        child: LogicalNode,
        group_by: List[Expr],
        aggregates: Dict[str, AggregateCall],
        maxdop: Optional[int],
    ):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = dict(aggregates)
        self.maxdop = maxdop
        group_names = [expression_to_sql(e) for e in self.group_by]
        agg_names = [f"$agg{i}" for i in range(len(self.aggregates))]
        self.columns = group_names + agg_names

    def children(self):
        return (self.child,)


class LogicalWindow(LogicalNode):
    """Window functions (ROW_NUMBER); one output column per window."""

    child_attrs = ("child",)

    def __init__(self, child: LogicalNode, windows: Dict[str, WindowCall]):
        self.child = child
        self.windows = dict(windows)
        self.columns = list(child.columns) + [
            "row_number" for _ in self.windows
        ]

    def children(self):
        return (self.child,)


class LogicalSort(LogicalNode):
    child_attrs = ("child",)

    def __init__(
        self, child: LogicalNode, order_by: List[Tuple[Expr, bool]]
    ):
        self.child = child
        self.order_by = list(order_by)
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)


class LogicalProject(LogicalNode):
    child_attrs = ("child",)

    def __init__(
        self,
        child: LogicalNode,
        items: List[ast.SelectItem],
        columns: Sequence[str],
    ):
        self.child = child
        self.items = list(items)
        self.columns = list(columns)

    def children(self):
        return (self.child,)


class LogicalDistinct(LogicalNode):
    child_attrs = ("child",)

    def __init__(self, child: LogicalNode):
        self.child = child
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)


class LogicalTop(LogicalNode):
    child_attrs = ("child",)

    def __init__(self, child: LogicalNode, n: int):
        self.child = child
        self.n = n
        self.columns = list(child.columns)

    def children(self):
        return (self.child,)


class LogicalPlan:
    """A lowered SELECT: the root logical node plus its statement."""

    def __init__(self, root: LogicalNode, stmt: ast.SelectStmt):
        self.root = root
        self.stmt = stmt


# -- lowering ----------------------------------------------------------------

def _lower_source(source, catalog) -> LogicalGet:
    if isinstance(source, ast.TableRef):
        table = catalog.table(source.name)
        alias = source.binding_name
        columns = [f"{alias}.{n}" for n in table.schema.column_names]
        return LogicalGet(source, columns, table=table)
    if isinstance(source, ast.TvfRef):
        tvf = catalog.functions.tvf(source.name)
        if tvf is None:
            raise BindError(
                f"unknown table-valued function {source.name!r}"
            )
        alias = source.binding_name
        columns = [f"{alias}.{c.name}" for c in tvf.columns]
        return LogicalGet(source, columns)
    if isinstance(source, ast.SubqueryRef):
        inner = lower_select(source.select, catalog)
        alias = source.binding_name
        columns = [
            f"{alias}.{c.rsplit('.', 1)[-1]}" for c in inner.root.columns
        ]
        return LogicalGet(source, columns, inner=inner)
    if isinstance(source, ast.OpenRowsetRef):
        alias = source.binding_name
        return LogicalGet(source, [f"{alias}.BulkColumn"])
    raise BindError(f"unsupported FROM source {type(source).__name__}")


def _apply_columns(source, catalog) -> List[str]:
    if not isinstance(source, ast.TvfRef):
        raise BindError("CROSS APPLY supports table-valued functions only")
    tvf = catalog.functions.tvf(source.name)
    if tvf is None:
        raise BindError(f"unknown table-valued function {source.name!r}")
    alias = source.binding_name
    return [f"{alias}.{c.name}" for c in tvf.columns]


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
    stmt: ast.SelectStmt, child: LogicalNode
) -> List[str]:
    names: List[str] = []
    for item in stmt.items:
        if item.star:
            for col in child.columns:
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


def lower_select(stmt: ast.SelectStmt, catalog) -> LogicalPlan:
    """Bind a SELECT statement into a logical plan."""
    library = catalog.functions

    if stmt.source is None:
        root: LogicalNode = LogicalGet(None, [])
    else:
        root = _lower_source(stmt.source, catalog)
        for join in stmt.joins:
            if join.kind == "CROSS APPLY":
                root = LogicalApply(
                    root, join.source, _apply_columns(join.source, catalog)
                )
            else:
                right = _lower_source(join.source, catalog)
                root = LogicalJoin(root, right, split_conjuncts(join.on))

    where = split_conjuncts(stmt.where)
    if where:
        root = LogicalFilter(root, where, kind="WHERE")

    aggregates, windows = _discover_calls(stmt, library)
    if stmt.group_by or aggregates:
        root = LogicalAggregate(
            root, list(stmt.group_by), aggregates, stmt.maxdop
        )
    if stmt.having is not None:
        root = LogicalFilter(root, [stmt.having], kind="HAVING")

    if windows:
        root = LogicalWindow(root, windows)

    if stmt.order_by:
        root = LogicalSort(root, list(stmt.order_by))
    root = LogicalProject(
        root, list(stmt.items), _project_columns(stmt, root)
    )
    if stmt.distinct:
        root = LogicalDistinct(root)
    if stmt.top is not None:
        root = LogicalTop(root, stmt.top)
    return LogicalPlan(root, stmt)
