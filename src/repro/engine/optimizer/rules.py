"""Rewrite rules over the logical plan IR.

Three transformations, run in order:

1. **constant folding** — calls to verified-deterministic scalar UDFs
   over literal arguments are evaluated once, at plan time;
2. **predicate pushdown** — WHERE conjuncts move onto the first FROM
   source (left-to-right) whose output binds all their columns, so
   filters run below joins and seeks can consume them;
3. **projection pruning** — base-table Gets record which columns the
   statement actually references, so heap scans materialise narrower
   tuples. ``SELECT *`` (or a qualified star over a source) disables
   pruning for the sources it expands.

Join order is not a rewrite: the planner orders a join chain while
lowering it, by the rows each unit's chosen access path estimates.
All rules mutate the plan in place and recurse into derived-table
subplans first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import UdfError
from ..expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    Parameter,
    Scope,
    column_refs,
    expression_to_sql,
    rewrite,
    walk as walk_expr,
)
from ..sql import ast
from .logical import (
    LogicalAggregate,
    LogicalApply,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalNode,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
    LogicalWindow,
    calls_functions,
)

def _walk(root: LogicalNode) -> List[LogicalNode]:
    """Every node of one query level, pre-order."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(reversed(node.children()))
    return nodes


def apply_rewrites(
    plan: LogicalPlan, catalog, notes: Optional[List[str]] = None
) -> LogicalPlan:
    """Run every rewrite rule over ``plan`` (and its subplans).

    ``notes`` (when given) collects human-readable descriptions of
    verifier-driven decisions — constant folds, refused pushdowns — for
    EXPLAIN's ``note:`` lines.
    """
    library = getattr(catalog, "functions", None)
    nodes = _walk(plan.root)
    for node in nodes:
        if isinstance(node, LogicalGet) and node.inner is not None:
            apply_rewrites(node.inner, catalog, notes)
    fold_constant_udfs(nodes, library, notes)
    push_down_predicates(plan, library, notes)
    prune_columns(plan)
    return plan


# -- constant folding of verified-deterministic UDFs -------------------------

def _foldable(udf) -> bool:
    """Only a *verified* IsDeterministic=true, DataAccessKind.None UDF
    may be evaluated at plan time."""
    return (
        udf is not None
        and getattr(udf, "is_deterministic", None) is True
        and getattr(udf, "data_access", "NONE") == "NONE"
    )


def fold_constant_udfs(
    nodes: Sequence[LogicalNode], library, notes: Optional[List[str]] = None
) -> None:
    """Evaluate calls to verified-deterministic scalar UDFs over
    all-literal arguments once, at plan time (the CLR-hosting payoff:
    the optimizer may fold only what the verifier proved pure).

    Runs before predicate pushdown so a folded equality conjunct can
    still turn into an index seek.
    """
    if library is None:
        return

    def transform(node: Expr) -> Optional[Expr]:
        if not isinstance(node, FuncCall):
            return None
        if not all(isinstance(a, Literal) for a in node.args):
            return None
        if any(isinstance(a, Parameter) for a in node.args):
            # parameter slots change between executions of a cached plan
            # template — folding would freeze the first-seen value
            return None
        udf = library.scalar(node.name)
        if not _foldable(udf):
            return None
        original = expression_to_sql(node)
        try:
            value = udf(*[a.value for a in node.args])
        except UdfError:
            return None  # leave runtime errors to runtime
        if notes is not None:
            notes.append(
                f"constant-folded {original} to {value!r} — "
                f"udf {udf.name!r} is verified deterministic"
            )
        return Literal(value)

    def fold(expr: Expr) -> Expr:
        return rewrite(expr, transform) if calls_functions(expr) else expr

    for node in nodes:
        if isinstance(node, (LogicalFilter, LogicalJoin)):
            node.conjuncts = [fold(c) for c in node.conjuncts]
        elif isinstance(node, LogicalProject):
            for item in node.items:
                if not item.star and item.expr is not None:
                    item.expr = fold(item.expr)
        elif isinstance(node, LogicalAggregate):
            node.group_by = [fold(e) for e in node.group_by]
        elif isinstance(node, LogicalSort):
            node.order_by = [
                (fold(e), desc) for e, desc in node.order_by
            ]


# -- predicate pushdown ------------------------------------------------------

def _push_into(
    node: LogicalNode, conjuncts: List[Expr]
) -> Tuple[LogicalNode, List[Expr]]:
    """Offer ``conjuncts`` to every FROM source under ``node`` in
    left-to-right order; each conjunct lands on the first source whose
    columns bind it, else on the lowest (inner) join binding it, beside
    its ON conjuncts. Returns the rewritten subtree + leftovers."""
    if not conjuncts:
        return node, conjuncts
    if isinstance(node, LogicalJoin):
        node.left, conjuncts = _push_into(node.left, conjuncts)
        node.right, conjuncts = _push_into(node.right, conjuncts)
        node.columns = list(node.left.columns) + list(node.right.columns)
        if conjuncts:
            scope = Scope(node.columns)
            node.conjuncts += [c for c in conjuncts if scope.binds(c)]
            conjuncts = [c for c in conjuncts if not scope.binds(c)]
        return node, conjuncts
    if isinstance(node, LogicalApply):
        node.outer, conjuncts = _push_into(node.outer, conjuncts)
        return node, conjuncts
    if isinstance(node, (LogicalGet, LogicalFilter)):
        scope = Scope(node.columns)
        local = [c for c in conjuncts if scope.binds(c)]
        if not local:
            return node, conjuncts
        remaining = [c for c in conjuncts if id(c) not in
                     {id(x) for x in local}]
        if isinstance(node, LogicalFilter):
            node.conjuncts.extend(local)
            return node, remaining
        return LogicalFilter(node, local, kind="PUSHED"), remaining
    return node, conjuncts


#: built-in scalar functions known non-deterministic (not in the UDF
#: registry, so the verifier never sees them)
_NONDETERMINISTIC_BUILTINS = {"newid", "rand", "getdate"}


def _pushdown_barrier(conjunct: Expr, library) -> Optional[str]:
    """Name of the first call in ``conjunct`` that forbids moving the
    predicate (non-deterministic or data-accessing), else None.

    Pushing such a predicate below a join/derived table changes how many
    times — and against which intermediate rows — it is evaluated, which
    is only semantics-preserving for pure functions.
    """
    for node in walk_expr(conjunct):
        if not isinstance(node, FuncCall):
            continue
        if node.name.lower() in _NONDETERMINISTIC_BUILTINS:
            return node.name
        udf = library.scalar(node.name) if library is not None else None
        if udf is None:
            continue
        if getattr(udf, "is_deterministic", None) is False:
            return udf.name
        if getattr(udf, "data_access", "NONE") != "NONE":
            return udf.name
    return None


def push_down_predicates(
    plan: LogicalPlan, library=None, notes: Optional[List[str]] = None
) -> None:
    def visit(node: LogicalNode) -> LogicalNode:
        if isinstance(node, LogicalFilter) and node.kind == "WHERE":
            held: List[Expr] = []
            offered: List[Expr] = []
            for conjunct in node.conjuncts:
                barrier = _pushdown_barrier(conjunct, library)
                if barrier is not None:
                    held.append(conjunct)
                    if notes is not None:
                        notes.append(
                            "predicate "
                            f"[{expression_to_sql(conjunct)}] not pushed "
                            f"down — {barrier!r} is non-deterministic or "
                            "accesses data"
                        )
                else:
                    offered.append(conjunct)
            child, remaining = _push_into(node.child, offered)
            remaining = held + remaining
            if not remaining:
                return child
            node.child = child
            node.conjuncts = remaining
            return node
        for attr in node.child_attrs:
            setattr(node, attr, visit(getattr(node, attr)))
        return node

    plan.root = visit(plan.root)


# -- equi-join conjuncts ----------------------------------------------------

def equi_refs(conjunct: Expr) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """The two columns of a ``column = column`` conjunct, else None."""
    if (
        isinstance(conjunct, BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        return conjunct.left, conjunct.right
    return None


def is_equi_between(conjunct: Expr, left: Scope, right: Scope) -> bool:
    """Is this an equality between a column of each side?"""
    refs = equi_refs(conjunct)
    if refs is None:
        return False
    a, b = refs
    return (a in left and b in right) or (b in left and a in right)


# -- projection pruning ------------------------------------------------------

def collect_refs(
    nodes: Sequence[LogicalNode], stmt: ast.SelectStmt
) -> Tuple[List[ColumnRef], List[Optional[str]]]:
    """Every column reference in ``nodes`` (one query level's) and its
    statement, plus the qualifiers of any ``*`` items (None = unqualified
    star)."""
    refs: List[ColumnRef] = []
    stars: List[Optional[str]] = []

    def add(expr: Optional[Expr]) -> None:
        if expr is not None:
            refs.extend(column_refs(expr))

    for node in nodes:
        if isinstance(node, (LogicalFilter, LogicalJoin)):
            for conjunct in node.conjuncts:
                add(conjunct)
        elif isinstance(node, LogicalApply):
            for arg in node.source.args:
                add(arg)
        elif isinstance(node, LogicalAggregate):
            for expr in node.group_by:
                add(expr)
            for agg in node.aggregates.values():
                add(agg)
        elif isinstance(node, LogicalWindow):
            for window in node.windows.values():
                add(window)
        elif isinstance(node, LogicalSort):
            for expr, _ in node.order_by:
                add(expr)
        elif isinstance(node, LogicalProject):
            for item in node.items:
                if item.star:
                    stars.append(item.star_qualifier)
                else:
                    add(item.expr)
    add(stmt.having)
    for expr, _ in stmt.order_by:
        add(expr)
    return refs, stars


def prune_columns(plan: LogicalPlan) -> None:
    nodes = _walk(plan.root)
    refs, stars = collect_refs(nodes, plan.stmt)
    if any(q is None for q in stars):
        return  # SELECT * needs every column of every source
    starred = {q.lower() for q in stars if q is not None}
    bare: Set[str] = set()
    qualified: Dict[str, Set[str]] = {}
    for ref in refs:
        if ref.qualifier is None:
            bare.add(ref.name.lower())
        else:
            qualified.setdefault(ref.qualifier.lower(), set()).add(
                ref.name.lower()
            )
    for node in nodes:
        if not isinstance(node, LogicalGet) or node.table is None:
            continue
        binding = (node.binding or "").lower()
        if binding in starred:
            continue
        schema = node.table.schema
        wanted = bare.union(qualified.get(binding, ()))
        required = tuple(
            name for name in schema.column_names if name.lower() in wanted
        )
        if not required:
            # e.g. SELECT COUNT(*): one column is enough to count rows
            required = (schema.columns[0].name,)
        if len(required) < len(schema.columns):
            node.required = required
            node.columns = [
                f"{node.binding}.{name}" for name in required
            ]
