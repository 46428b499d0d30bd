"""Rewrites over a bound SELECT record.

Two transformations, run in order by :func:`apply_rewrites`:

1. **predicate pushdown** — each WHERE conjunct moves onto the first
   FROM unit (in written order) whose columns bind it, so filters run
   below joins and seeks can consume them; the rest go to the first
   join whose inputs bind them (:func:`place_conjuncts`), and what no
   join binds stays in the WHERE. A conjunct calling a
   non-deterministic or data-accessing function stays where it was
   written, with a note saying why;
2. **projection pruning** — base-table units record which columns the
   statement actually references, so heap scans materialise narrower
   tuples. ``SELECT *`` (or a qualified star over a source) disables
   pruning for the sources it expands.

Join order is not a rewrite: the planner orders a join chain while
lowering it, by the rows each unit's chosen access path estimates, and
places the chain's conjuncts again with :func:`place_conjuncts`. Both
rewrites mutate the record in place and run over derived tables'
records first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..expressions import (
    BinaryOp,
    ColumnRef,
    Expr,
    FuncCall,
    Scope,
    column_refs,
    expression_to_sql,
    walk as walk_expr,
)
from ..sql import ast
from .logical import BoundSelect


def apply_rewrites(
    bound: BoundSelect, catalog, notes: Optional[List[str]] = None
) -> BoundSelect:
    """Run both rewrites over ``bound`` (and its derived tables).

    ``notes`` (when given) collects the refused pushdowns for EXPLAIN's
    ``note:`` lines.
    """
    for unit in bound.units:
        if unit.inner is not None:
            apply_rewrites(unit.inner, catalog, notes)
    push_down_predicates(bound, getattr(catalog, "functions", None), notes)
    prune_columns(bound)
    return bound


# -- predicate pushdown ------------------------------------------------------

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


def place_conjuncts(
    scopes: Sequence[Scope], placed: Sequence[List[Expr]], pool: Sequence[Expr]
) -> List[Expr]:
    """Append each conjunct of ``pool``, in order, to ``placed[k]`` for
    the first join ``k`` of a chain whose inputs, combined in
    ``scopes[k]``, bind it; return those no join binds.

    The one placement rule for join-level conjuncts: pushdown runs it
    over the written chain, the planner again over a reordered one."""
    left = []
    for conjunct in pool:
        for scope, conjuncts in zip(scopes, placed):
            if scope.binds(conjunct):
                conjuncts.append(conjunct)
                break
        else:
            left.append(conjunct)
    return left


def push_down_predicates(
    bound: BoundSelect, library=None, notes: Optional[List[str]] = None
) -> None:
    """Place each WHERE conjunct on the first unit that binds it, else on
    the first join that does; a conjunct behind a barrier, or that
    nothing binds, stays in ``bound.where``."""
    held: List[Expr] = []
    pending: List[Expr] = []
    scopes = [Scope(unit.columns) for unit in bound.units]
    for conjunct in bound.where:
        barrier = _pushdown_barrier(conjunct, library)
        if barrier is not None:
            held.append(conjunct)
            if notes is not None:
                notes.append(
                    f"predicate [{expression_to_sql(conjunct)}] not pushed "
                    f"down — {barrier!r} is non-deterministic or "
                    "accesses data"
                )
            continue
        for scope, unit in zip(scopes, bound.units):
            if scope.binds(conjunct):
                unit.conjuncts.append(conjunct)
                break
        else:
            pending.append(conjunct)
    if pending:
        inputs = bound.join_inputs()
        pending = place_conjuncts(
            [Scope(left + step.columns) for left, step in inputs],
            [step.conjuncts for _left, step in inputs],
            pending,
        )
    bound.where = held + pending


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

def statement_refs(
    stmt: ast.SelectStmt,
) -> Tuple[List[ColumnRef], List[Optional[str]]]:
    """Every column reference of one query level's statement, plus the
    qualifiers of its ``*`` items (None = unqualified star)."""
    exprs: List[Optional[Expr]] = [stmt.where, stmt.having]
    exprs += stmt.group_by
    exprs += [expr for expr, _desc in stmt.order_by]
    for join in stmt.joins:
        exprs.append(join.on)
        if join.kind == "CROSS APPLY":
            exprs += join.source.args
    exprs += [item.expr for item in stmt.items if not item.star]
    stars = [item.star_qualifier for item in stmt.items if item.star]
    refs = [ref for expr in exprs if expr is not None for ref in column_refs(expr)]
    return refs, stars


def prune_columns(bound: BoundSelect) -> None:
    refs, stars = statement_refs(bound.stmt)
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
    for unit in bound.units:
        binding = (unit.binding or "").lower()
        if unit.table is None or binding in starred:
            continue
        schema = unit.table.schema
        wanted = bare.union(qualified.get(binding, ()))
        required = tuple(
            name for name in schema.column_names if name.lower() in wanted
        )
        if not required:
            # e.g. SELECT COUNT(*): one column is enough to count rows
            required = (schema.columns[0].name,)
        if len(required) < len(schema.columns):
            unit.required = required
            unit.columns = [f"{unit.binding}.{name}" for name in required]
