"""Semantic lint over a bound SELECT record.

Runs at plan time, after the rewrites, over the record
:func:`~..optimizer.logical.lower_select` binds (its units, join steps
and placed conjuncts, derived tables' records included) — before any
physical operator is built, so every finding is static. Four rule
families:

- **LINT-TYPE** — a comparison, as :func:`~..optimizer.cost.sarg`
  decodes it, of a base-table column with a literal of another
  ``SqlType.order_family`` (``int_col = 'x'``, ``datetime_col < 'x'``):
  the rule seek eligibility and the conversion check apply. A range
  raises at run time and an equality finds nothing, so the lint
  surfaces it as the plan is built.
- **LINT-SARG** — a function call wrapping an *indexed* column inside a
  filter conjunct. The predicate cannot drive a seek (it is not
  SARGable), and when the wrapped function is non-deterministic or
  data-accessing, the optimizer additionally refuses to push it down;
  the warning names the function and why.
- **LINT-CARTESIAN** — a join with no equality conjunct between its
  sides: a cartesian product. (The planner then refuses to lower it;
  the lint reports it first, without executing anything.)
- **LINT-UNUSED-COLUMN** — a derived table computing columns the outer
  query never references: wasted work below the plan's pipeline.

Findings are :class:`~.diagnostics.Diagnostic` objects; the planner
attaches them to the physical plan (EXPLAIN notes), the database
records them (``db.messages`` + ``sys_dm_verify_results``), and the
``repro-genomics lint`` CLI prints them.

Every rule has a stable ID and severity in the shared
:data:`~.diagnostics.RULES` catalog, and any ``LINT-*`` or ``PLAN-*``
rule can be suppressed for one statement — or a whole script — with a
pragma comment::

    -- lint: ignore LINT-SARG
    -- lint: ignore LINT-TYPE, LINT-CARTESIAN

The planner parses pragmas out of each statement's raw SQL (the
comments above and after it are part of its ``source_sql``); the CLI
additionally treats a pragma that belongs to no statement (after a
``.sql`` script's last ``;``) as covering the whole file.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..expressions import (
    ColumnRef,
    Expr,
    FuncCall,
    Scope,
    column_refs,
    expression_to_sql,
    walk as walk_expr,
)
from ..optimizer.cost import Sarg, sarg
from ..optimizer.logical import BoundSelect, FromUnit, JoinStep
from ..optimizer.rules import is_equi_between, statement_refs
from ..types import value_order_family
from .diagnostics import Diagnostic, finding

#: the Sarg operators LINT-TYPE checks, each bound of each
_TYPED_OPS = {"=", "<>", "<", "<=", ">", ">=", "between", "in"}


class _Walk:
    """One walk of a record and its derived tables' records, each list
    in the order the rules report: the conjunct groups (HAVING, the
    WHERE left over, the joins' from last to first, then each unit's,
    a derived table's own walk after its unit), the base-table units,
    the joins as ``(columns before it, step)``, and the derived units."""

    def __init__(self, bound: BoundSelect):
        self.groups: List[List[Expr]] = []
        self.tables: List[FromUnit] = []
        self.joins: List[Tuple[List[str], JoinStep]] = []
        self.derived: List[FromUnit] = []
        self._visit(bound)

    def _visit(self, bound: BoundSelect) -> None:
        if bound.stmt.having is not None:
            self.groups.append([bound.stmt.having])
        self.groups.append(bound.where)
        inputs = bound.join_inputs()[::-1]
        self.groups.extend(step.conjuncts for _left, step in inputs)
        self.joins.extend(inputs)
        for unit in bound.units:
            self.groups.append(unit.conjuncts)
            if unit.table is not None:
                self.tables.append(unit)
            if unit.inner is not None:
                self.derived.append(unit)
                self._visit(unit.inner)


def _column_type(gets: Sequence[FromUnit], ref: ColumnRef):
    """The SqlType of the base-table column ``ref`` names: a qualified
    reference reads the last unit bound to its qualifier, a bare one the
    first unit whose table has the column; None when none has it."""
    name = ref.name.lower()
    if ref.qualifier:
        qualifier = ref.qualifier.lower()
        candidates = [
            get for get in reversed(gets)
            if (get.binding or "").lower() == qualifier
        ]
    else:
        candidates = gets
    for get in candidates:
        schema = get.table.schema
        if schema.has_column(name):
            return schema.column(name).sql_type
    return None


def _indexed_columns(gets: Sequence[FromUnit]) -> Dict[str, str]:
    """qualified-column-name (lowered) → index description, for columns
    leading a clustered key or secondary index (seekable columns)."""
    indexed: Dict[str, str] = {}
    for node in gets:
        table = node.table
        binding = (node.binding or "").lower()
        schema = table.schema
        if not schema.heap and schema.primary_key:
            lead = schema.primary_key[0].lower()
            indexed[f"{binding}.{lead}"] = "clustered key"
            indexed.setdefault(lead, "clustered key")
        for index_name, col_idxs in table.secondary_indexes().items():
            if not col_idxs:
                continue
            lead = schema.columns[col_idxs[0]].name.lower()
            indexed[f"{binding}.{lead}"] = f"index {index_name}"
            indexed.setdefault(lead, f"index {index_name}")
    return indexed


def _qualified(ref: ColumnRef) -> str:
    if ref.qualifier:
        return f"{ref.qualifier.lower()}.{ref.name.lower()}"
    return ref.name.lower()


def _check_types(
    comparisons: Sequence[Tuple[Expr, Sarg]],
    gets: Sequence[FromUnit],
    diagnostics: List[Diagnostic],
) -> None:
    """Warn where the column's ``SqlType.order_family`` and that of any
    literal it is compared with (every bound of a ``BETWEEN`` or ``IN``)
    are both known and differ: the rule seeks and the conversion check
    apply at run time."""
    for node, decoded in comparisons:
        ref = decoded.column()
        sql_type = _column_type(gets, ref) if ref is not None else None
        if sql_type is None or sql_type.order_family is None:
            continue
        family = sql_type.order_family
        kinds = map(value_order_family, [b.value for b in decoded.bounds])
        literal = next((k for k in kinds if k not in (None, family)), None)
        if literal is None:
            continue
        diagnostics.append(
            finding(
                "LINT-TYPE",
                str(ref),
                f"comparison {expression_to_sql(node)} mixes {family} "
                f"column {ref} ({sql_type}) with a {literal} literal",
            )
        )


def _check_sargability(
    calls: Sequence[FuncCall],
    indexed: Dict[str, str],
    library,
    diagnostics: List[Diagnostic],
) -> None:
    for node in calls:
        wrapped = [
            ref
            for arg in node.args
            for ref in column_refs(arg)
            if _qualified(ref) in indexed
        ]
        if not wrapped:
            continue
        ref = wrapped[0]
        udf = library.scalar(node.name) if library is not None else None
        reason = f"wrapped by {node.name!r}"
        if udf is not None:
            if getattr(udf, "is_deterministic", None) is False:
                reason = f"udf {node.name!r} is non-deterministic"
            elif getattr(udf, "data_access", "NONE") != "NONE":
                reason = f"udf {node.name!r} accesses data"
        diagnostics.append(
            finding(
                "LINT-SARG",
                node.name,
                f"predicate on {ref} not SARGable — {reason}; the "
                f"{indexed[_qualified(ref)]} on {ref} cannot be used "
                "for a seek",
            )
        )


def _check_cartesian(walk: _Walk, diagnostics: List[Diagnostic]) -> None:
    for columns, step in walk.joins:
        left, right = Scope(columns), Scope(step.columns)
        if not any(is_equi_between(c, left, right) for c in step.conjuncts):
            left = ", ".join(columns[:2]) or "(left)"
            right = ", ".join(step.columns[:2]) or "(right)"
            diagnostics.append(
                finding(
                    "LINT-CARTESIAN",
                    "JOIN",
                    "join has no equality predicate between its inputs "
                    f"({left} × {right}) — cartesian product",
                )
            )


def _referenced_names(stmt) -> Set[str]:
    """Every column name (bare and qualified, lowered) referenced
    anywhere at the statement's own query level."""
    refs, stars = statement_refs(stmt)
    names: Set[str] = set()
    for ref in refs:
        names.add(ref.name.lower())
        if ref.qualifier:
            names.add(f"{ref.qualifier.lower()}.{ref.name.lower()}")
    for qualifier in stars:
        names.add(f"{(qualifier or '*').lower()}.*")
    return names


def _check_unused_projection(
    walk: _Walk, stmt, diagnostics: List[Diagnostic]
) -> None:
    referenced = _referenced_names(stmt) if walk.derived else None
    for unit in walk.derived:
        binding = (unit.binding or "").lower()
        if "*.*" in referenced or f"{binding}.*" in referenced:
            continue
        unused = []
        for column in unit.columns:
            bare = column.lower().rsplit(".", 1)[-1]
            if (
                bare not in referenced
                and column.lower() not in referenced
            ):
                unused.append(bare)
        if unused and len(unused) < len(unit.columns):
            diagnostics.append(
                finding(
                    "LINT-UNUSED-COLUMN",
                    unit.binding or "(derived)",
                    f"derived table computes {', '.join(unused)} but the "
                    "outer query never references "
                    + ("it" if len(unused) == 1 else "them"),
                )
            )


def lint_plan(bound: BoundSelect, catalog) -> List[Diagnostic]:
    """Run every lint rule over one rewritten record, walked once; each
    conjunct is walked once too."""
    diagnostics: List[Diagnostic] = []
    library = getattr(catalog, "functions", None)
    walk = _Walk(bound)
    indexed = None
    for conjunct in (c for group in walk.groups for c in group):
        comparisons: List[Tuple[Expr, Sarg]] = []
        calls: List[FuncCall] = []
        for part in walk_expr(conjunct):
            if isinstance(part, FuncCall):
                calls.append(part)
                continue
            decoded = sarg(part)
            if decoded is not None and decoded.op in _TYPED_OPS:
                comparisons.append((part, decoded))
        _check_types(comparisons, walk.tables, diagnostics)
        if calls:
            if indexed is None:
                indexed = _indexed_columns(walk.tables)
            _check_sargability(calls, indexed, library, diagnostics)
    _check_cartesian(walk, diagnostics)
    _check_unused_projection(walk, bound.stmt, diagnostics)
    return diagnostics
