"""Static sanitizer for physical plans: prove what the executor assumes.

The executor trusts every plan the planner hands it — schema flow
from child to parent, positional key indexes, exchange-offload eligibility,
columnstore pushdown shapes. Each of those is an *invariant the planner
is supposed to establish*, silently assumed downstream. This module
re-proves them over a finished physical operator tree, independently of
the code that established them, and reports violations as structured
diagnostics with stable ``PLAN-*`` rule IDs and the operator path the
finding anchors to.

Invariant catalog (the rule IDs are stable; tests and CI grep them):

- **PLAN-ARITY** — a node's output arity disagrees with its own
  projection/aggregate descriptors or with what its parent consumes
  (``Project`` fns vs columns, join output vs left+right, aggregate
  output vs groups+aggregates).
- **PLAN-SCHEMA** — output column *names* break the flow invariant:
  pass-through operators must preserve the child's schema, scans must
  agree with the table schema through their projection/position maps.
- **PLAN-KEY-RANGE** — positional key/argument indexes out of range:
  hash-join and key-lookup-join key indexes vs child arity (a key
  lookup also needs one outer key per clustered-key column), aggregate
  ``group_indexes`` and ``arg_index`` vs input arity, scan projections
  vs table schema.
- **PLAN-EXCHANGE-MERGE** — a non-merge-safe aggregate (UDA without a
  verified ``merge``) inside a parallel exchange.
- **PLAN-EXCHANGE-DOP** — a parallel exchange with a nonsensical
  degree of parallelism.
- **PLAN-EXCHANGE-FLOAT-SUM** — the float-reassociation gate defeated:
  a plan the workers would run (the coordinator re-adds their slices'
  partial sums) holds a SUM/AVG over anything but an integer column.
- **PLAN-EXCHANGE-SILENT** — a parallel exchange that will run serially
  (unshippable descriptors or an admission blocker) with no ``note:``
  line explaining it: a serial exchange must never be silent.
- **PLAN-PUSHDOWN-OP** — a pushed predicate whose comparison operator
  the segment evaluator does not implement.
- **PLAN-PUSHDOWN-RANGE** — a pushed predicate addressing a column
  position outside the table schema.
- **PLAN-PUSHDOWN-SHAPE** — a pushed predicate whose literal payload
  has the wrong shape for its operator (``BETWEEN`` without a
  ``(lo, hi)`` pair, ``IN`` without a container, null tests with a
  value).

Run it directly via :func:`sanitize_plan`, per-statement via
``SET PLAN_VERIFY ON``, or over the golden
corpus via ``repro-genomics sanitize``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Sequence, Tuple

from .diagnostics import Diagnostic, finding

#: operators the zone maps and the segment selection evaluate (mirrors
#: ``PushedPredicate.matcher``; kept literal so a drifting matcher is a
#: *sanitizer* test failure, not a silent widening)
_PUSHDOWN_OPS = frozenset(
    ("=", "<>", "<", "<=", ">", ">=", "in", "between", "isnull", "notnull")
)


def _bare(name: str) -> str:
    """Strip an alias qualifier off an output column name."""
    return name.rsplit(".", 1)[-1].lower()


def _node_label(op) -> str:
    label = getattr(op, "node_label", None)
    if isinstance(label, str) and label:
        return label
    return type(op).__name__


def walk_plan(op, path: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``(operator path, node)`` pairs, root first (delegates to
    :meth:`PhysicalOperator.walk` when the node provides it)."""
    walk = getattr(op, "walk", None)
    if walk is not None:
        yield from walk(path)
        return
    here = f"{path}/{_node_label(op)}" if path else _node_label(op)
    yield here, op
    for child in op.children():
        yield from walk_plan(child, here)


# ---------------------------------------------------------------------------
# per-family checks
# ---------------------------------------------------------------------------


def _check_projection_ops(node, path: str, out: List[Diagnostic]) -> None:
    from ..executor.operators import Project

    if not isinstance(node, Project):
        return
    if len(node.fns) != len(node.columns):
        out.append(finding(
            "PLAN-ARITY",
            path,
            f"projection computes {len(node.fns)} expressions but "
            f"outputs {len(node.columns)} columns",
        ))


def _check_passthrough(node, path: str, out: List[Diagnostic]) -> None:
    """Pass-through operators must preserve the child schema exactly."""
    from ..executor.operators import Distinct, Filter, Sort, Top

    if isinstance(node, (Filter, Sort, Top, Distinct)):
        child = node.child
        if list(node.columns) != list(child.columns):
            out.append(finding(
                "PLAN-SCHEMA",
                path,
                f"{type(node).__name__} outputs {node.columns} but its "
                f"child produces {child.columns} — pass-through operators "
                "must not reshape the row",
            ))


def _check_joins(node, path: str, out: List[Diagnostic]) -> None:
    from ..executor.joins import HashJoin, KeyLookupJoin, MergeJoin

    if not isinstance(node, (HashJoin, KeyLookupJoin, MergeJoin)):
        return
    left, right = node.left, node.right
    expected = len(left.columns) + len(right.columns)
    if len(node.columns) != expected:
        out.append(finding(
            "PLAN-ARITY",
            path,
            f"join outputs {len(node.columns)} columns but its inputs "
            f"produce {expected}",
        ))
    elif list(node.columns) != list(left.columns) + list(right.columns):
        out.append(finding(
            "PLAN-SCHEMA",
            path,
            "join output is not the concatenation of its input schemas",
        ))
    sides: Sequence[Tuple[str, Any, Any]] = ()
    if isinstance(node, HashJoin):
        sides = (
            ("left", node.left_key_indexes, left),
            ("right", node.right_key_indexes, right),
        )
    elif isinstance(node, KeyLookupJoin):
        sides = (("left", node.left_key_indexes, left),)
    for side, indexes, child in sides:
        if indexes is None:
            continue
        for index in indexes:
            if not 0 <= index < len(child.columns):
                out.append(finding(
                    "PLAN-KEY-RANGE",
                    path,
                    f"{side} join key index {index} outside the "
                    f"{side} input's {len(child.columns)} columns",
                ))
    if isinstance(node, KeyLookupJoin):
        key = node.inner.table.schema.primary_key
        if len(node.left_key_indexes) != len(key):
            out.append(finding(
                "PLAN-KEY-RANGE",
                path,
                f"key lookup has {len(node.left_key_indexes)} outer key "
                f"columns for the {len(key)}-column clustered key "
                f"({', '.join(key)})",
            ))


def _check_aggregates(node, path: str, out: List[Diagnostic]) -> None:
    from ..executor.operators import HashAggregate, StreamAggregate
    from ..executor.parallel import ParallelHashAggregate

    if not isinstance(
        node, (HashAggregate, ParallelHashAggregate, StreamAggregate)
    ):
        return
    group_count = len(node.group_fns)
    agg_count = len(node.aggregates)
    specs = node.aggregates
    # a Stream Aggregate groups through closures only
    group_indexes = getattr(node, "group_indexes", None)
    child = node.child
    if len(node.columns) != group_count + agg_count:
        out.append(finding(
            "PLAN-ARITY",
            path,
            f"aggregate outputs {len(node.columns)} columns for "
            f"{group_count} group keys + {agg_count} aggregates",
        ))
    if group_indexes is not None:
        if len(group_indexes) != group_count:
            out.append(finding(
                "PLAN-KEY-RANGE",
                path,
                f"{len(group_indexes)} positional group keys for "
                f"{group_count} group expressions",
            ))
        for index in group_indexes:
            if not 0 <= index < len(child.columns):
                out.append(finding(
                    "PLAN-KEY-RANGE",
                    path,
                    f"group key index {index} outside the input's "
                    f"{len(child.columns)} columns",
                ))
    for spec in specs:
        arg_index = getattr(spec, "arg_index", None)
        if arg_index is not None and not 0 <= arg_index < len(child.columns):
            out.append(finding(
                "PLAN-KEY-RANGE",
                path,
                f"{spec.describe()} argument index {arg_index} outside "
                f"the input's {len(child.columns)} columns",
            ))


def _scan_schema_type(scan, output_index: int):
    """Independently resolve a scan output position to its schema type —
    *by name*, not through the scan's own position maps, so a corrupted
    map is caught rather than trusted. None when the node is not a
    table-backed scan or the position is out of range (those are other
    rules' findings)."""
    table = getattr(scan, "table", None)
    columns = getattr(scan, "columns", ())
    if table is None or not 0 <= output_index < len(columns):
        return None
    name = _bare(columns[output_index])
    for column in table.schema.columns:
        if column.name.lower() == name:
            return column.sql_type
    return None


def _check_exchange(node, path: str, out: List[Diagnostic],
                    plan_notes: Sequence[str]) -> None:
    from ..executor import exchange
    from ..executor.parallel import ParallelHashAggregate

    if not isinstance(node, ParallelHashAggregate):
        return
    if not isinstance(node.dop, int) or node.dop < 1:
        out.append(finding(
            "PLAN-EXCHANGE-DOP", path, f"degree of parallelism {node.dop!r}"
        ))
    for spec in node.aggregates:
        if not spec.parallel_safe:
            out.append(finding(
                "PLAN-EXCHANGE-MERGE",
                path,
                f"{spec.describe()} has no verified merge — its partial "
                "states cannot be recombined by the gather",
            ))
    if node.dop <= 1:
        return
    blocker = (
        exchange.scan_offload_blocker(
            node.child, node.aggregates, node.group_indexes, node.group_exprs
        )
        if exchange.rebuild_shippable_specs(node.aggregates) is not None
        else "descriptors cannot ship"
    )
    if blocker is not None:
        if not any("exchange will" in note for note in plan_notes):
            out.append(finding(
                "PLAN-EXCHANGE-SILENT",
                path,
                f"exchange cannot offload ({blocker}) and the plan "
                "carries no note: line saying so — a serial fallback "
                "must never be silent",
            ))
        return
    # the runtime gate admits this plan to the workers, whose slices'
    # partial sums the coordinator re-adds: prove independently that no
    # SUM/AVG in it can be a float one (an exact one is a plain integer
    # column, resolved here by name)
    leaf = exchange.fragment_chain(node.child)[0]
    for spec in node.aggregates:
        if spec.uda_class is not None or spec.distinct or spec.star:
            continue
        if spec.name not in ("sum", "avg"):
            continue
        sql_type = (
            _scan_schema_type(leaf, spec.arg_index)
            if spec.arg_index is not None
            else None
        )
        if sql_type is None or not sql_type.is_integer:
            argument = (
                repr(leaf.columns[spec.arg_index])
                if sql_type is not None
                else "a computed expression"
            )
            out.append(finding(
                "PLAN-EXCHANGE-FLOAT-SUM",
                path,
                f"{spec.describe()} is not over an integer column "
                f"({argument}) yet would merge slice partials on the "
                "coordinator (float addition reassociates) — the offload "
                "gate has been defeated",
            ))


def _check_scans(node, path: str, out: List[Diagnostic]) -> None:
    from ..executor.operators import ColumnStoreScan, TableScan

    if isinstance(node, TableScan):
        schema_columns = node.table.schema.columns
        projection = node.projection
        if projection is not None:
            if len(projection) != len(node.columns):
                out.append(finding(
                    "PLAN-ARITY",
                    path,
                    f"scan projects {len(projection)} schema positions "
                    f"into {len(node.columns)} output columns",
                ))
                return
            for out_index, schema_index in enumerate(projection):
                if not 0 <= schema_index < len(schema_columns):
                    out.append(finding(
                        "PLAN-KEY-RANGE",
                        path,
                        f"projection position {schema_index} outside the "
                        f"table's {len(schema_columns)} columns",
                    ))
                elif (
                    _bare(node.columns[out_index])
                    != schema_columns[schema_index].name.lower()
                ):
                    out.append(finding(
                        "PLAN-SCHEMA",
                        path,
                        f"output column {node.columns[out_index]!r} maps "
                        f"to schema position {schema_index} "
                        f"({schema_columns[schema_index].name!r})",
                    ))
        return
    if isinstance(node, ColumnStoreScan):
        schema_columns = node.table.schema.columns
        positions = node.out_positions
        if len(positions) != len(node.columns):
            out.append(finding(
                "PLAN-ARITY",
                path,
                f"column scan reads {len(positions)} positions into "
                f"{len(node.columns)} output columns",
            ))
            return
        for out_index, schema_index in enumerate(positions):
            if not 0 <= schema_index < len(schema_columns):
                out.append(finding(
                    "PLAN-KEY-RANGE",
                    path,
                    f"segment position {schema_index} outside the "
                    f"table's {len(schema_columns)} columns",
                ))
            elif (
                _bare(node.columns[out_index])
                != schema_columns[schema_index].name.lower()
            ):
                out.append(finding(
                    "PLAN-SCHEMA",
                    path,
                    f"output column {node.columns[out_index]!r} maps to "
                    f"segment position {schema_index} "
                    f"({schema_columns[schema_index].name!r})",
                ))
        _check_pushdown(node, path, out)


def _check_pushdown(scan, path: str, out: List[Diagnostic]) -> None:
    """Pushed predicates must be evaluable against the table's
    segments — op, position and literal shape."""
    schema_columns = scan.table.schema.columns
    for pred in getattr(scan, "predicates", ()):
        label = pred.label or f"{pred.op} predicate"
        if pred.op not in _PUSHDOWN_OPS:
            out.append(finding(
                "PLAN-PUSHDOWN-OP",
                path,
                f"pushed predicate {label!r} uses op {pred.op!r} which "
                "the segment evaluator does not implement",
            ))
            continue
        if not 0 <= pred.col_index < len(schema_columns):
            out.append(finding(
                "PLAN-PUSHDOWN-RANGE",
                path,
                f"pushed predicate {label!r} addresses column position "
                f"{pred.col_index} outside the table's "
                f"{len(schema_columns)} columns",
            ))
            continue
        if pred.op == "between":
            if not (
                isinstance(pred.value, (tuple, list)) and len(pred.value) == 2
            ):
                out.append(finding(
                    "PLAN-PUSHDOWN-SHAPE",
                    path,
                    f"BETWEEN predicate {label!r} needs a (lo, hi) pair, "
                    f"got {pred.value!r}",
                ))
        elif pred.op == "in":
            if not hasattr(pred.value, "__contains__"):
                out.append(finding(
                    "PLAN-PUSHDOWN-SHAPE",
                    path,
                    f"IN predicate {label!r} needs a container, got "
                    f"{pred.value!r}",
                ))
        elif pred.op in ("isnull", "notnull"):
            if pred.value is not None:
                out.append(finding(
                    "PLAN-PUSHDOWN-SHAPE",
                    path,
                    f"null-test predicate {label!r} carries a literal "
                    f"{pred.value!r}",
                ))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def sanitize_plan(root, database=None) -> List[Diagnostic]:
    """Walk one physical plan and prove every executor invariant.

    Returns structured diagnostics (stable ``PLAN-*`` rule IDs, operator
    path as the object); an empty list is the proof that the plan is
    clean. Never raises for a malformed plan — a verifier that crashes
    on the input it exists to reject is useless. Every rule reads the
    plan alone: ``database`` is what callers already pass, and unused.
    """
    out: List[Diagnostic] = []
    plan_notes = list(getattr(root, "plan_notes", ()) or ())
    for path, node in walk_plan(root):
        _check_projection_ops(node, path, out)
        _check_passthrough(node, path, out)
        _check_joins(node, path, out)
        _check_aggregates(node, path, out)
        _check_exchange(node, path, out, plan_notes)
        _check_scans(node, path, out)
    return out
