"""Structural contract checking at ``FunctionLibrary.register_*`` time.

The CLR contracts the paper's extensions build on are structural:
``SqlUserDefinedAggregate`` requires ``Init/Accumulate/Merge/Terminate``
with specific shapes, a streaming TVF must hand the query processor an
``IEnumerator`` (never a materialised collection), and ``FillRow`` must
produce exactly the declared output columns. SQL Server checks these at
``CREATE ASSEMBLY`` time; we check them at registration:

- **UDA** — ``init``/``accumulate``/``terminate`` must be implemented,
  ``accumulate`` arity must match the declared ``arity``, and ``merge``
  must be provided iff the class claims ``parallel_safe``. A UDA that
  overrides the batch method ``accumulate_batch`` has it analysed with
  the lifecycle methods and its column count held to ``arity`` too. A
  parallel-safe UDA *without* a merge is the silent-wrong-answer hazard
  the paper's exchange operator depends on avoiding: registration
  records ``_merge_verified = False`` and the planner then refuses the
  parallel plan (with a lint warning) instead of trusting the flag.
- **TVF** — ``create`` must return a generator/iterator. A ``create``
  whose ``return`` materialises a list (``return [ ... ]``,
  ``return list(...)``/``sorted(...)``) defeats the pull model and is
  rejected. A TVF that overrides the batch method ``batches`` has it
  analysed with ``create``/``fill_row`` (a SAFE TVF cannot hide I/O
  there). The row arity of ``fill_row``'s returned tuples and of the
  rows ``batches`` yields is checked statically against the declared
  ``columns`` when determinable.
- **UDT** — codecs declaring a ``probe`` value must round-trip it
  (serialize → deserialize → serialize, byte-identical); codecs without
  a probe register with a warning that the round-trip is unverified.

Each checker returns the diagnostics *and* the permission/determinism
analysis of :mod:`.udx_verifier`, so registration records everything in
one pass.
"""

from __future__ import annotations

import ast
import inspect
from typing import Any, Callable, List, Optional

from .diagnostics import finding
from .udx_verifier import (
    AnalysisReport,
    analyze_callable,
    analyze_class_methods,
    _parse_source,
    _underlying_function,
)

#: call names whose return from ``create`` means a materialised
#: collection rather than a streaming iterator
_MATERIALIZING_CALLS = {"list", "sorted", "tuple"}


# ---------------------------------------------------------------------------
# scalar UDFs
# ---------------------------------------------------------------------------


def verify_scalar(
    name: str,
    func: Any,
    permission_set: str,
    declared_deterministic: Optional[bool],
    declared_data_access: Optional[str],
) -> AnalysisReport:
    """Verify one scalar UDF body; resolve declared vs inferred
    ``IsDeterministic`` / ``DataAccessKind``."""
    report = analyze_callable(func, name, permission_set)
    if declared_data_access is not None:
        if (
            report.analyzed
            and report.data_access == "READ"
            and declared_data_access == "NONE"
        ):
            report.diagnostics.append(
                finding(
                    "UDX-DATA-ACCESS-MISMATCH",
                    name,
                    "declared DataAccessKind.None but the body reaches "
                    "database / FileStream storage",
                )
            )
        else:
            report.data_access = declared_data_access
    if declared_deterministic is not None:
        if report.is_deterministic is False and declared_deterministic:
            report.diagnostics.append(
                finding(
                    "UDX-DETERMINISM-MISMATCH",
                    name,
                    "declared IsDeterministic=true but the body uses "
                    "non-deterministic calls; treating as "
                    "non-deterministic",
                )
            )
        else:
            report.is_deterministic = declared_deterministic
    return report


# ---------------------------------------------------------------------------
# UDAs
# ---------------------------------------------------------------------------


def _overrides(uda_class: type, method: str) -> bool:
    """Does ``uda_class`` provide its own ``method`` (vs. the abstract
    base)? Classes not derived from the engine base count as providing
    whatever callables they expose."""
    from ..udf import UserDefinedAggregate

    impl = getattr(uda_class, method, None)
    if impl is None:
        return False
    base = getattr(UserDefinedAggregate, method, None)
    return impl is not base


def _accumulate_arity(uda_class: type, method: str) -> Optional[int]:
    """Positional arity of ``method`` (excluding self); None when it
    takes ``*args`` or the signature is unavailable."""
    try:
        signature = inspect.signature(getattr(uda_class, method))
    except (TypeError, ValueError):
        return None
    count = 0
    params = list(signature.parameters.values())
    if params and params[0].name == "self":
        params = params[1:]
    for param in params:
        if param.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            return None
        if param.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
    return count


def verify_uda(uda_class: type) -> AnalysisReport:
    """Contract + permission verification of one UDA class.

    Side effect: records ``_merge_verified`` on the class — the flag the
    planner and :class:`AggregateSpec` consult before trusting
    ``parallel_safe``.
    """
    name = getattr(uda_class, "name", "") or uda_class.__name__
    permission_set = getattr(uda_class, "permission_set", "SAFE")
    # the batch method the aggregates drive is analysed like the rest
    # when the class overrides the base adapter
    batched = ("accumulate_batch",) if _overrides(
        uda_class, "accumulate_batch"
    ) else ()
    report = analyze_class_methods(
        uda_class,
        name,
        ("init", "accumulate", "merge", "terminate") + batched,
        permission_set,
    )

    for required in ("init", "accumulate", "terminate"):
        if not _overrides(uda_class, required):
            report.diagnostics.append(
                finding(
                    "UDX-UDA-LIFECYCLE",
                    name,
                    f"UDA must implement {required}() "
                    "(SqlUserDefinedAggregate contract)",
                )
            )

    declared = getattr(uda_class, "arity", None)
    for method in ("accumulate",) + batched:
        actual = _accumulate_arity(uda_class, method)
        if (
            declared is not None
            and actual is not None
            and _overrides(uda_class, method)
            and actual != declared
        ):
            report.diagnostics.append(
                finding(
                    "UDX-UDA-ARITY",
                    name,
                    f"{method}() takes {actual} argument(s) but the UDA "
                    f"declares arity {declared}",
                )
            )

    has_merge = _overrides(uda_class, "merge")
    parallel_safe = bool(getattr(uda_class, "parallel_safe", False))
    if parallel_safe and not has_merge:
        uda_class._merge_verified = False
        report.diagnostics.append(
            finding(
                "UDX-UDA-NO-MERGE",
                name,
                "declared parallel-safe but implements no merge(); the "
                "planner will force a serial aggregate instead of the "
                "parallel exchange",
            )
        )
    else:
        uda_class._merge_verified = True
        if has_merge and not parallel_safe:
            report.diagnostics.append(
                finding(
                    "UDX-UDA-MERGE-UNUSED",
                    name,
                    "implements merge() but is declared parallel-unsafe; "
                    "merge will never run",
                )
            )
    return report


# ---------------------------------------------------------------------------
# TVFs
# ---------------------------------------------------------------------------


def _row_arities(func: Any, rows_of: Callable[[ast.AST], list]) -> List[int]:
    """Arities of the statically determinable rows of ``func``: the
    tuple displays without a starred element among what ``rows_of``
    picks from each node of its source (empty when there is none)."""
    plain = _underlying_function(func)
    if plain is None:
        return []
    node = _parse_source(plain)
    if node is None:
        return []
    return [
        len(row.elts)
        for child in ast.walk(node)
        for row in rows_of(child)
        if isinstance(row, ast.Tuple)
        and not any(isinstance(el, ast.Starred) for el in row.elts)
    ]


def _returned_row(node: ast.AST) -> list:
    """``fill_row``'s row: the value of a ``return``."""
    return [node.value] if isinstance(node, ast.Return) else []


def _yielded_rows(node: ast.AST) -> list:
    """``batches``' rows: the elements of a yielded list display or the
    element of a yielded list comprehension."""
    if not isinstance(node, ast.Yield):
        return []
    if isinstance(node.value, ast.List):
        return node.value.elts
    if isinstance(node.value, ast.ListComp):
        return [node.value.elt]
    return []


def _materializing_returns(func: Any) -> List[str]:
    """Descriptions of ``return`` statements in ``func`` that hand back
    a materialised collection instead of an iterator."""
    plain = _underlying_function(func)
    if plain is None:
        return []
    if inspect.isgeneratorfunction(plain):
        return []
    node = _parse_source(plain)
    if node is None:
        return []
    findings: List[str] = []
    body_walk = (
        n
        for n in ast.walk(node)
        # don't descend into nested generator helpers: ast.walk does
        # visit them, but a `return [...]` inside a nested *generator*
        # cannot occur (SyntaxError), so plain walk is safe here
        if isinstance(n, ast.Return) and n.value is not None
    )
    for ret in body_walk:
        value = ret.value
        if isinstance(value, (ast.List, ast.ListComp)):
            findings.append("returns a list display")
        elif isinstance(value, ast.Call) and isinstance(
            value.func, ast.Name
        ):
            if value.func.id in _MATERIALIZING_CALLS:
                findings.append(f"returns {value.func.id}(...)")
    return findings


def verify_tvf(tvf: Any) -> AnalysisReport:
    """Contract + permission verification of one TVF instance."""
    name = getattr(tvf, "name", "") or type(tvf).__name__
    permission_set = getattr(tvf, "permission_set", "SAFE")
    from ..udf import TableValuedFunction

    cls = type(tvf)
    batched = getattr(cls, "batches", None) not in (
        None, TableValuedFunction.batches
    )
    methods = ("create", "fill_row") + (("batches",) if batched else ())
    report = analyze_class_methods(cls, name, methods, permission_set)

    for returned in _materializing_returns(cls.create):
        report.diagnostics.append(
            finding(
                "UDX-TVF-MATERIALIZED",
                name,
                f"create() {returned} — a TVF must stream through a "
                "generator/iterator (the CLR pull model), never a "
                "materialised collection",
            )
        )

    columns = tuple(getattr(tvf, "columns", ()) or ())
    if not columns:
        return report
    shapes = [
        ("fill_row() returns", _row_arities(cls.fill_row, _returned_row))
    ]
    if batched:
        shapes.append(
            ("batches() yields", _row_arities(cls.batches, _yielded_rows))
        )
    for what, arities in shapes:
        wrong = [arity for arity in arities if arity != len(columns)]
        if wrong:
            report.diagnostics.append(
                finding(
                    "UDX-TVF-FILLROW-ARITY",
                    name,
                    f"{what} {wrong[0]}-tuples but the TVF "
                    f"declares {len(columns)} output column(s)",
                )
            )
    return report


# ---------------------------------------------------------------------------
# UDTs
# ---------------------------------------------------------------------------


def verify_udt(codec: Any) -> AnalysisReport:
    """Round-trip verification of one UDT codec against its probe."""
    name = getattr(codec, "name", "") or type(codec).__name__
    report = AnalysisReport()
    probe = getattr(codec, "probe", None)
    if probe is None:
        report.diagnostics.append(
            finding(
                "UDX-UDT-NO-PROBE",
                name,
                "no probe value declared — serialize/deserialize "
                "round-trip is unverified",
            )
        )
        return report
    try:
        raw = codec.serialize(probe)
        value = codec.deserialize(raw)
        again = codec.serialize(value)
    except Exception as exc:
        report.diagnostics.append(
            finding(
                "UDX-UDT-ROUNDTRIP",
                name,
                f"probe round-trip raised {type(exc).__name__}: {exc}",
            )
        )
        return report
    if bytes(raw) != bytes(again):
        report.diagnostics.append(
            finding(
                "UDX-UDT-ROUNDTRIP",
                name,
                "probe round-trip is not byte-stable: "
                f"serialize(deserialize(x)) != x for probe {probe!r}",
            )
        )
    else:
        report.analyzed = True
        report.diagnostics.append(
            finding(
                "UDX-UDT-VERIFIED",
                name,
                f"probe {probe!r} round-trips "
                f"({len(bytes(raw))} bytes, byte-stable)",
            )
        )
    return report
