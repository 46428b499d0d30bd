"""Static verification of registered extensions (the CLR-host analogue).

SQL Server only admits a CLR assembly after the hosted verifier checks
it against its declared permission set (``SAFE`` / ``EXTERNAL_ACCESS`` /
``UNSAFE``) and its attributes (``IsDeterministic``, ``DataAccessKind``,
``OnNullCall``) — and the optimizer then *relies* on those verified
properties to memoise, push down, and parallelise UDx calls (paper
Sections 2.3.2–2.3.4). This package is our equivalent, run at
registration time and at plan time:

- :mod:`.diagnostics` — what a finding is: the ``Diagnostic`` record,
  the one ``RULES`` catalog of all four rule families (``UDX-``,
  ``LINT-``, ``PLAN-``, ``FORK-``) that decides every severity, and
  the ``-- lint: ignore`` pragma parser;
- :mod:`.udx_verifier` — Python-``ast`` analysis of every registered
  scalar UDF / TVF / UDA / UDT body against its permission set, plus
  inference of ``is_deterministic`` and ``data_access``;
- :mod:`.contracts` — structural contract checking (UDA lifecycle and
  arity, streaming TVF ``create``, ``fill_row``/schema arity, UDT
  round-trip probes);
- :mod:`.sql_lint` — semantic lint over the bound SELECT record (static
  type checks, SARGability, cartesian products, unused projections),
  with stable ``LINT-*`` rule IDs and suppression pragmas;
- :mod:`.plan_sanitizer` — the typed physical-plan verifier: walks a
  finished physical operator tree and proves, per operator, the
  invariants the executor assumes (``PLAN-*`` rules);
- :mod:`.parallel_safety` — fork/pickle-safety static analysis of the
  parallel engine's own source (``FORK-*`` rules);
- :mod:`.plan_corpus` — the golden plan corpus the sanitizer must pass
  with zero diagnostics (Figure 9/10 shapes + the differential-suite
  shapes across storage × mode × DOP).

Diagnostics surface through ``db.messages``, the
``sys_dm_verify_results`` system view, EXPLAIN plan notes, and the
``repro-genomics lint`` / ``repro-genomics sanitize`` CLI commands.
"""

from __future__ import annotations

from .diagnostics import (
    RULES,
    Diagnostic,
    VerificationError,
    parse_suppressions,
)
from .udx_verifier import (
    PERMISSION_SETS,
    AnalysisReport,
    analyze_callable,
    analyze_class_methods,
)
from .contracts import (
    verify_scalar,
    verify_tvf,
    verify_uda,
    verify_udt,
)
from .sql_lint import lint_plan
from .plan_sanitizer import sanitize_plan
from .parallel_safety import (
    analyze_fork_safety,
    analyze_path,
    analyze_source,
)

__all__ = [
    "RULES",
    "Diagnostic",
    "VerificationError",
    "parse_suppressions",
    "PERMISSION_SETS",
    "AnalysisReport",
    "analyze_callable",
    "analyze_class_methods",
    "verify_scalar",
    "verify_tvf",
    "verify_uda",
    "verify_udt",
    "lint_plan",
    "sanitize_plan",
    "analyze_fork_safety",
    "analyze_path",
    "analyze_source",
]
