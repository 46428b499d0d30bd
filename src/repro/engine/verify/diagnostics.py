"""What a finding is: the record, the rule catalog, and suppression.

Every analyser in this package reports through this module. Four rule
families share one catalog, each named ``FAMILY-NAME``:

- ``UDX-*`` — registration-time checks of extension bodies and
  contracts (:mod:`.udx_verifier`, :mod:`.contracts`);
- ``LINT-*`` — plan-time lint over the bound SELECT record
  (:mod:`.sql_lint`, plus the planner's forced-serial aggregate and the
  CLI's load/parse failures);
- ``PLAN-*`` — the physical-plan sanitizer (:mod:`.plan_sanitizer`);
- ``FORK-*`` — fork/pickle safety of the engine's own source
  (:mod:`.parallel_safety`).

A rule's severity is decided here and nowhere else: analysers build
findings with :func:`finding`, which reads it from :data:`RULES`. IDs
never change meaning once shipped; suppression pragmas, the
``sys_dm_verify_results`` view and CI key on them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..errors import BindError

#: rule ID -> (severity, summary); severity is "error", "warning" or
#: "info". The module docstrings of the analysers describe each rule.
RULES: Dict[str, Tuple[str, str]] = {
    # registration: permission sets and inferred properties
    "UDX-PERMISSION-SET": ("error", "unknown permission set"),
    "UDX-UNSAFE": ("warning", "UNSAFE: verification skipped"),
    "UDX-NO-SOURCE": ("info", "no source: properties declared, not verified"),
    "UDX-SAFE-IMPORT": ("error", "SAFE code reaches an I/O module"),
    "UDX-UNSAFE-MODULE": ("error", "module needs the UNSAFE permission set"),
    "UDX-SAFE-CALL": ("error", "SAFE code calls an I/O builtin"),
    "UDX-UNSAFE-CALL": ("error", "dynamic code outside UNSAFE"),
    # the two state writes are warnings outside SAFE (_BodyWalker)
    "UDX-SAFE-GLOBAL-WRITE": ("error", "body mutates global state"),
    "UDX-SAFE-CLOSURE-WRITE": ("error", "body mutates closed-over state"),
    "UDX-SAFE-DATA-ACCESS": ("error", "SAFE code reaches stored data"),
    "UDX-NONDETERMINISTIC": ("info", "inferred IsDeterministic=false"),
    "UDX-UNVERIFIED-CALL": ("info", "callees leave determinism unknown"),
    "UDX-DATA-ACCESS-MISMATCH": ("error", "reads data, declares None"),
    "UDX-DETERMINISM-MISMATCH": ("warning", "declared deterministic, is not"),
    # registration: structural contracts
    "UDX-UDA-LIFECYCLE": ("error", "UDA lacks init/accumulate/terminate"),
    "UDX-UDA-ARITY": ("error", "accumulate() arity differs from the UDA's"),
    "UDX-UDA-NO-MERGE": ("warning", "parallel-safe UDA without merge()"),
    "UDX-UDA-MERGE-UNUSED": ("info", "merge() on a parallel-unsafe UDA"),
    "UDX-TVF-MATERIALIZED": ("error", "create() returns a collection"),
    "UDX-TVF-FILLROW-ARITY": ("error", "TVF row arity differs from schema"),
    "UDX-UDT-NO-PROBE": ("warning", "no probe: round-trip unverified"),
    "UDX-UDT-ROUNDTRIP": ("error", "probe does not round-trip"),
    "UDX-UDT-VERIFIED": ("info", "probe round-trips byte-stably"),
    # plan-time lint; SERIAL-AGG comes from the planner, LOAD and SQL from
    # `repro-genomics lint`
    "LINT-TYPE": ("warning", "column/literal comparison mixes kinds"),
    "LINT-SARG": ("warning", "function-wrapped indexed column defeats a seek"),
    "LINT-CARTESIAN": ("warning", "join without an equality predicate"),
    "LINT-UNUSED-COLUMN": ("warning", "derived column never read"),
    "LINT-SERIAL-AGG": ("warning", "unverified UDA merge forces serial"),
    "LINT-LOAD": ("error", "extension module failed to import"),
    "LINT-SQL": ("error", "statement failed to parse or bind"),
    # physical-plan sanitizer
    "PLAN-ARITY": ("error", "output arity disagrees with descriptors"),
    "PLAN-SCHEMA": ("error", "column names break the schema flow"),
    "PLAN-KEY-RANGE": ("error", "key/argument index out of range"),
    "PLAN-EXCHANGE-MERGE": ("error", "unmergeable aggregate in an exchange"),
    "PLAN-EXCHANGE-DOP": ("error", "parallel exchange with invalid DOP"),
    "PLAN-EXCHANGE-FLOAT-SUM": ("error", "float SUM/AVG sent to workers"),
    "PLAN-EXCHANGE-SILENT": ("warning", "serial fallback without a note"),
    "PLAN-PUSHDOWN-OP": ("error", "pushed predicate with unsupported op"),
    "PLAN-PUSHDOWN-RANGE": ("error", "pushed column position out of range"),
    "PLAN-PUSHDOWN-SHAPE": ("error", "pushed literal shape wrong for its op"),
    # fork/pickle safety of the engine source
    "FORK-HANDLER-TOPLEVEL": ("error", "handler not resolvable by name"),
    "FORK-PICKLE-CLOSURE": ("error", "closure embedded in a task payload"),
    "FORK-SHARED-STATE": ("error", "undeclared mutable module state"),
    "FORK-CLOCK": ("error", "wall clock in span/phase timing"),
    "FORK-PARSE": ("error", "module source failed to parse"),
}


@dataclass
class Diagnostic:
    """One finding of any analyser in this package.

    ``rule`` is a key of :data:`RULES`; ``obj`` names the offending
    function, aggregate, type, operator path, source line or query.
    """

    rule: str
    severity: str  # "error" | "warning" | "info"
    obj: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.obj}: [{self.rule}] {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


def finding(rule: str, obj: str, message: str) -> Diagnostic:
    """A finding of ``rule`` at its catalog severity (an unknown rule
    raises ``KeyError``)."""
    return Diagnostic(rule, RULES[rule][0], obj, message)


class VerificationError(BindError):
    """Registration was refused: the extension failed verification.

    Carries the full diagnostic list so callers (tests, the lint CLI)
    can inspect individual rules.
    """

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = list(diagnostics)
        errors = [d for d in diagnostics if d.is_error]
        super().__init__(
            "; ".join(str(d) for d in errors)
            or "; ".join(str(d) for d in diagnostics)
        )


_SUPPRESS_PRAGMA = re.compile(
    r"--\s*lint:\s*ignore\s+([A-Z][A-Z0-9-]*(?:\s*,\s*[A-Z][A-Z0-9-]*)*)",
    re.IGNORECASE,
)


def parse_suppressions(sql: str) -> frozenset:
    """Rule IDs named by ``-- lint: ignore RULE[, RULE…]`` pragmas in a
    SQL text (a single statement's ``source_sql`` or a whole script).
    Unknown rule IDs are kept — suppressing a rule that does not exist
    yet is harmless and keeps pragmas forward-compatible."""
    suppressed: Set[str] = set()
    for match in _SUPPRESS_PRAGMA.finditer(sql or ""):
        for rule in match.group(1).split(","):
            rule = rule.strip().upper()
            if rule:
                suppressed.add(rule)
    return frozenset(suppressed)
