"""The physical-plan sanitizer: what ``SET PLAN_VERIFY ON``,
``Database.check`` and ``repro-genomics sanitize`` run over a finished
plan, before execution.

It holds no ``PLAN-*`` rule. Each invariant the executor assumes is
enforced once, where the operator is built: pass-through operators
take their child's columns and joins the concatenation of their
inputs'; a table leaf derives its projection through
``Schema.column_index``; ``Project`` and ``ParallelHashAggregate``
raise on an arity mismatch, a degree of parallelism below 1 or an
aggregate that is not parallel-safe; the planner builds every
positional key from the scope it compiles against and every pushed
predicate from ``optimizer.cost.sarg``; ``choose_exchange_tier``
decides the exchange's tier, and its note, once.
``benchmarks/mutation_scan.py`` plants faults in that code and
``benchmarks/results/mutation_record.txt`` records the tier-1 test
that fails on each; a rule comes back only with a mutant that tier-1
misses and the rule catches.
"""

from __future__ import annotations

from typing import List

from .diagnostics import Diagnostic


def sanitize_plan(root, database=None) -> List[Diagnostic]:
    """The findings of every ``PLAN-*`` rule over the plan rooted at
    ``root`` (none: the catalog holds no such rule). ``database`` is
    what callers already pass, and unused."""
    return []
