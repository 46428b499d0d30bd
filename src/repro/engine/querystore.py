"""A persistent Query Store: normalised queries, interned plans, and
per-interval runtime statistics — the engine's only per-query stat store.

SQL Server 2016's Query Store is what makes a workload like the paper's
— the same level-1→3 queries re-planned and re-run for every lane —
operable: it keys history by *normalised* statement text, interns every
distinct plan a query has run with, and accumulates runtime statistics
per (query, plan, time interval), persisted inside the database itself.
This module reproduces that shape:

- queries are keyed by the statement's normalised text — literals
  become ``?`` parameter markers, keywords uppercase, whitespace
  collapses — so ``WHERE r_id = 3`` and ``where r_id=7`` share one
  entry. The parser makes that text from the tokens it already holds
  (``stmt.normalized_sql``) and ``Database.execute`` passes it to
  :meth:`QueryStore.record`; :func:`normalize_statement` is the same
  function for callers that only have text;
- plans are interned by a structural signature (the operator tree's
  static labels), so a plan change after ``UPDATE STATISTICS`` shows up
  as a second plan row under the same query;
- runtime stats accumulate per ``INTERVAL_SECONDS`` bucket (SQL
  Server's ``runtime_stats_interval``), recording executions, wall
  clock, rows, IO/batch/segment counters, last DOP, and *estimated vs
  actual* rows — the feedback signal adaptive optimization needs;
- each :class:`StoredQuery` owns its plans and runtime rows; the store
  keeps the ``RETAIN`` most recently *executed* queries, so evicting
  one touches nothing but that query's history;
- the whole store round-trips to JSON (``querystore.json`` alongside
  the FILESTREAM filegroup, flat version-1 layout), so history survives
  a database restart.

Surfaced as ``sys_dm_query_store_query`` / ``_plan`` /
``_runtime_stats`` and their per-query roll-up
``sys_dm_exec_query_stats`` (see :mod:`repro.engine.metrics`).
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .errors import SqlSyntaxError
from .sql.lexer import mask_literals, normalized_text, tokenize

#: sentinel for "no estimate available" in integer DMV columns
_NO_ESTIMATE = -1


def normalize_statement(sql: str) -> str:
    """Canonical form of a statement for query-store keying.

    Tokenises with the engine lexer and re-joins: numeric and string
    literals become ``?``, keywords uppercase, comments and whitespace
    differences vanish. Unlexable text (CLI pseudo-statements, foreign
    dialects) falls back to whitespace collapsing.

    For callers that only have text (``find_query``, the CLI, tests):
    the parser attaches the same string to every statement it produces
    (``stmt.normalized_sql``), so statement execution never calls this."""
    try:
        tokens = tokenize(sql)
    except SqlSyntaxError:  # fall back, never fail the caller
        return " ".join(sql.split())
    return normalized_text(tokens[:-1])


def plan_signature(op: Any) -> Tuple[Tuple[int, str], ...]:
    """Structural identity of a physical plan: the tree of operator
    labels with literals masked, depth-tagged. Two executions share a
    plan_id iff their trees label identically — seek predicates like
    ``a = (3,)`` must not fragment the store into one plan per
    parameter value, so numbers and strings inside labels become ``?``
    (the same treatment :func:`normalize_statement` gives query text)."""
    parts: List[Tuple[int, str]] = []

    def walk(node: Any, depth: int) -> None:
        label, _children = node.explain_node()
        parts.append((depth, mask_literals(label)))
        for child in node.children():
            walk(child, depth + 1)

    walk(op, 0)
    return tuple(parts)


def _iso(epoch: Optional[float]) -> str:
    if epoch is None:
        return ""
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(epoch))


# ---------------------------------------------------------------------------
# store entries
# ---------------------------------------------------------------------------


@dataclass
class StoredPlan:
    """One interned plan for a query."""

    plan_id: int
    query_id: int
    plan_text: str
    est_rows: Optional[int]
    first_seen: float
    last_dop: int = 1
    execution_count: int = 0


@dataclass
class RuntimeStats:
    """Accumulated runtime statistics for (query, plan, interval)."""

    query_id: int
    plan_id: int
    interval_id: int
    interval_start: float
    executions: int = 0
    total_elapsed: float = 0.0
    last_elapsed: float = 0.0
    total_rows: int = 0
    last_rows: int = 0
    last_est_rows: Optional[int] = None
    last_actual_rows: int = 0
    total_logical_reads: int = 0
    total_pages_written: int = 0
    total_batch_reads: int = 0
    total_segments_read: int = 0
    total_segments_skipped: int = 0
    last_dop: int = 1

    def record(
        self,
        elapsed: float,
        rows: int,
        io: Dict[str, int],
        dop: int,
        est_rows: Optional[int],
    ) -> None:
        self.executions += 1
        self.total_elapsed += elapsed
        self.last_elapsed = elapsed
        self.total_rows += rows
        self.last_rows = rows
        self.last_est_rows = est_rows
        self.last_actual_rows = rows
        self.total_logical_reads += io.get("pages_read", 0) + io.get(
            "index_node_visits", 0
        )
        self.total_pages_written += io.get("pages_written", 0)
        self.total_batch_reads += io.get("batch_reads", 0)
        self.total_segments_read += io.get("segments_read", 0)
        self.total_segments_skipped += io.get("segments_skipped", 0)
        self.last_dop = dop


_PlanSignature = Tuple[Tuple[int, str], ...]


@dataclass
class StoredQuery:
    """One normalised query text, owning its plans and runtime rows —
    so reading or evicting a query's history never scans another's."""

    query_id: int
    query_text: str
    statement_kind: str
    first_seen: float
    last_seen: float
    execution_count: int = 0
    #: plan signature -> interned plan
    plans: Dict[_PlanSignature, StoredPlan] = field(default_factory=dict)
    #: (plan_id, interval_id) -> stats, least recently recorded first
    runtime: Dict[Tuple[int, int], RuntimeStats] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class QueryStore:
    """Per-database query store with JSON persistence: the engine's one
    per-query stat store (``sys_dm_exec_query_stats`` is a roll-up of its
    runtime rows)."""

    #: distinct normalised queries kept; the least recently executed is
    #: evicted with its plans and runtime rows
    RETAIN = 200
    #: the runtime stats bucketing window (SQL Server's default, 60 min)
    INTERVAL_SECONDS = 3600.0
    #: persist every N captured statements (crash safety: a killed
    #: process loses at most one interval's feedback data)
    CHECKPOINT_INTERVAL = 256

    def __init__(self):
        self.records_since_checkpoint = 0
        #: normalised text -> query, least recently executed first
        self._queries: "OrderedDict[str, StoredQuery]" = OrderedDict()
        self._by_id: Dict[int, StoredQuery] = {}
        self._next_query_id = 1
        self._next_plan_id = 1
        self.dirty = False

    # -- capture -----------------------------------------------------------------

    def record(
        self,
        query_text: str,
        kind: str,
        elapsed: float,
        rows: int,
        io: Optional[Dict[str, int]] = None,
        dop: int = 1,
        plan: Any = None,
        now: Optional[float] = None,
    ) -> None:
        """Capture one execution under ``query_text``, the statement's
        *normalised* text (the parser's ``normalized_sql``, or
        :func:`normalize_statement` of raw SQL). ``plan`` is the
        executed physical operator tree when the statement had one
        (SELECT / EXPLAIN ANALYZE); plan-less statements land under
        plan_id 0."""
        if now is None:
            now = time.time()
        query = self._queries.get(query_text)
        if query is None:
            if len(self._queries) >= self.RETAIN:
                _text, victim = self._queries.popitem(last=False)
                del self._by_id[victim.query_id]
            query = StoredQuery(
                query_id=self._next_query_id,
                query_text=query_text,
                statement_kind=kind,
                first_seen=now,
                last_seen=now,
            )
            self._next_query_id += 1
            self._queries[query_text] = query
            self._by_id[query.query_id] = query
        else:
            self._queries.move_to_end(query_text)
        query.execution_count += 1
        query.last_seen = now

        plan_id = 0
        est_rows: Optional[int] = None
        if plan is not None:
            signature = plan.facts.signature
            est_rows = getattr(plan, "est_rows", None)
            stored_plan = query.plans.get(signature)
            if stored_plan is None:
                stored_plan = StoredPlan(
                    plan_id=self._next_plan_id,
                    query_id=query.query_id,
                    plan_text=plan.explain(),
                    est_rows=est_rows,
                    first_seen=now,
                )
                self._next_plan_id += 1
                query.plans[signature] = stored_plan
            stored_plan.execution_count += 1
            stored_plan.last_dop = dop
            stored_plan.est_rows = est_rows
            plan_id = stored_plan.plan_id

        interval_id = int(now // self.INTERVAL_SECONDS)
        # ``query.runtime`` stays in recording order, so its last row is
        # the one the roll-up's ``last_*`` columns read: a repeat of the
        # last row updates it in place, any other moves to the end
        key = (plan_id, interval_id)
        runtime = query.runtime.get(key)
        if runtime is None:
            runtime = query.runtime[key] = RuntimeStats(
                query_id=query.query_id,
                plan_id=plan_id,
                interval_id=interval_id,
                interval_start=interval_id * self.INTERVAL_SECONDS,
            )
        elif next(reversed(query.runtime)) != key:
            query.runtime[key] = query.runtime.pop(key)
        runtime.record(elapsed, rows, io or {}, dop, est_rows)
        self.dirty = True
        self.records_since_checkpoint += 1

    def maybe_checkpoint(self, path: Any) -> bool:
        """Save to ``path`` when :attr:`CHECKPOINT_INTERVAL` captures
        have accumulated since the last save; returns True when it
        saved."""
        if (
            not self.dirty
            or self.records_since_checkpoint < self.CHECKPOINT_INTERVAL
        ):
            return False
        self.save(path)
        return True

    # -- reading -----------------------------------------------------------------

    def queries(self) -> List[StoredQuery]:
        return list(self._queries.values())

    def find_query(self, sql: str) -> Optional[StoredQuery]:
        return self._queries.get(normalize_statement(sql))

    def plans_for(self, query_id: int) -> List[StoredPlan]:
        query = self._by_id.get(query_id)
        return list(query.plans.values()) if query else []

    def runtime_for(
        self, query_id: int, plan_id: Optional[int] = None
    ) -> List[RuntimeStats]:
        query = self._by_id.get(query_id)
        if query is None:
            return []
        return [
            r
            for r in query.runtime.values()
            if plan_id is None or r.plan_id == plan_id
        ]

    # -- DMV row sources ---------------------------------------------------------

    def query_rows(self) -> List[Tuple[Any, ...]]:
        return [
            (
                q.query_id,
                q.query_text,
                q.statement_kind,
                _iso(q.first_seen),
                _iso(q.last_seen),
                q.execution_count,
                len(q.plans),
            )
            for q in self._queries.values()
        ]

    def query_stats_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for ``sys_dm_exec_query_stats``: one per retained query,
        its runtime rows summed over plans and intervals, ``last_*``
        from the most recently recorded row."""
        rows = []
        for q in self._queries.values():
            stats = list(q.runtime.values())
            executions = sum(r.executions for r in stats)
            if not executions:
                continue  # only a hand-edited querystore.json gets here
            elapsed = sum(r.total_elapsed for r in stats)
            last = stats[-1]
            rows.append(
                (
                    q.query_text,
                    q.statement_kind,
                    executions,
                    round(elapsed * 1000.0, 3),
                    round(elapsed / executions * 1000.0, 3),
                    round(last.last_elapsed * 1000.0, 3),
                    sum(r.total_rows for r in stats),
                    sum(r.total_logical_reads for r in stats),
                    sum(r.total_pages_written for r in stats),
                    sum(r.total_batch_reads for r in stats),
                    sum(r.total_segments_read for r in stats),
                    sum(r.total_segments_skipped for r in stats),
                    last.last_dop,
                )
            )
        return rows

    def plan_rows(self) -> List[Tuple[Any, ...]]:
        return [
            (
                p.plan_id,
                p.query_id,
                p.plan_text,
                _NO_ESTIMATE if p.est_rows is None else int(p.est_rows),
                _iso(p.first_seen),
                p.last_dop,
                p.execution_count,
            )
            for q in self._queries.values()
            for p in q.plans.values()
        ]

    def runtime_rows(self) -> List[Tuple[Any, ...]]:
        rows = []
        for q in self._queries.values():
            for r in q.runtime.values():
                rows.append(
                    (
                        r.query_id,
                        r.plan_id,
                        r.interval_id,
                        _iso(r.interval_start),
                        r.executions,
                        round(r.total_elapsed * 1000.0, 3),
                        round(r.total_elapsed / max(r.executions, 1) * 1000.0, 3),
                        round(r.last_elapsed * 1000.0, 3),
                        r.total_rows,
                        (
                            _NO_ESTIMATE
                            if r.last_est_rows is None
                            else int(r.last_est_rows)
                        ),
                        r.last_actual_rows,
                        r.total_logical_reads,
                        r.total_batch_reads,
                        r.total_segments_read,
                        r.total_segments_skipped,
                        r.last_dop,
                        r.total_pages_written,
                    )
                )
        return rows

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The flat version-1 layout (three row lists joined by ids)."""
        queries = list(self._queries.values())
        return {
            "version": 1,
            "next_query_id": self._next_query_id,
            "next_plan_id": self._next_plan_id,
            "interval_seconds": self.INTERVAL_SECONDS,
            "queries": [
                {
                    name: value
                    for name, value in vars(q).items()
                    if name not in ("plans", "runtime")
                }
                for q in queries
            ],
            "plans": [
                {"signature": list(map(list, sig)), **vars(plan)}
                for q in queries
                for sig, plan in q.plans.items()
            ],
            "runtime": [
                vars(r) for q in queries for r in q.runtime.values()
            ],
        }

    def from_dict(self, payload: Dict[str, Any]) -> None:
        self._queries = OrderedDict()
        self._by_id = {}
        self._next_query_id = int(payload.get("next_query_id", 1))
        self._next_plan_id = int(payload.get("next_plan_id", 1))
        for entry in payload.get("queries", []):
            query = StoredQuery(**entry)
            self._queries[query.query_text] = query
            self._by_id[query.query_id] = query
        for entry in payload.get("plans", []):
            entry = dict(entry)
            signature = tuple(
                (int(depth), label) for depth, label in entry.pop("signature")
            )
            plan = StoredPlan(**entry)
            self._by_id[plan.query_id].plans[signature] = plan
        for entry in payload.get("runtime", []):
            stats = RuntimeStats(**entry)
            self._by_id[stats.query_id].runtime[
                (stats.plan_id, stats.interval_id)
            ] = stats
        self.dirty = False

    def save(self, path: Any) -> None:
        """Write a sibling temp file, then rename it over ``path``: a
        crash mid-checkpoint leaves the previous file whole, never a
        truncated one."""
        target = os.fspath(path)
        scratch = target + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, target)
        self.dirty = False
        self.records_since_checkpoint = 0

    def load(self, path: Any) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            self.from_dict(json.load(handle))
