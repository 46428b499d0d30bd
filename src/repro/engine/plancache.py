"""Plan cache for hot parameterized traffic.

The paper's workloads are dominated by *parameterized repetition*: the
same handful of statement shapes — window scans over probe intervals,
per-gene lookups, MegaBLAST staging queries — executed thousands of
times with different literals.  SQL Server amortises that traffic
through its procedure cache: plans are keyed by normalized text and
re-executed with each execution's parameter values.

This module is our reproduction of that cache:

- :func:`parameterize_select` rewrites a parsed ``SELECT`` into a
  *plan template*: every inline literal becomes a :class:`Parameter`
  slot reading a shared value store, so one compiled physical plan
  serves every literal combination of the same normalized text.
- :class:`PlanCache` keys templates by normalized SQL plus a cache
  *epoch* (schema version, statistics version, the ``PLAN_VERIFY``
  session knob).  A hit skips parse→optimize→lower entirely: the cached
  operator tree is re-executed with fresh values poked into the store.
  A cached plan is value-agnostic — seek bounds and pushed predicates
  read their slots at execute time — so the values it was compiled
  under can change its speed, never its answer.
- Invalidation is lazy and reasoned: DDL, ``UPDATE STATISTICS``,
  and knob changes bump epoch components; mismatched entries are
  evicted on next touch with the component named in the eviction
  reason, surfaced through ``sys_dm_exec_plan_cache_stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from .expressions import Expr, Literal, Parameter, rewrite, walk
from .sql import ast
from .sql.lexer import split_literals
from .verify.diagnostics import parse_suppressions

# ---------------------------------------------------------------------------
# statement parameterization
# ---------------------------------------------------------------------------


@dataclass
class ParameterizedStatement:
    """A SELECT rewritten into a reusable plan template.

    ``template`` is structurally identical to the source statement
    except that inline literals are :class:`Parameter` nodes reading
    ``store[i]``; ``store`` holds the literal values of *this* parse.
    ``extras`` collects every masked-but-unparameterizable value —
    FROM-level TVF arguments (evaluated at plan time), OPENROWSET
    paths, TOP and MAXDOP — and the statement's ``-- lint: ignore``
    rules, all of which must join the cache key instead."""

    template: ast.SelectStmt
    store: List[Any]
    extras: Tuple[Any, ...]


def parameterize_select(stmt: ast.SelectStmt) -> ParameterizedStatement:
    """Extract parameter slots from ``stmt``.

    Traversal order is the deterministic bottom-up order of
    :func:`repro.engine.expressions.rewrite` over the statement's
    clauses in a fixed sequence, so two parses of the same normalized
    text always yield slots in the same positions — the property the
    hit path relies on to rebind values without bookkeeping."""
    store: List[Any] = []
    extras: List[Any] = []

    def lift(node: Expr) -> Optional[Expr]:
        # NULL stays inline: the NULL keyword is not masked by
        # normalization, so it is part of the statement's identity
        if type(node) is Literal and node.value is not None:
            param = Parameter(len(store), store)
            store.append(node.value)
            return param
        return None

    def rw(expr: Optional[Expr]) -> Optional[Expr]:
        return rewrite(expr, lift) if expr is not None else None

    def key_literals(expr: Expr) -> None:
        for node in walk(expr):
            if type(node) is Literal:
                extras.append(node.value)

    def rewrite_source(source: Any, in_apply: bool = False) -> Any:
        if isinstance(source, ast.SubqueryRef):
            return ast.SubqueryRef(
                rewrite_select(source.select), alias=source.alias
            )
        if isinstance(source, ast.TvfRef):
            if in_apply:
                # CROSS APPLY arguments are compiled per outer row —
                # genuine runtime expressions, safe to parameterize
                return ast.TvfRef(
                    source.name,
                    tuple(rw(arg) for arg in source.args),
                    alias=source.alias,
                )
            # FROM-level TVF arguments are evaluated at *plan* time
            # (the rowset is materialized during lowering), so their
            # literals select the plan and must key the cache instead
            for arg in source.args:
                key_literals(arg)
            return source
        if isinstance(source, ast.OpenRowsetRef):
            extras.append(("openrowset", source.path))
            return source
        return source

    def rewrite_select(select: ast.SelectStmt) -> ast.SelectStmt:
        items = [
            item
            if item.star or item.expr is None
            else ast.SelectItem(
                expr=rw(item.expr),
                alias=item.alias,
                star=item.star,
                star_qualifier=item.star_qualifier,
            )
            for item in select.items
        ]
        joins = [
            ast.JoinClause(
                join.kind,
                rewrite_source(join.source, in_apply=join.kind != "JOIN"),
                rw(join.on),
            )
            for join in select.joins
        ]
        out = ast.SelectStmt(
            items=items,
            source=rewrite_source(select.source),
            joins=joins,
            where=rw(select.where),
            group_by=[rw(expr) for expr in select.group_by],
            having=rw(select.having),
            order_by=[(rw(expr), desc) for expr, desc in select.order_by],
            top=select.top,
            distinct=select.distinct,
            maxdop=select.maxdop,
        )
        # TOP / MAXDOP are masked by normalization but shape the plan
        # (limit operator, exchange placement) — key on them
        extras.append(("top", select.top))
        extras.append(("maxdop", select.maxdop))
        return out

    template = rewrite_select(stmt)
    # the planner reads source_sql for lint suppressions / diagnostics.
    # Comments are not part of the normalised text, so the suppressed
    # rules key the cache: otherwise a rendition without the pragma
    # would hit a plan linted under it (or the other way round)
    template.source_sql = getattr(stmt, "source_sql", "") or ""
    extras.append(("lint ignore", parse_suppressions(template.source_sql)))
    return ParameterizedStatement(template, store, tuple(extras))


# ---------------------------------------------------------------------------
# cache entries
# ---------------------------------------------------------------------------


@dataclass
class CacheEntry:
    #: (normalised statement text, extras)
    key: Tuple[str, Tuple[Any, ...]]
    store: List[Any]
    plan: Any
    epoch: Tuple[Any, ...]
    #: the plan's notes on a hit, built once at the miss
    hit_notes: Tuple[str, ...]
    param_count: int
    hits: int = 0
    created_at: int = 0
    last_used_at: int = 0
    #: raw-text shapes registered for the parse-free hit path
    fast_shapes: Set[str] = field(default_factory=set)


class CacheOutcome:
    """The plan :meth:`PlanCache.fetch` resolved for one execution."""

    __slots__ = ("plan",)

    def __init__(self, plan: Any):
        self.plan = plan


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Normalized-SQL → compiled-plan cache with LRU eviction.

    Epoch components (checked lazily on every touch):

    0. catalog schema version — any DDL invalidates (reason
       ``schema``);
    1. database statistics epoch — ``UPDATE STATISTICS`` invalidates
       (reason ``statistics``);
    2. the plan-affecting session knob ``PLAN_VERIFY`` (reason
       ``knobs``).

    Past ``capacity`` entries the least recently used one is evicted
    (reason ``capacity``)."""

    #: epoch component index → eviction reason
    _EPOCH_REASONS = ("schema", "statistics", "knobs")

    def __init__(self, database: Any):
        self.database = database
        self.enabled = True
        self.capacity = 128
        self._entries: "OrderedDict[Tuple[str, Tuple], CacheEntry]" = (
            OrderedDict()
        )
        #: raw-text shape → entry, for the parse-free hit path (an
        #: evicted entry leaves it, so every entry here is live)
        self._fast_index: Dict[str, CacheEntry] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.eviction_reasons: Dict[str, int] = {}

    # -- epoch ------------------------------------------------------------------

    def current_epoch(self) -> Tuple[Any, ...]:
        db = self.database
        return (
            db.catalog.schema_version,
            db.stats_epoch,
            db.plan_verify,
        )

    def _epoch_reason(
        self, old: Tuple[Any, ...], new: Tuple[Any, ...]
    ) -> str:
        for index, (before, after) in enumerate(zip(old, new)):
            if before != after:
                return self._EPOCH_REASONS[index]
        return "knobs"

    # -- main entry points ------------------------------------------------------

    def fetch_text(self, sql: str) -> Optional[CacheEntry]:
        """Raw-text hit path: resolve a plan without parsing at all.

        One regex pass masks ``sql`` into its statement shape; shapes
        registered by :meth:`_register_fast` map straight to a cache
        entry whose slot order provably matches the text order of the
        literals, so rebinding is a positional extract-and-poke. Every
        doubt — unregistered shape, stale epoch, literal-count
        mismatch — returns None and defers to the parse path, which
        owns all miss/eviction bookkeeping. Only clean hits are counted
        here. A hit returns the entry itself: its ``plan``, and its
        ``key[0]`` is the normalised text a never-tokenised statement is
        recorded under."""
        if not self.enabled or not self._fast_index:
            return None
        shape, values = split_literals(sql)
        entry = self._fast_index.get(shape)
        if entry is None:
            return None
        if entry.epoch != self.current_epoch():
            return None
        if values is None or len(values) != entry.param_count:
            return None
        entry.store[:] = values
        self._clock += 1
        self._hit(entry)
        return entry

    def fetch(self, stmt: ast.SelectStmt) -> CacheOutcome:
        """Resolve a plan for one *execution* of ``stmt``.

        The plan's last note says which of three outcomes it was:
        "plan cache hit", "plan cache miss" or "plan cache miss
        (invalidated: <reason>)"; with the cache disabled the planner
        is invoked directly and no note is added."""
        planner = self.database._planner
        if not self.enabled:
            return CacheOutcome(planner.plan_select(stmt))

        self._clock += 1
        parsed = parameterize_select(stmt)
        key = (stmt.normalized_sql, parsed.extras)
        epoch = self.current_epoch()

        invalidated: Optional[str] = None
        entry = self._entries.get(key)
        if entry is not None and entry.epoch != epoch:
            invalidated = self._epoch_reason(entry.epoch, epoch)
            self._evict(key, invalidated)
            entry = None

        if entry is not None:
            if len(parsed.store) == entry.param_count:
                entry.store[:] = parsed.store
                self._register_fast(entry, stmt)
                self._hit(entry)
                return CacheOutcome(entry.plan)
            # same normalized text resolved to a different slot shape
            # (only reachable via normalization fallbacks) — drop the
            # entry and recompile
            self._evict(key, "shape")

        # miss (cold, invalidated, or shape-evicted)
        self.misses += 1
        plan = planner.plan_select(parsed.template)
        notes = list(plan.plan_notes)
        entry = CacheEntry(
            key=key,
            store=parsed.store,
            plan=plan,
            epoch=epoch,
            hit_notes=(*notes, "plan cache hit"),
            param_count=len(parsed.store),
            created_at=self._clock,
            last_used_at=self._clock,
        )
        self._insert(key, entry)
        self._register_fast(entry, stmt)
        if invalidated is not None:
            note = f"plan cache miss (invalidated: {invalidated})"
        else:
            note = "plan cache miss"
        plan.plan_notes = notes + [note]
        return CacheOutcome(plan)

    def peek(self, stmt: ast.SelectStmt) -> Optional[str]:
        """What would :meth:`fetch` do for ``stmt``? — for EXPLAIN.

        Bumps no counters, caches nothing, and leaves entry stores
        untouched, so plan inspection never perturbs cache state."""
        if not self.enabled:
            return None
        parsed = parameterize_select(stmt)
        entry = self._entries.get((stmt.normalized_sql, parsed.extras))
        if entry is None:
            return "plan cache miss"
        epoch = self.current_epoch()
        if entry.epoch != epoch:
            reason = self._epoch_reason(entry.epoch, epoch)
            return f"plan cache miss (invalidated: {reason})"
        if len(parsed.store) != entry.param_count:
            return "plan cache miss"
        return "plan cache hit"

    def clear(self, reason: str = "explicit") -> int:
        """Drop every entry; returns the count."""
        dropped = len(self._entries)
        for key in list(self._entries):
            self._evict(key, reason)
        self._fast_index.clear()
        return dropped

    def _hit(self, entry: CacheEntry) -> None:
        """Count a hit on ``entry``, whose store is already rebound."""
        self.hits += 1
        entry.hits += 1
        entry.last_used_at = self._clock
        self._entries.move_to_end(entry.key)
        entry.plan.plan_notes = entry.hit_notes

    # -- parse-free hit path ----------------------------------------------------

    def _register_fast(self, entry: CacheEntry, stmt: ast.SelectStmt) -> None:
        """Index ``entry``'s raw-text shape for :meth:`fetch_text`.

        Registration demands *proof* that positional literal
        extraction rebinds correctly: the regex-extracted values of the
        statement's source text must equal the parse-derived store
        pointwise (same value, same type — this rules out literals the
        regex can't see, like TOP/TVF/MAXDOP extras, folded signs, or
        exponent forms) and be pairwise distinct. Distinctness is what
        makes pointwise equality a proof: if token order permuted slot
        order anywhere, two distinct values would disagree. The
        token→slot mapping is structural, so one proven rendition
        certifies every rendition of the shape. Anything unprovable
        just stays on the parse path."""
        if len(entry.fast_shapes) >= 4:
            return
        raw = getattr(stmt, "source_sql", "") or ""
        if not raw or raw.lstrip()[:7].upper() == "EXPLAIN":
            return
        shape, values = split_literals(raw)
        if values is None or len(values) != entry.param_count:
            return
        for value, slot in zip(values, entry.store):
            if type(value) is not type(slot) or value != slot:
                return
        if len(set(map(repr, values))) != len(values):
            return
        if "--" in shape:
            # the shape collapses newlines, which end a line comment:
            # two texts that differ in what is commented out would share
            # it. This also keeps every lint pragma off this path
            return
        existing = self._fast_index.get(shape)
        if existing is not None and existing is not entry:
            return
        entry.fast_shapes.add(shape)
        self._fast_index[shape] = entry

    # -- bookkeeping ------------------------------------------------------------

    def _insert(self, key: Tuple[str, Tuple], entry: CacheEntry) -> None:
        while len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            self._evict(oldest, "capacity")
        self._entries[key] = entry

    def _evict(self, key: Tuple[str, Tuple], reason: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for shape in entry.fast_shapes:
            if self._fast_index.get(shape) is entry:
                del self._fast_index[shape]
        entry.fast_shapes.clear()
        self.evictions += 1
        self.eviction_reasons[reason] = self.eviction_reasons.get(reason, 0) + 1

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats_dict(self) -> Dict[str, int]:
        """Flat counter map for Prometheus / the stats DMV."""
        out: Dict[str, int] = {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
        for reason, count in sorted(self.eviction_reasons.items()):
            out[f"evictions_{reason}"] = count
        return out

    def entry_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for ``sys_dm_exec_cached_plans``, coldest first."""
        return [
            (
                entry.key[0],
                entry.hits,
                entry.param_count,
                entry.created_at,
                entry.last_used_at,
            )
            for entry in self._entries.values()
        ]

    def stats_rows(self) -> List[Tuple[str, int]]:
        """Rows for ``sys_dm_exec_plan_cache_stats``."""
        return sorted(self.stats_dict().items())
