"""Plan cache + adaptive recompilation for hot parameterized traffic.

The paper's workloads are dominated by *parameterized repetition*: the
same handful of statement shapes — window scans over probe intervals,
per-gene lookups, MegaBLAST staging queries — executed thousands of
times with different literals.  SQL Server amortises that traffic
through its procedure cache: plans are keyed by normalized text,
parameter values are sniffed at compile time, and a feedback loop
(``colmodctr`` counters, auto ``UPDATE STATISTICS``, recompile
thresholds) keeps cached plans honest as data drifts.

This module is our reproduction of that loop:

- :func:`parameterize_select` rewrites a parsed ``SELECT`` into a
  *plan template*: every inline literal becomes a :class:`Parameter`
  slot reading a shared value store, so one compiled physical plan
  serves every literal combination of the same normalized text.
- :class:`PlanCache` keys templates by normalized SQL plus a cache
  *epoch* (schema version, statistics version, plan-affecting session
  knobs).  A hit skips parse→optimize→lower entirely: the cached
  operator tree is re-executed with fresh values poked into the store.
- *Parameter-sniffing guards* remember the selectivity each cached
  plan was costed under.  When a new parameter vector's estimated
  selectivity diverges past a threshold, the statement recompiles;
  when plan choice flip-flops across recompiles, the entry is marked
  plan-unstable and recompiles on every execution (SQL Server's
  ``OPTION (RECOMPILE)`` escape hatch, applied automatically).
- Invalidation is lazy and reasoned: DDL, ``UPDATE STATISTICS``,
  and knob changes bump epoch components; mismatched entries are
  evicted on next touch with the component named in the eviction
  reason, surfaced through ``sys_dm_exec_cached_plans``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .errors import BindError
from .expressions import (
    Expr,
    Literal,
    Parameter,
    contains_parameter,
    expression_to_sql,
    rewrite,
    column_refs,
    walk,
)
from .optimizer.logical import split_conjuncts
from .sql import ast
from .sql.lexer import mask_literals, split_literals

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
    paths, TOP and MAXDOP — which must join the cache key instead."""

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
    # the planner reads source_sql for lint suppressions / diagnostics
    template.source_sql = getattr(stmt, "source_sql", "") or ""
    return ParameterizedStatement(template, store, tuple(extras))


# ---------------------------------------------------------------------------
# cache entries
# ---------------------------------------------------------------------------


@dataclass
class GuardProbe:
    """One parameter-sensitive conjunct the cached plan was costed on.

    ``conjunct`` is the template's expression node — its Parameters
    read the live store, so re-costing it after a rebind estimates
    selectivity *for the new values* against current statistics."""

    table_name: str
    conjunct: Expr
    label: str
    compiled_selectivity: float


@dataclass
class CacheEntry:
    #: (normalised statement text, extras)
    key: Tuple[str, Tuple[Any, ...]]
    template: ast.SelectStmt
    store: List[Any]
    extras: Tuple[Any, ...]
    plan: Any
    epoch: Tuple[Any, ...]
    base_notes: List[str]
    guards: List[GuardProbe]
    signature: Tuple[Tuple[int, str], ...]
    param_count: int
    hits: int = 0
    recompiles: int = 0
    created_at: int = 0
    last_used_at: int = 0
    #: raw-text shapes registered for the parse-free hit path
    fast_shapes: Set[str] = field(default_factory=set)


@dataclass
class _KeyHistory:
    """Per-statement compile history backing flip-flop detection."""

    recompiles: int = 0
    signatures: Set[Tuple[Tuple[int, str], ...]] = field(default_factory=set)


class CacheOutcome:
    """What :meth:`PlanCache.fetch` decided for one execution.

    ``normalized`` is set by the raw-text hit path only: the normalised
    statement text its entry is stored under, so a statement that was
    never tokenised still has its Query Store key."""

    __slots__ = ("plan", "note", "normalized")

    def __init__(
        self, plan: Any, note: Optional[str], normalized: Optional[str] = None
    ):
        self.plan = plan
        self.note = note
        self.normalized = normalized


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


class PlanCache:
    """Normalized-SQL → compiled-plan cache with adaptive recompilation.

    Epoch components (checked lazily on every touch):

    0. catalog schema version — any DDL invalidates (reason
       ``schema``);
    1. database statistics epoch — ``UPDATE STATISTICS`` (manual or
       automatic) invalidates (reason ``statistics``);
    2–3. plan-affecting session knobs: ``MAX_DOP``, ``PLAN_VERIFY``
       (reason ``knobs``).

    Sniffing guards fire when a rebind's estimated selectivity
    diverges from the compiled estimate by more than
    ``guard_abs_threshold`` absolutely *and* ``guard_ratio_threshold``
    relatively; after ``unstable_after`` recompiles spanning at least
    two distinct plan shapes the statement is marked plan-unstable and
    recompiled per execution."""

    #: epoch component index → eviction reason
    _EPOCH_REASONS = ("schema", "statistics", "knobs", "knobs")

    def __init__(
        self,
        database: Any,
        capacity: int = 128,
        guard_abs_threshold: float = 0.05,
        guard_ratio_threshold: float = 10.0,
        unstable_after: int = 3,
    ):
        self.database = database
        self.enabled = True
        self.capacity = capacity
        self.guard_abs_threshold = guard_abs_threshold
        self.guard_ratio_threshold = guard_ratio_threshold
        self.unstable_after = unstable_after
        self._entries: "OrderedDict[Tuple[str, Tuple], CacheEntry]" = (
            OrderedDict()
        )
        self._history: Dict[Tuple[str, Tuple], _KeyHistory] = {}
        #: statements recompiled per execution: key → (reason, epoch)
        self._unstable: Dict[Tuple[str, Tuple], Tuple[str, Tuple]] = {}
        #: raw-text shape → entry, for the parse-free hit path
        self._fast_index: Dict[str, CacheEntry] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.recompiles = 0
        self.evictions = 0
        self.eviction_reasons: Dict[str, int] = {}
        self.recompile_reasons: Dict[str, int] = {}

    # -- epoch ------------------------------------------------------------------

    def current_epoch(self) -> Tuple[Any, ...]:
        db = self.database
        return (
            db.catalog.schema_version,
            db.stats_epoch,
            db.max_dop,
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

    def fetch_text(self, sql: str) -> Optional[CacheOutcome]:
        """Raw-text hit path: resolve a plan without parsing at all.

        One regex pass masks ``sql`` into its statement shape; shapes
        registered by :meth:`_register_fast` map straight to a cache
        entry whose slot order provably matches the text order of the
        literals, so rebinding is a positional extract-and-poke. Every
        doubt — unregistered shape, stale epoch, literal-count
        mismatch, tripped sniffing guard — returns None and defers to
        the parse path, which owns all miss/eviction/recompile
        bookkeeping. Only clean hits are counted here."""
        if not self.enabled or not self._fast_index:
            return None
        shape, values = split_literals(sql)
        entry = self._fast_index.get(shape)
        if entry is None:
            return None
        if self._entries.get(entry.key) is not entry:
            return None
        if entry.epoch != self.current_epoch():
            return None
        if values is None or len(values) != entry.param_count:
            return None
        saved = list(entry.store) if entry.guards else None
        entry.store[:] = values
        if saved is not None and self._tripped_guard(entry) is not None:
            entry.store[:] = saved
            return None
        self._clock += 1
        self.hits += 1
        entry.hits += 1
        entry.last_used_at = self._clock
        self._entries.move_to_end(entry.key)
        note = "plan cache hit"
        entry.plan.plan_notes = entry.base_notes + [note]
        return CacheOutcome(entry.plan, note, entry.key[0])

    def fetch(self, stmt: ast.SelectStmt) -> CacheOutcome:
        """Resolve a plan for one *execution* of ``stmt``.

        Returns the plan plus the note to surface ("plan cache
        hit|miss|recompile(<reason>)"); with the cache disabled the
        planner is invoked directly and the note is ``None``."""
        planner = self.database._planner
        if not self.enabled:
            return CacheOutcome(planner.plan_select(stmt), None)

        self._clock += 1
        parsed = parameterize_select(stmt)
        key = (stmt.normalized_sql, parsed.extras)
        epoch = self.current_epoch()

        unstable = self._unstable.get(key)
        if unstable is not None:
            reason, marked_epoch = unstable
            if marked_epoch == epoch:
                # per-execution recompile: plan the original statement
                # with inline literals so value-specific optimizations
                # (folding, pushdown pruning) fully apply
                self._count_recompile("unstable")
                plan = planner.plan_select(stmt)
                note = "plan cache recompile(unstable plan)"
                plan.plan_notes = list(plan.plan_notes or []) + [note]
                return CacheOutcome(plan, note)
            # the world changed since the statement was condemned —
            # give the shape a fresh chance
            del self._unstable[key]
            self._history.pop(key, None)

        invalidated: Optional[str] = None
        entry = self._entries.get(key)
        if entry is not None and entry.epoch != epoch:
            invalidated = self._epoch_reason(entry.epoch, epoch)
            self._evict(key, invalidated)
            entry = None

        if entry is not None:
            if not self._rebind(entry, parsed):
                # same normalized text resolved to a different slot
                # shape (only reachable via normalization fallbacks) —
                # drop the entry and recompile
                self._evict(key, "shape")
            else:
                tripped = self._tripped_guard(entry)
                if tripped is None:
                    self.hits += 1
                    entry.hits += 1
                    entry.last_used_at = self._clock
                    self._entries.move_to_end(key)
                    self._register_fast(entry, stmt)
                    note = "plan cache hit"
                    entry.plan.plan_notes = entry.base_notes + [note]
                    return CacheOutcome(entry.plan, note)
                reason = f"sniffing guard: {tripped}"
                self._count_recompile("sniffing")
                replacement = self._compile(key, parsed, epoch)
                replacement.recompiles = entry.recompiles + 1
                replacement.hits = entry.hits
                replacement.created_at = entry.created_at
                self._unindex_fast(entry)
                self._entries[key] = replacement
                self._entries.move_to_end(key)
                if self._note_flipflop(key, replacement.signature, epoch):
                    note = f"plan cache recompile({reason}; plan unstable)"
                else:
                    note = f"plan cache recompile({reason})"
                replacement.plan.plan_notes = replacement.base_notes + [note]
                return CacheOutcome(replacement.plan, note)

        # miss (cold, invalidated, or shape-evicted)
        self.misses += 1
        entry = self._compile(key, parsed, epoch)
        self._insert(key, entry)
        self._register_fast(entry, stmt)
        if invalidated is not None:
            note = f"plan cache miss (invalidated: {invalidated})"
        else:
            note = "plan cache miss"
        entry.plan.plan_notes = entry.base_notes + [note]
        return CacheOutcome(entry.plan, note)

    def peek(self, stmt: ast.SelectStmt) -> Optional[str]:
        """What would :meth:`fetch` do for ``stmt``? — for EXPLAIN.

        Bumps no counters, caches nothing, and leaves entry stores
        untouched, so plan inspection never perturbs cache state."""
        if not self.enabled:
            return None
        parsed = parameterize_select(stmt)
        key = (stmt.normalized_sql, parsed.extras)
        epoch = self.current_epoch()
        unstable = self._unstable.get(key)
        if unstable is not None and unstable[1] == epoch:
            return "plan cache recompile(unstable plan)"
        entry = self._entries.get(key)
        if entry is None:
            return "plan cache miss"
        if entry.epoch != epoch:
            reason = self._epoch_reason(entry.epoch, epoch)
            return f"plan cache miss (invalidated: {reason})"
        if len(parsed.store) != entry.param_count:
            return "plan cache miss"
        saved = list(entry.store)
        try:
            entry.store[:] = parsed.store
            tripped = self._tripped_guard(entry)
        finally:
            entry.store[:] = saved
        if tripped is not None:
            return f"plan cache recompile(sniffing guard: {tripped})"
        return "plan cache hit"

    def clear(self, reason: str = "explicit") -> int:
        """Drop every entry (and unstable markers); returns the count."""
        dropped = len(self._entries)
        for key in list(self._entries):
            self._evict(key, reason)
        self._unstable.clear()
        self._history.clear()
        self._fast_index.clear()
        return dropped

    # -- compilation ------------------------------------------------------------

    def _compile(
        self,
        key: Tuple[str, Tuple],
        parsed: ParameterizedStatement,
        epoch: Tuple[Any, ...],
    ) -> CacheEntry:
        planner = self.database._planner
        plan = planner.plan_select(parsed.template)
        base_notes = list(plan.plan_notes or [])
        signature = plan.facts.signature
        history = self._history.setdefault(key, _KeyHistory())
        history.signatures.add(signature)
        return CacheEntry(
            key=key,
            template=parsed.template,
            store=parsed.store,
            extras=parsed.extras,
            plan=plan,
            epoch=epoch,
            base_notes=base_notes,
            guards=self._collect_guards(parsed.template),
            signature=signature,
            param_count=len(parsed.store),
            created_at=self._clock,
            last_used_at=self._clock,
        )

    def _rebind(
        self, entry: CacheEntry, parsed: ParameterizedStatement
    ) -> bool:
        """Poke this execution's literal values into the cached store."""
        if len(parsed.store) != entry.param_count:
            return False
        entry.store[:] = parsed.store
        return True

    # -- sniffing guards --------------------------------------------------------

    def _collect_guards(self, template: ast.SelectStmt) -> List[GuardProbe]:
        """Find the parameter-sensitive WHERE conjuncts worth watching.

        A conjunct qualifies when it contains at least one Parameter
        and every column it references resolves to a single base table
        in the catalog — those are the predicates whose estimated
        selectivity can swing with the parameter vector."""
        if template.where is None:
            return []
        bindings = self._from_bindings(template)
        if not bindings:
            return []
        cost = self.database._planner.cost
        guards: List[GuardProbe] = []
        for conjunct in split_conjuncts(template.where):
            if not contains_parameter(conjunct):
                continue
            table = self._owning_table(conjunct, bindings)
            if table is None:
                continue
            selectivity = cost.conjunct_selectivity(conjunct, table)
            guards.append(
                GuardProbe(
                    table_name=table.schema.name,
                    conjunct=conjunct,
                    label=mask_literals(expression_to_sql(conjunct)),
                    compiled_selectivity=selectivity,
                )
            )
        return guards

    def _from_bindings(self, template: ast.SelectStmt) -> Dict[str, Any]:
        """binding name (lowered) → catalog table for plain FROM refs."""
        bindings: Dict[str, Any] = {}

        def add(source: Any) -> None:
            if not isinstance(source, ast.TableRef):
                return
            try:
                table = self.database.catalog.table(source.name)
            except BindError:
                return
            bindings[source.binding_name.lower()] = table

        add(template.source)
        for join in template.joins:
            add(join.source)
        return bindings

    def _owning_table(
        self, conjunct: Expr, bindings: Dict[str, Any]
    ) -> Optional[Any]:
        owners: Set[str] = set()
        for ref in column_refs(conjunct):
            if ref.qualifier:
                name = ref.qualifier.lower()
                if name not in bindings:
                    return None
                owners.add(name)
            else:
                candidates = [
                    binding
                    for binding, table in bindings.items()
                    if self._has_column(table, ref.name)
                ]
                if len(candidates) != 1:
                    return None
                owners.add(candidates[0])
        if len(owners) != 1:
            return None
        return bindings[owners.pop()]

    @staticmethod
    def _has_column(table: Any, name: str) -> bool:
        lowered = name.lower()
        return any(
            column.name.lower() == lowered for column in table.schema.columns
        )

    def _tripped_guard(self, entry: CacheEntry) -> Optional[str]:
        """Re-cost each guard for the current store values; return the
        label of the first guard whose estimate diverged, else None."""
        cost = self.database._planner.cost
        for probe in entry.guards:
            try:
                table = self.database.catalog.table(probe.table_name)
            except BindError:
                continue  # epoch check already handles DDL
            estimate = cost.conjunct_selectivity(probe.conjunct, table)
            low, high = sorted((probe.compiled_selectivity, estimate))
            if high - low < self.guard_abs_threshold:
                continue
            if high / max(low, 1e-9) < self.guard_ratio_threshold:
                continue
            return probe.label
        return None

    def _note_flipflop(
        self,
        key: Tuple[str, Tuple],
        signature: Tuple[Tuple[int, str], ...],
        epoch: Tuple[Any, ...],
    ) -> bool:
        """Track a recompile; condemn the statement if plan choice has
        flip-flopped. Returns True when the key just went unstable."""
        history = self._history.setdefault(key, _KeyHistory())
        history.recompiles += 1
        history.signatures.add(signature)
        if (
            history.recompiles >= self.unstable_after
            and len(history.signatures) >= 2
        ):
            self._evict(key, "unstable")
            self._unstable[key] = ("plan flip-flop", epoch)
            return True
        return False

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
            # two texts that differ in what is commented out would share it
            return
        existing = self._fast_index.get(shape)
        if existing is not None and existing is not entry:
            return
        entry.fast_shapes.add(shape)
        self._fast_index[shape] = entry

    def _unindex_fast(self, entry: CacheEntry) -> None:
        for shape in entry.fast_shapes:
            if self._fast_index.get(shape) is entry:
                del self._fast_index[shape]
        entry.fast_shapes.clear()

    # -- bookkeeping ------------------------------------------------------------

    def _insert(self, key: Tuple[str, Tuple], entry: CacheEntry) -> None:
        while len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            self._evict(oldest, "capacity")
        self._entries[key] = entry

    def _evict(self, key: Tuple[str, Tuple], reason: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._unindex_fast(entry)
            self.evictions += 1
            self.eviction_reasons[reason] = (
                self.eviction_reasons.get(reason, 0) + 1
            )
        if reason == "capacity":
            # a statement cold enough to leave the LRU takes its compile
            # history along; kept, never-seen texts grow it without bound
            self._history.pop(key, None)

    def _count_recompile(self, reason: str) -> None:
        self.recompiles += 1
        self.recompile_reasons[reason] = (
            self.recompile_reasons.get(reason, 0) + 1
        )

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats_dict(self) -> Dict[str, int]:
        """Flat counter map for Prometheus / the stats DMV."""
        out: Dict[str, int] = {
            "entries": len(self._entries),
            "unstable": len(self._unstable),
            "hits": self.hits,
            "misses": self.misses,
            "recompiles": self.recompiles,
            "evictions": self.evictions,
        }
        for reason, count in sorted(self.eviction_reasons.items()):
            out[f"evictions_{reason}"] = count
        for reason, count in sorted(self.recompile_reasons.items()):
            out[f"recompiles_{reason}"] = count
        return out

    def entry_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for ``sys_dm_exec_cached_plans``: cached entries first
        (LRU order, coldest first), then plan-unstable statements."""
        rows: List[Tuple[Any, ...]] = []
        for entry in self._entries.values():
            rows.append(
                (
                    entry.key[0],
                    "cached",
                    entry.hits,
                    entry.recompiles,
                    entry.param_count,
                    len(entry.guards),
                    entry.created_at,
                    entry.last_used_at,
                )
            )
        for (normalized, _extras), (reason, _epoch) in self._unstable.items():
            history = self._history.get((normalized, _extras))
            rows.append(
                (
                    normalized,
                    f"unstable ({reason})",
                    0,
                    history.recompiles if history else 0,
                    0,
                    0,
                    0,
                    0,
                )
            )
        return rows

    def stats_rows(self) -> List[Tuple[str, int]]:
        """Rows for ``sys_dm_exec_plan_cache_stats``."""
        return sorted(self.stats_dict().items())
