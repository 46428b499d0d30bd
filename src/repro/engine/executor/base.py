"""Physical operator base class (Volcano / iterator model).

Every operator exposes:

- ``columns`` — output column names, optionally qualified (``alias.name``)
  so the binder can resolve references against the operator's output;
- ``execute()`` — the one execution method: it yields non-empty
  :class:`RowBatch` objects, pulling its children's through
  :meth:`PhysicalOperator.iter_batches` (streaming, non-blocking unless
  noted). Operators whose algorithm is a row loop (sorts, merge join,
  stream aggregate, TVFs) run it over the flattened input and chunk what
  it produces; ``__iter__`` is that same flattened view for callers
  outside a plan;
- ``explain_node()`` — a one-line label plus children, rendered by the
  planner into the text query plans that stand in for the paper's
  Figures 9 and 10;
- ``estimate(cost, child_rows)`` — the node's own cardinality and cost
  estimate, priced with a :class:`~repro.engine.optimizer.cost.CostModel`
  from what the node holds (its conjuncts, join pairs or group keys)
  and its inputs' estimates; ``CostModel.annotate`` walks a plan calling
  it once per node, and nothing else sets ``est_rows``;
- ``stored_column(ref)`` — the stored table column a reference reads,
  answered by the table leaves and passed down by every operator whose
  columns are its inputs' columns, unchanged (``column_inputs``).

Operators also count the rows they emit (``rows_out``) so EXPLAIN output
and the benchmarks can report actual cardinalities, e.g. the size of the
pivot plan's intermediate result in Section 5.3.3.  A re-executed
operator (the inner side of a nested-loops join or apply) additionally
tracks ``loops``, and — when EXPLAIN ANALYZE
arms timing via :meth:`PhysicalOperator.enable_timing` — the inclusive
wall-clock time spent producing its rows, Postgres-style (the clock is
read once per batch, not once per row).  Timing is off by default so
plain execution stays on the untimed fast path.
"""

from __future__ import annotations

import time
from functools import cached_property, reduce
from itertools import chain
from operator import add
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..expressions import Scope
from ..querystore import plan_signature
from .vector import RowBatch, batches_from_rows


class PhysicalOperator:
    """Base class for all physical operators."""

    #: output column names; qualified ("a.x") or bare
    columns: List[str]
    #: does iteration deliver rows ordered by these output column indexes?
    ordering: Tuple[int, ...] = ()
    #: output column indexes an equality seek pins to one value: ordered
    #: whatever the order. An operator keeping its first input's order
    #: and column positions keeps them too.
    bound_columns: frozenset = frozenset()
    #: operators that must consume their entire input before producing
    #: the first output row (sorts, hash builds) mark themselves blocking
    blocking: bool = False
    #: cardinality / cost estimates ``CostModel.annotate`` fills in
    #: from ``estimate``; None until it has visited the node
    est_rows = None
    est_cost = None
    #: verifier/optimizer annotations the planner attaches to the plan
    #: root; EXPLAIN renders each as a trailing ``note:`` line
    plan_notes: Sequence[str] = ()

    def __init__(self):
        self.rows_out = 0
        #: completed + in-flight executions of this operator
        self.loops = 0
        #: inclusive wall-clock seconds (self + children), all loops
        self.elapsed = 0.0
        self._timing = False
        #: first-pull / exhaustion perf_counter readings, recorded only
        #: when timing is armed; :func:`repro.engine.tracing.
        #: record_operator_spans` grafts these into the statement trace
        #: structurally after execution (generators interleave, so live
        #: span stacks would mis-nest)
        self._span_start: Optional[float] = None
        self._span_end: Optional[float] = None
        #: batches emitted
        self.batches_out = 0

    def enable_timing(self) -> None:
        """Arm per-operator wall-clock timing on this subtree.

        Kept opt-in (EXPLAIN ANALYZE) so the per-batch clock reads never
        tax ordinary execution."""
        self._timing = True
        for child in self.children():
            child.enable_timing()

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        """The row view, for callers outside a plan and for operators
        whose algorithm consumes one row at a time."""
        return chain.from_iterable(self.iter_batches())

    def execute(self) -> Iterator[RowBatch]:
        """Yield this operator's output as non-empty batches."""
        raise NotImplementedError

    def iter_batches(self) -> Iterator[RowBatch]:
        """The accounted execution entry point: what a parent operator
        (and :func:`collect_rows` at the root) pulls from."""
        return self._accounted(self.execute(), len)

    def _accounted(
        self, iterator: Iterator[Any], size_of: Callable[[Any], int]
    ) -> Iterator[Any]:
        """Pass ``iterator``'s items through, keeping this operator's
        books: one loop, ``size_of(item)`` rows and one batch per item —
        flushed even when the consumer stops mid-stream (Top, a dead
        worker) — and, when EXPLAIN ANALYZE armed timing, the inclusive
        wall clock (read once per item) and the span's two ends."""
        self.loops += 1
        emitted = 0
        batches = 0
        try:
            if not self._timing:
                for item in iterator:
                    emitted += size_of(item)
                    batches += 1
                    yield item
            else:
                clock = time.perf_counter
                if self._span_start is None:
                    self._span_start = clock()
                while True:
                    t0 = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        self.elapsed += clock() - t0
                        break
                    self.elapsed += clock() - t0
                    emitted += size_of(item)
                    batches += 1
                    yield item
        finally:
            self.rows_out += emitted
            self.batches_out += batches
            if self._timing:
                self._span_end = time.perf_counter()

    # -- explain -----------------------------------------------------------------

    def explain_node(self) -> Tuple[str, Sequence["PhysicalOperator"]]:
        """``(label, children)`` for plan rendering."""
        return type(self).__name__, self.children()

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def estimate(self, cost, child_rows: Sequence[int]) -> Tuple[int, float]:
        """``(rows, self_cost)``: the rows this node outputs, given its
        children's (``child_rows``, in ``children()`` order), and what
        producing them costs on top of the children. By default a node
        passes its widest input through for free."""
        rows = max(child_rows) if child_rows else cost.default_tvf_rows
        return rows, 0.0

    #: ``scope`` once built
    _scope: Optional[Scope] = None

    @property
    def scope(self) -> Scope:
        """Name resolution over ``columns``, built on first use (an
        operator sets ``columns`` once, in ``__init__``). A plain lazy
        attribute, not a ``cached_property``: Python 3.11's takes a lock
        on every first use, and planning builds several per node."""
        if self._scope is None:
            self._scope = self._build_scope()
        return self._scope

    def _build_scope(self) -> Scope:
        """An operator passing its inputs' columns on builds its scope
        from theirs (one input's it shares)."""
        inputs = self.column_inputs()
        if not inputs:
            return Scope(self.columns)
        return reduce(add, [kid.scope for kid in inputs])

    def column_inputs(self) -> Sequence["PhysicalOperator"]:
        """The inputs whose columns, end to end, are this operator's
        unchanged; () when it computes any of its columns."""
        kids = self.children()
        if kids and self.columns == [c for kid in kids for c in kid.columns]:
            return kids
        return ()

    def stored_column(self, ref) -> Optional[Tuple[Any, Any]]:
        """``(table, schema column)`` of the stored column ``ref`` reads
        under this operator; None when ``ref`` names no output column,
        or one an operator computes."""
        position = self.scope.find(ref)
        return None if position is None else self._stored_at(position)

    def _stored_at(self, position: int) -> Optional[Tuple[Any, Any]]:
        for kid in self.column_inputs():
            if position < len(kid.columns):
                return kid._stored_at(position)
            position -= len(kid.columns)
        return None

    @cached_property
    def facts(self) -> "PlanFacts":
        """What the engine derives from the plan rooted here, once."""
        return PlanFacts(self)

    def analyze_detail(self) -> Optional[str]:
        """Extra per-operator EXPLAIN ANALYZE annotation, or None.

        Exchange operators override this to report per-worker timing
        without the base renderer knowing about workers."""
        return None

    def explain(self, indent: int = 0, analyze: bool = False) -> str:
        """Render this subtree as an indented text plan.

        With ``analyze=True`` (EXPLAIN ANALYZE, after execution) each
        node also reports the actual row count, inclusive wall-clock
        time, and number of executions (loops) it observed."""
        label, kids = self.explain_node()
        prefix = "  " * indent
        label_lines = label.split("\n")
        first = label_lines[0]
        details: List[str] = []
        if self.est_rows is not None:
            details.append(f"est. rows={self.est_rows}")
        if analyze:
            details.append(f"actual rows={self.rows_out}")
            details.append(f"batches={self.batches_out}")
            if self._timing:
                details.append(f"time={self.elapsed * 1000.0:.3f}ms")
            details.append(f"loops={self.loops}")
            extra = self.analyze_detail()
            if extra:
                details.append(extra)
        if self.est_rows is not None and self.est_cost is not None:
            details.append(f"cost={self.est_cost:.1f}")
        if details:
            first += f"  ({', '.join(details)})"
        lines = [prefix + "-> " + first]
        for continuation in label_lines[1:]:
            lines.append(prefix + "   " + continuation.strip())
        for kid in kids:
            lines.append(kid.explain(indent + 1, analyze=analyze))
        if indent == 0:
            for note in self.plan_notes:
                lines.append(f"note: {note}")
        return "\n".join(lines)

    # -- helpers ------------------------------------------------------------------

    @property
    def node_label(self) -> str:
        """Short operator name: the first line of the explain label with
        the per-node detail tail stripped (what diagnostics and traces
        name this node by). Distinct from the ``label`` attribute some
        operators carry for their predicate/projection description."""
        try:
            text, _children = self.explain_node()
        except Exception:  # noqa: BLE001 - labels must never raise
            return type(self).__name__
        text = text.splitlines()[0] if text else ""
        return text.split("  (")[0].strip() or type(self).__name__

    def nodes(self) -> Iterator["PhysicalOperator"]:
        """Every node of this subtree, root first, depth first."""
        yield self
        for child in self.children():
            yield from child.nodes()

    def walk(self, path: str = "") -> Iterator[Tuple[str, "PhysicalOperator"]]:
        """:meth:`nodes`, each paired with its ``/``-joined path of
        :attr:`node_label` values. Only the benchmark's layer probes
        (``benchmarks/perf/layers.py``) still take the pairs; each path
        renders every node's EXPLAIN line on the way."""
        here = f"{path}/{self.node_label}" if path else self.node_label
        yield here, self
        for child in self.children():
            yield from child.walk(here)


class PlanFacts:
    """What ``Database.execute`` reads off a finished plan besides its
    rows, computed on first use and kept on the root: a cached plan pays
    for it once, an ad-hoc plan as often as it used to."""

    def __init__(self, root: PhysicalOperator):
        operators = list(root.nodes())
        #: every operator below the root (nothing here refers to the
        #: root: a cycle would leave evicted plans to the full GC)
        self.descendants = tuple(operators[1:])
        #: the plan's identity in the Query Store and the plan cache
        self.signature = plan_signature(root)
        #: highest exchange-operator DOP (1 = serial)
        exchanges = [op.dop for op in operators if getattr(op, "stats", None)]
        self.dop = max(exchanges, default=1)
        self.output_names = [c.rsplit(".", 1)[-1] for c in root.columns]

    def begin_execution(self, root: PhysicalOperator) -> None:
        """Zero the runtime counters: they describe one execution, and a
        plan run any number of times holds O(plan) of them."""
        for op in (root, *self.descendants):
            op.rows_out = op.loops = op.batches_out = 0


class MaterializedResult(PhysicalOperator):
    """A fully materialised rowset (used for VALUES lists, cached results,
    and as the output wrapper the database hands back to callers)."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Tuple[Any, ...]]):
        super().__init__()
        self.columns = list(columns)
        self._rows = list(rows)

    def execute(self):
        return batches_from_rows(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        return self._rows

    def estimate(self, cost, child_rows):
        return len(self), 0.0

    def explain_node(self):
        return f"Constant Scan ({len(self._rows)} rows)", ()
