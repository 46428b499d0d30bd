"""The cost model: cardinality estimation + operator pricing.

Every physical alternative the planner weighs is priced in abstract
"row units" from the same table statistics ``UPDATE STATISTICS``
collects (:mod:`.statistics`):

- **access paths** — a heap scan pays one unit per stored row plus a
  predicate-evaluation surcharge; a clustered seek pays a B-tree
  descend plus one (slightly cheaper, sequential-leaf) unit per
  qualifying row; a secondary-index seek additionally pays a bookmark
  lookup per row, which is what prices it out once the predicate stops
  being selective;
- **joins** — merge pays per input row, hash pays a fixed startup and
  a build surcharge on the inner side; with both inputs pre-ordered
  merge prices cheaper, matching SQL Server's preference for pre-sorted inputs; a
  key-lookup join pays one B-tree lookup per outer row and saves the
  inner scan and the hash build, so it wins only for a few outer rows;
- **aggregation** — the serial hash aggregate pays per input row; the
  encoded aggregate over a column scan pays less, since it never
  materialises row tuples. The parallel exchange is never chosen by
  price: it runs where an ``OPTION (MAXDOP n)`` hint with n > 1 asks
  for it, because on the repo benchmark's Query 1 it runs only on a par
  with the serial plan (``benchmarks/results/pr21_compare.txt``). Its
  price — a fixed startup cost (describe the plan fragment, wake the
  workers, gather and merge what they return) plus the workers' *share*
  of the serial per-row cost — is what EXPLAIN shows for a hinted plan.

Every reader of a WHERE conjunct takes it in one form, a :class:`Sarg`
that :func:`sarg` decodes: the selectivity estimate and the
clustered-key rule here, the conversion check :func:`range_mismatch`,
the planner's seeks and column-store pushdown, and LINT-TYPE. Each keeps
its own acceptance rule as a filter on that form.

Estimates are advisory: a missing statistic degrades to the default
selectivities in :mod:`.statistics`, never to an error.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Iterable, List, NamedTuple, NoReturn, Optional, Sequence,
    Tuple,
)

from ..errors import TypeMismatchError
from ..expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
)
from ..schema import Column
from ..types import value_order_family
from .statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    TableStats,
)

#: a comparison's operator with its operands swapped
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Sarg(NamedTuple):
    """A conjunct read as ``operand op bounds``: the one form in which
    the estimator, the seeks, the column-store pushdown, the conversion
    check and LINT-TYPE take a column against constants. ``op`` is one
    of ``= <> < <= > >= between in isnull notnull``; a comparison with
    a literal on the left is read flipped (``5 > k`` as ``k < 5``) and
    ``!=`` as ``<>``. Each reader filters this form by its own rule."""

    operand: Expr
    op: str
    bounds: Tuple[Expr, ...]

    def column(self) -> Optional[ColumnRef]:
        """The operand when it is a column and every bound a literal
        (or parameter slot), else None."""
        if isinstance(self.operand, ColumnRef) and all(
            isinstance(bound, Literal) for bound in self.bounds
        ):
            return self.operand
        return None

    def ends(self) -> List[Tuple[Optional[bool], Expr, bool]]:
        """The seek and range ends ``(is_lower, bound, inclusive)``,
        ``is_lower`` None for ``=``: one for a comparison, two for
        ``BETWEEN``, none for ``<>``, ``IN`` and the null tests."""
        op, bounds = self.op, self.bounds
        if op == "between":
            return [(True, bounds[0], True), (False, bounds[1], True)]
        if op == "=":
            return [(None, bounds[0], True)]
        if op in ("<", "<=", ">", ">="):
            return [(op[0] == ">", bounds[0], op.endswith("="))]
        return []


def sarg(conjunct: Expr) -> Optional[Sarg]:
    """``conjunct`` as a :class:`Sarg`, None for any other shape."""
    if isinstance(conjunct, BinaryOp):
        op = conjunct.op
        if op not in _FLIPPED:
            return None
        if isinstance(conjunct.left, Literal):
            return Sarg(conjunct.right, _FLIPPED[op], (conjunct.left,))
        return Sarg(conjunct.left, op, (conjunct.right,))
    if isinstance(conjunct, Between):
        return Sarg(conjunct.operand, "between", (conjunct.low, conjunct.high))
    if isinstance(conjunct, InList):
        return Sarg(conjunct.operand, "in", conjunct.items)
    if isinstance(conjunct, IsNull):
        op = "notnull" if conjunct.negated else "isnull"
        return Sarg(conjunct.operand, op, ())
    return None


def range_mismatch(
    conjuncts: Sequence[Expr],
    stored_column: Callable[[ColumnRef], Optional[Tuple[Any, Column]]],
) -> Optional[Callable[[Any], NoReturn]]:
    """A predicate raising T-SQL's conversion error when a range end
    bounds a column by a literal of another ``SqlType.order_family``
    (the comparison would raise a bare TypeError on the first row),
    else None. ``stored_column`` gives the ``(table, column)`` a
    reference reads, or None. Equality across families stays a
    comparison that finds nothing. A SELECT's Filter and an UPDATE's or
    DELETE's WHERE raise through this one rule."""
    for conjunct in conjuncts:
        decoded = sarg(conjunct)
        ref = decoded.operand if decoded is not None else None
        if not isinstance(ref, ColumnRef):
            continue
        bounds = [
            bound for is_lower, bound, _inclusive in decoded.ends()
            if is_lower is not None and isinstance(bound, Literal)
            and value_order_family(bound.value) is not None
        ]
        if not bounds:
            continue
        _table, column = stored_column(ref) or (None, None)
        family = column.sql_type.order_family if column else None
        for bound in bounds:
            if family is None or value_order_family(bound.value) == family:
                continue

            def conversion_error(_rows, bound=bound):
                # a cached plan's slot holds this execution's value
                raise TypeMismatchError(
                    f"Conversion failed when comparing column "
                    f"{ref.name!r} ({column.sql_type}) with the value "
                    f"{bound.value!r}"
                )

            return conversion_error
    return None


class CostModel:
    """Prices plans from table statistics. All constants are per-row
    unit costs of the class, the same for every plan."""

    # access paths
    scan_row_cost = 1.0          # heap scan, per stored row
    ordered_scan_row_cost = 1.1  # clustered scan (B-tree leaf chain)
    seek_descend_cost = 0.3      # one B-tree root-to-leaf descend
    seek_row_cost = 0.9          # per row delivered from the leaf range
    bookmark_lookup_cost = 2.0   # secondary index: heap fetch per row
    # per-row operator charges
    filter_row_cost = 0.4        # predicate evaluation per input row
    project_row_cost = 0.05
    sort_row_factor = 0.2        # times n*log2(n)
    # joins
    hash_build_row_cost = 1.5
    hash_probe_row_cost = 1.0
    merge_row_cost = 0.5
    output_row_cost = 0.1
    # the key-lookup join, measured on a 2-CPU host with the lookup_hot
    # tables at scale 1 (seven runs, benchmarks/results/keylookup_record.txt):
    # over 1 024 distinct outer keys into the 10 000-row probe table it
    # took 3.8-5.9 us per key, a median 13.8 row units at what a unit was
    # worth in the same run (0.29-0.47 us: that table's heap scan plus
    # hash build, per row / 2.5). A lookup per outer row beats a build
    # over the inner table only while the outer side is under about a
    # fifth of it ...
    key_lookup_cost = 14.0
    # ... and a hash join costs more than its per-row terms however small
    # its build: with one probe row over the 3-row org table, the hash
    # join and its scan ran a median 2.7 us (7.4 units) longer than the
    # key-lookup join, where those terms predict 5.5 units less
    hash_build_startup_cost = 13.0
    # aggregation
    agg_row_cost = 1.2
    stream_agg_row_cost = 1.0
    # the hinted exchange, measured on the repo benchmark's Query 1 at
    # scale 1 and 10 (benchmarks/results/pr21_compare.txt) with 4
    # workers on a 2-CPU host. Per input row a run on workers costs this
    # share of the serial plan (the slope between the two scales; 1/dop
    # would be perfect scaling; two workers measured 0.57-0.68) ...
    exchange_row_share = 0.8
    # ... plus what does not grow with the input: the exchange's wall
    # minus its slowest worker's task, 4.7 ms, at the 0.43 us a row
    # unit was worth there. What comes back (1-3 bytes of partial
    # aggregate per input row) is inside the slope: there is no per-row
    # transport left to price.
    exchange_startup_cost = 11_000.0
    # table functions
    tvf_row_cost = 1.0
    default_tvf_rows = 1000
    apply_fanout = 8
    # columnstore access: rows decode in bulk from (cached) segment
    # vectors, so the per-row charge undercuts the heap's
    column_scan_row_cost = 0.6
    # testing one pushed conjunct per row of a segment the zone maps
    # keep, on its decoded vector
    pushed_predicate_row_cost = 0.05
    # segment-at-a-time aggregation never materialises row tuples
    encoded_agg_row_cost = 0.6

    # -- selectivity ---------------------------------------------------------

    def conjunct_selectivity(self, conjunct: Expr, table=None) -> float:
        """Estimated fraction of rows satisfying one conjunct over
        ``table``: from the statistics of the column its :func:`sarg`
        compares with constants, else a default for its shape."""
        decoded = sarg(conjunct)
        if decoded is None:
            if isinstance(conjunct, Like):
                return DEFAULT_LIKE_SELECTIVITY
            if isinstance(conjunct, BinaryOp) and conjunct.op.upper() == "OR":
                left = self.conjunct_selectivity(conjunct.left, table)
                right = self.conjunct_selectivity(conjunct.right, table)
                return min(left + right - left * right, 1.0)
            return DEFAULT_SELECTIVITY
        op, bounds, ref = decoded.op, decoded.bounds, decoded.column()
        stats: Optional[TableStats] = getattr(table, "statistics", None)
        known = ref is not None and stats is not None
        col = stats.column(ref.name) if known else None
        values = [bound.value for bound in bounds] if ref is not None else []
        if op in ("isnull", "notnull"):
            if col is not None and col.n_rows:
                null_fraction = col.n_nulls / col.n_rows
                return 1.0 - null_fraction if op == "notnull" else null_fraction
            return 0.9 if op == "notnull" else 0.1
        if op == "in":
            if col is not None:
                return min(sum(map(col.eq_selectivity, values)), 1.0)
            return min(len(bounds) * DEFAULT_EQ_SELECTIVITY, 1.0)
        if op == "between":
            if col is not None:
                return col.range_selectivity(lo=values[0], hi=values[1])
            return DEFAULT_RANGE_SELECTIVITY
        if ref is None:
            return DEFAULT_SELECTIVITY
        if op in ("=", "<>"):
            eq = (
                col.eq_selectivity(values[0])
                if col is not None
                else DEFAULT_EQ_SELECTIVITY
            )
            return eq if op == "=" else max(1.0 - eq, 0.0)
        if col is None:
            return DEFAULT_RANGE_SELECTIVITY
        if op[0] == "<":
            return col.range_selectivity(hi=values[0], hi_inclusive=op == "<=")
        return col.range_selectivity(lo=values[0], lo_inclusive=op == ">=")

    # -- cardinality ---------------------------------------------------------

    def scan_output(self, table, conjuncts: Sequence[Expr]) -> int:
        """Rows a scan of ``table`` delivers after ``conjuncts``.

        Equality on every column of the clustered key pins the estimate
        at exactly one row (key uniqueness beats any histogram)."""
        rows = table.row_count
        if not conjuncts:
            return rows
        schema = table.schema
        if not schema.heap and schema.primary_key:
            equal = [s.column() for s in map(sarg, conjuncts) if s and s.op == "="]
            bound = {ref.name.lower() for ref in equal if ref is not None}
            if all(c.lower() in bound for c in schema.primary_key):
                return 1
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.conjunct_selectivity(conjunct, table)
        return max(int(round(rows * selectivity)), 1)

    def seek_rows(self, table, bound: Iterable[Tuple[str, Any]]) -> int:
        """Rows a secondary-index equality seek on ``bound`` (column,
        value) pairs delivers, from column statistics."""
        stats: Optional[TableStats] = getattr(table, "statistics", None)
        selectivity = 1.0
        for name, value in bound:
            col = stats.column(name) if stats is not None else None
            if col is not None:
                selectivity *= col.eq_selectivity(value)
            else:
                selectivity *= DEFAULT_EQ_SELECTIVITY
        return max(int(round(table.row_count * selectivity)), 1)

    def filter_output(
        self, input_rows: int, conjuncts: Sequence[Expr], table=None
    ) -> int:
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.conjunct_selectivity(conjunct, table)
        return max(int(round(input_rows * selectivity)), 1)

    @staticmethod
    def n_distinct(op, expr: Expr) -> Optional[int]:
        """Distinct count of the stored column ``expr`` reads under the
        operator ``op``, when its table has statistics."""
        source = op.stored_column(expr) if isinstance(expr, ColumnRef) else None
        stats = source[0].statistics if source else None
        return stats.n_distinct(source[1].name) if stats is not None else None

    def join_rows(self, left, right, pairs: Sequence[Tuple[Expr, Expr]]) -> int:
        """Equi-join output estimate over the operators ``left`` and
        ``right``, annotated here: |L| * |R| / max(ndv) per key pair
        whose distinct count either side knows, else the
        containment-free fallback max(|L|, |R|)."""
        left_rows = self.annotate(left).est_rows or 1
        right_rows = self.annotate(right).est_rows or 1
        known = []
        for left_ref, right_ref in pairs:
            sides = [
                self.n_distinct(left, left_ref),
                self.n_distinct(right, right_ref),
            ]
            if any(sides):
                known.append(max(n for n in sides if n))
        if not known:
            return max(left_rows, right_rows)
        estimate = float(left_rows) * float(right_rows)
        for ndv in known:
            estimate /= max(ndv, 1)
        return max(int(round(estimate)), 1)

    def group_rows(self, op, group_exprs: Sequence[Expr]) -> int:
        """Aggregate output estimate over the operator ``op``, annotated
        here: the product of group-key distinct counts, capped by the
        input (unknown keys guess 10 values)."""
        input_rows = self.annotate(op).est_rows or 1
        if not group_exprs:
            return 1  # scalar aggregate
        groups = 1.0
        for expr in group_exprs:
            groups *= self.n_distinct(op, expr) or 10
        return max(min(int(round(groups)), input_rows), 1)

    # -- decisions -----------------------------------------------------------

    def seek_cost(self, rows: int, secondary: bool = False) -> float:
        per_row = self.seek_row_cost + (
            self.bookmark_lookup_cost if secondary else 0.0
        )
        return self.seek_descend_cost + rows * per_row

    def exchange_agg_cost(self, input_rows: float, dop: int) -> float:
        """The aggregation on workers: startup, and the workers' share
        of the serial per-row cost."""
        share = max(self.exchange_row_share, 1.0 / max(dop, 1))
        return (
            self.exchange_startup_cost
            + input_rows * self.agg_row_cost * share
        )

    # -- plan annotation -----------------------------------------------------

    def annotate(self, op):
        """Fill ``est_rows`` / ``est_cost`` on every node of a physical
        plan, bottom-up: each node prices itself (``estimate``), the one
        writer of both. A subtree whose root already carries
        ``est_cost`` is estimated already and is not visited again."""
        if op.est_cost is None:
            child_rows = []
            child_cost = 0.0
            for kid in op.children():
                self.annotate(kid)
                child_rows.append(kid.est_rows)
                child_cost += kid.est_cost
            op.est_rows, self_cost = op.estimate(self, child_rows)
            op.est_cost = self_cost + child_cost
        return op
