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

Estimates are advisory: a missing statistic degrades to the default
selectivities in :mod:`.statistics`, never to an error.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

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
from .statistics import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_LIKE_SELECTIVITY,
    DEFAULT_RANGE_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    TableStats,
)

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _column_comparison(
    conjunct: Expr,
) -> Optional[Tuple[ColumnRef, str, Any]]:
    """``(column, op, literal value)`` for column-vs-constant comparisons
    (normalised so the column is on the left), else None."""
    if not isinstance(conjunct, BinaryOp):
        return None
    op = conjunct.op
    if op not in ("=", "<", "<=", ">", ">=", "<>", "!="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = _FLIPPED.get(op, op)
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left, op, right.value
    return None


def equality_column_names(conjuncts: Sequence[Expr]) -> List[str]:
    """Lower-cased bare column names with an equality-vs-constant
    conjunct — the raw material of the full-clustered-key rule."""
    names = []
    for conjunct in conjuncts:
        comparison = _column_comparison(conjunct)
        if comparison is not None and comparison[1] == "=":
            names.append(comparison[0].name.lower())
    return names


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
        ``table``: from its column statistics where they reach the
        predicate shape, else a default magic number."""
        stats: Optional[TableStats] = (
            getattr(table, "statistics", None) if table is not None else None
        )

        def column_stats(ref: ColumnRef):
            return stats.column(ref.name) if stats is not None else None

        comparison = _column_comparison(conjunct)
        if comparison is not None:
            ref, op, value = comparison
            col = column_stats(ref)
            if op == "=":
                if col is not None:
                    return col.eq_selectivity(value)
                return DEFAULT_EQ_SELECTIVITY
            if op in ("<>", "!="):
                eq = (
                    col.eq_selectivity(value)
                    if col is not None
                    else DEFAULT_EQ_SELECTIVITY
                )
                return max(1.0 - eq, 0.0)
            if col is not None:
                if op in ("<", "<="):
                    return col.range_selectivity(
                        hi=value, hi_inclusive=(op == "<=")
                    )
                return col.range_selectivity(
                    lo=value, lo_inclusive=(op == ">=")
                )
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, Between):
            if isinstance(conjunct.operand, ColumnRef) and isinstance(
                conjunct.low, Literal
            ) and isinstance(conjunct.high, Literal):
                col = column_stats(conjunct.operand)
                if col is not None:
                    return col.range_selectivity(
                        lo=conjunct.low.value, hi=conjunct.high.value
                    )
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(conjunct, InList):
            if isinstance(conjunct.operand, ColumnRef) and all(
                isinstance(item, Literal) for item in conjunct.items
            ):
                col = column_stats(conjunct.operand)
                if col is not None:
                    total = sum(
                        col.eq_selectivity(item.value)
                        for item in conjunct.items
                    )
                    return min(total, 1.0)
            return min(
                len(conjunct.items) * DEFAULT_EQ_SELECTIVITY, 1.0
            )
        if isinstance(conjunct, Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(conjunct, IsNull):
            if isinstance(conjunct.operand, ColumnRef):
                col = column_stats(conjunct.operand)
                if col is not None and col.n_rows:
                    null_fraction = col.n_nulls / col.n_rows
                    return (
                        1.0 - null_fraction
                        if conjunct.negated
                        else null_fraction
                    )
            return 0.9 if conjunct.negated else 0.1
        if isinstance(conjunct, BinaryOp) and conjunct.op.upper() == "OR":
            left = self.conjunct_selectivity(conjunct.left, table)
            right = self.conjunct_selectivity(conjunct.right, table)
            return min(left + right - left * right, 1.0)
        return DEFAULT_SELECTIVITY

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
            bound = set(equality_column_names(conjuncts))
            if all(c.lower() in bound for c in schema.primary_key):
                return 1
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.conjunct_selectivity(conjunct, table)
        return max(int(round(rows * selectivity)), 1)

    @staticmethod
    def clustered_seek_rows(table, prefix: Sequence[Any]) -> int:
        """Rows a clustered seek on the equality-bound key ``prefix``
        delivers: a full key is exactly one row, a shorter prefix is
        counted in the B+tree (its conjuncts are one predicate, not
        independent factors)."""
        if len(prefix) == len(table.schema.primary_key):
            return 1
        return max(table.key_count(tuple(prefix)), 1)

    def seek_rows(self, table, bound: Sequence[Tuple[str, Any]]) -> int:
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

    def join_rows(
        self,
        left_rows: int,
        right_rows: int,
        key_ndvs: Sequence[Optional[int]],
    ) -> int:
        """Equi-join output estimate: |L| * |R| / max(ndv) per key pair
        when distinct counts are known, else the containment-free
        fallback max(|L|, |R|)."""
        known = [ndv for ndv in key_ndvs if ndv]
        if not known:
            return max(left_rows, right_rows)
        estimate = float(left_rows) * float(right_rows)
        for ndv in known:
            estimate /= max(ndv, 1)
        return max(int(round(estimate)), 1)

    def group_rows(
        self, input_rows: int, key_ndvs: Sequence[Optional[int]]
    ) -> int:
        """Aggregate output estimate: the product of group-key distinct
        counts, capped by the input (unknown keys guess 10 values)."""
        if input_rows <= 0:
            return 1
        if not key_ndvs:
            return 1  # scalar aggregate
        groups = 1.0
        for ndv in key_ndvs:
            groups *= ndv if ndv else 10
        return max(min(int(round(groups)), input_rows), 1)

    # -- decisions -----------------------------------------------------------

    def seek_cost(self, rows: int, secondary: bool = False) -> float:
        per_row = self.seek_row_cost + (
            self.bookmark_lookup_cost if secondary else 0.0
        )
        return self.seek_descend_cost + rows * per_row

    def scan_filter_cost(self, table_rows: int, n_conjuncts: int) -> float:
        cost = table_rows * self.scan_row_cost
        if n_conjuncts:
            cost += table_rows * self.filter_row_cost
        return cost

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
        plan, bottom-up: each node prices itself (``estimate``), keeping
        any ``est_rows`` the planner set at construction time from
        predicate statistics. A subtree whose root already carries
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
