"""Table and column statistics for the cost-based optimizer.

``UPDATE STATISTICS <table>`` (or the PostgreSQL-flavoured ``ANALYZE
<table>``) scans a table once and records, per column:

- row count, NULL count, and number of distinct values;
- min / max;
- the most common values with their exact frequencies (the MCV list),
  which makes equality estimates robust on heavily skewed genomics data
  (a handful of chromosomes own most alignments);
- an equi-depth histogram over the remaining values for range
  predicates.

Estimates never fail: every helper degrades to a default selectivity
when the statistics are missing or the predicate shape is out of reach,
mirroring the "magic numbers" real optimizers fall back on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: defaults used when no statistics have been collected
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1 / 3
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_SELECTIVITY = 0.5

#: histogram resolution (equi-depth buckets per column)
DEFAULT_BUCKETS = 32
#: most-common-value list length per column
DEFAULT_MCV = 8


def _orderable(values: Sequence[Any]) -> bool:
    """Can ``values`` be sorted as one homogeneous sequence?"""
    try:
        sorted(values)
        return True
    except TypeError:
        return False


@dataclass(frozen=True)
class HistogramBucket:
    """One equi-depth bucket: values in ``(lo, hi]`` (lo exclusive except
    for the first bucket), with its exact row count."""

    lo: Any
    hi: Any
    rows: int


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    name: str
    n_rows: int = 0
    n_nulls: int = 0
    n_distinct: int = 0
    min_value: Any = None
    max_value: Any = None
    #: most common values → exact frequency
    mcv: Dict[Any, int] = field(default_factory=dict)
    #: equi-depth histogram over the non-MCV values
    histogram: List[HistogramBucket] = field(default_factory=list)

    @property
    def non_null_rows(self) -> int:
        return self.n_rows - self.n_nulls

    # -- selectivities -------------------------------------------------------

    def eq_selectivity(self, value: Any) -> float:
        """Fraction of rows satisfying ``col = value``."""
        if self.non_null_rows == 0:
            return 0.0
        if value is None:
            return 0.0  # col = NULL never matches
        if value in self.mcv:
            return self.mcv[value] / self.n_rows
        rest_rows = self.non_null_rows - sum(self.mcv.values())
        rest_distinct = self.n_distinct - len(self.mcv)
        if rest_distinct <= 0 or rest_rows <= 0:
            # every value is in the MCV list; an unseen literal matches
            # nothing (estimate one row, never zero)
            return 1.0 / max(self.n_rows, 1)
        return (rest_rows / rest_distinct) / self.n_rows

    def range_selectivity(
        self, lo: Any = None, hi: Any = None,
        lo_inclusive: bool = True, hi_inclusive: bool = True,
    ) -> float:
        """Fraction of rows with ``lo <(=) col <(=) hi`` (either bound
        may be None for an open interval)."""
        if self.non_null_rows == 0:
            return 0.0
        below_hi = 1.0 if hi is None else self._fraction_below(hi, hi_inclusive)
        below_lo = 0.0 if lo is None else self._fraction_below(lo, not lo_inclusive)
        return max(below_hi - below_lo, 0.0)

    def _fraction_below(self, value: Any, inclusive: bool) -> float:
        """Fraction of non-NULL rows ``<= value`` (or ``< value``)."""
        try:
            if self.min_value is not None and value < self.min_value:
                return 0.0
            if self.max_value is not None and value > self.max_value:
                return 1.0
        except TypeError:
            return DEFAULT_RANGE_SELECTIVITY
        covered = 0.0
        for mcv_value, count in self.mcv.items():
            try:
                hit = mcv_value <= value if inclusive else mcv_value < value
            except TypeError:
                continue
            if hit:
                covered += count
        for bucket in self.histogram:
            # the first bucket has no lower bound; its values start at
            # the column's minimum
            lo = self.min_value if bucket.lo is None else bucket.lo
            try:
                if bucket.hi <= value:
                    covered += bucket.rows
                elif lo < value:
                    covered += bucket.rows * self._bucket_fraction(
                        lo, bucket.hi, value
                    )
            except TypeError:
                covered += bucket.rows * DEFAULT_RANGE_SELECTIVITY
        return min(covered / self.non_null_rows, 1.0)

    @staticmethod
    def _bucket_fraction(lo: Any, hi: Any, value: Any) -> float:
        """Linear interpolation inside a partially-covered bucket."""
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)):
            width = hi - lo
            if width > 0:
                return min(max((value - lo) / width, 0.0), 1.0)
        return 0.5

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnStats({self.name}: rows={self.n_rows} "
            f"nulls={self.n_nulls} ndv={self.n_distinct} "
            f"range=[{self.min_value!r}..{self.max_value!r}] "
            f"mcv={len(self.mcv)} buckets={len(self.histogram)})"
        )


@dataclass
class TableStats:
    """Statistics for one table, keyed by lowercase column name."""

    table_name: str
    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())

    def n_distinct(self, name: str) -> Optional[int]:
        stats = self.column(name)
        return stats.n_distinct if stats is not None else None


def _build_column_stats(name: str, values: List[Any]) -> ColumnStats:
    n_rows = len(values)
    non_null = [v for v in values if v is not None]
    stats = ColumnStats(
        name=name, n_rows=n_rows, n_nulls=n_rows - len(non_null)
    )
    if not non_null:
        return stats
    counts = Counter(non_null)
    stats.n_distinct = len(counts)
    if not _orderable(list(counts.keys())):
        # mixed / unorderable types: keep counts only
        stats.mcv = dict(counts.most_common(DEFAULT_MCV))
        return stats
    stats.min_value = min(counts)
    stats.max_value = max(counts)
    # MCV list: only values strictly more frequent than the average keep
    # a slot (a uniform column gets no MCVs, all mass in the histogram)
    avg_freq = len(non_null) / len(counts)
    stats.mcv = {
        value: count
        for value, count in counts.most_common(DEFAULT_MCV)
        if count > avg_freq or len(counts) <= DEFAULT_MCV
    }
    remainder = sorted(v for v in non_null if v not in stats.mcv)
    if remainder:
        depth = max(len(remainder) // DEFAULT_BUCKETS, 1)
        lo: Any = None
        index = 0
        while index < len(remainder):
            end = min(index + depth, len(remainder))
            hi = remainder[end - 1]
            # extend the bucket through duplicates of its upper bound so
            # a value never straddles two buckets
            while end < len(remainder) and remainder[end] == hi:
                end += 1
            stats.histogram.append(
                HistogramBucket(lo=lo, hi=hi, rows=end - index)
            )
            lo = hi
            index = end
    return stats


def collect_table_statistics(table) -> TableStats:
    """One full scan of ``table`` → fresh :class:`TableStats`.

    The scan surfaces FILESTREAM GUIDs like any query would; GUID and
    byte-payload columns simply record row/NULL/distinct counts.
    """
    schema = table.schema
    columns: List[Tuple[str, List[Any]]] = [
        (col.name, []) for col in schema.columns
    ]
    row_count = 0
    for row in table.scan():
        row_count += 1
        for (name, values), cell in zip(columns, row):
            values.append(cell)
    stats = TableStats(table_name=schema.name, row_count=row_count)
    for name, values in columns:
        stats.columns[name.lower()] = _build_column_stats(name, values)
    return stats
