"""The cost-based optimizer layer.

Planning is split into two phases, the classic logical → physical
pipeline SQL Server's optimizer (which the paper leans on) runs:

- :mod:`.logical` — the logical plan IR the binder lowers a SELECT AST
  into (scan / filter / join / apply / aggregate / window / project
  nodes), independent of access paths and algorithms;
- :mod:`.rules` — rewrite rules over that IR: predicate pushdown,
  projection pruning, and cardinality-ordered join reordering;
- :mod:`.statistics` — table/column statistics (row counts, distinct
  counts, min/max, most-common values, equi-depth histograms) collected
  by ``UPDATE STATISTICS`` / ``ANALYZE`` and kept in the catalog;
- :mod:`.cost` — the cost model that prices physical alternatives
  (heap scan vs. seek, merge vs. hash join, stream vs. hash vs.
  parallel-exchange aggregation) from those statistics and annotates
  every physical operator with ``est. rows`` / ``cost`` for EXPLAIN.
"""

from .cost import CostModel
from .logical import (
    LogicalAggregate,
    LogicalApply,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalNode,
    LogicalProject,
    LogicalSort,
    LogicalTop,
    LogicalWindow,
    lower_select,
)
from .rules import apply_rewrites
from .statistics import (
    ColumnStats,
    HistogramBucket,
    TableStats,
    collect_table_statistics,
)

__all__ = [
    "ColumnStats",
    "CostModel",
    "HistogramBucket",
    "LogicalAggregate",
    "LogicalApply",
    "LogicalDistinct",
    "LogicalFilter",
    "LogicalGet",
    "LogicalJoin",
    "LogicalNode",
    "LogicalProject",
    "LogicalSort",
    "LogicalTop",
    "LogicalWindow",
    "TableStats",
    "apply_rewrites",
    "collect_table_statistics",
    "lower_select",
]
