"""The cost-based optimizer layer.

- :mod:`.logical` — ``lower_select`` binds a SELECT AST into a flat
  record: its FROM units, JOIN/CROSS APPLY steps, WHERE conjuncts and
  aggregate and window calls;
- :mod:`.rules` — ``apply_rewrites`` places each WHERE conjunct on the
  first unit or join that binds it and prunes unread columns;
- :mod:`.statistics` — table/column statistics (row counts, distinct
  counts, min/max, most-common values, equi-depth histograms) collected
  by ``UPDATE STATISTICS`` / ``ANALYZE`` and kept in the catalog;
- :mod:`.cost` — the cost model that prices physical alternatives
  (heap scan vs. seek, merge vs. hash join, stream vs. hash vs.
  parallel-exchange aggregation) from those statistics; its
  ``annotate`` asks every physical operator for its own ``estimate``
  and is the only writer of ``est. rows`` / ``cost`` for EXPLAIN. The
  planner orders join chains by those row estimates.

The planner runs the first two as the compile phases of every SELECT,
then lowers the record straight to physical operators.
"""

from .cost import CostModel
from .logical import BoundSelect, lower_select
from .rules import apply_rewrites
from .statistics import (
    ColumnStats,
    HistogramBucket,
    TableStats,
    collect_table_statistics,
)

__all__ = [
    "BoundSelect",
    "ColumnStats",
    "CostModel",
    "HistogramBucket",
    "TableStats",
    "apply_rewrites",
    "collect_table_statistics",
    "lower_select",
]
