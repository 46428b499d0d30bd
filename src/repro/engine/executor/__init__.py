"""Volcano-style physical operators."""

from .aggregates import AggregateSpec
from .apply import CrossApply, TvfScan
from .base import MaterializedResult, PhysicalOperator
from .joins import HashJoin, KeyLookupJoin, MergeJoin
from .operators import (
    ClusteredIndexScan,
    ClusteredIndexSeek,
    ColumnStoreScan,
    Distinct,
    EncodedAggregate,
    Filter,
    HashAggregate,
    Project,
    RowNumberWindow,
    SecondaryIndexSeek,
    Sort,
    StreamAggregate,
    TableScan,
    Top,
)
from .exchange import rebuild_shippable_specs, scan_offload_blocker
from .parallel import ParallelHashAggregate, ParallelStats
from .vector import (
    DEFAULT_BATCH_SIZE,
    RowBatch,
    batches_from_rows,
    collect_rows,
)

__all__ = [
    "AggregateSpec",
    "ClusteredIndexScan",
    "ClusteredIndexSeek",
    "ColumnStoreScan",
    "CrossApply",
    "DEFAULT_BATCH_SIZE",
    "Distinct",
    "EncodedAggregate",
    "Filter",
    "HashAggregate",
    "HashJoin",
    "KeyLookupJoin",
    "MaterializedResult",
    "MergeJoin",
    "ParallelHashAggregate",
    "ParallelStats",
    "PhysicalOperator",
    "Project",
    "RowBatch",
    "RowNumberWindow",
    "SecondaryIndexSeek",
    "Sort",
    "StreamAggregate",
    "TableScan",
    "Top",
    "TvfScan",
    "batches_from_rows",
    "collect_rows",
    "rebuild_shippable_specs",
    "scan_offload_blocker",
]
