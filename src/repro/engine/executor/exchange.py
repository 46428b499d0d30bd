"""Exchange offload planning: can this parallel plan run on real cores?

The exchange operator family (:mod:`.parallel`) executes partition
sub-plans on the database's :class:`~repro.engine.workers.WorkerPool`
when the plan is *shippable* — expressible as picklable descriptors a
worker process can evaluate without the coordinator's compiled closures:

- **group keys** must be plain input columns (``group_indexes``);
- **aggregates** must be built-ins addressed by argument position, or
  picklable UDAs with plain-column arguments — their accessors are
  rebuilt worker-side as ``operator.itemgetter``;
- **partitioned scans** additionally need a child that is a bare table
  scan whose storage engine can split itself into disjoint picklable
  slices (heap page ranges / columnstore segment ranges), and — because
  range partitioning lets a group span partitions — SUM/AVG arguments
  of *exact* (integer) type, so coordinator-side merge reassociates
  nothing that floating point would notice. Float SUM/AVG plans still
  parallelise: they take the hash-partitioned row-shipping path, where
  a group never spans workers and accumulation order matches serial
  execution bit for bit.

:func:`choose_exchange_tier` is the one place the scan / rows / serial
decision is taken: the operator runs the tier it names and the planner
phrases its EXPLAIN ``note:`` from the same verdict, so a plan that will
run on the coordinator says why at plan time, in the words the runtime
records.
"""

from __future__ import annotations

import pickle
from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..types import UDT
from .aggregates import AggregateSpec
from .operators import ColumnStoreScan, TableScan

#: aggregates whose merge is order-insensitive and exact for any input
#: type (counts are integers, MIN/MAX pick, sets union)
ORDER_SAFE_AGGREGATES = ("count", "count_big", "min", "max")
#: aggregates exact only over integer arguments when partial sums from
#: *range* partitions are re-added at merge time (the float-reassociation
#: gate the plan sanitizer re-proves independently, rule
#: PLAN-EXCHANGE-FLOAT-SUM)
SUM_LIKE_AGGREGATES = ("sum", "avg")


def rebuild_shippable_specs(
    specs: Sequence[AggregateSpec],
) -> Optional[List[AggregateSpec]]:
    """Clone aggregate specs with ``itemgetter`` argument accessors so
    they (and the states they build) survive pickling. None when any
    spec cannot ship."""
    shipped: List[AggregateSpec] = []
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return None  # expression argument: compiled closure only
        if spec.uda_class is not None:
            if not spec.parallel_safe:
                return None
            try:
                pickle.dumps(spec.uda_class)
            except Exception:  # noqa: BLE001 - locally scoped class
                return None
        arg_fns = (
            [] if spec.star else [itemgetter(spec.arg_index)]
        )
        shipped.append(
            AggregateSpec(
                spec.name,
                arg_fns,
                star=spec.star,
                distinct=spec.distinct,
                uda_class=spec.uda_class,
                arg_index=spec.arg_index,
            )
        )
    return shipped


def scan_schema_position(scan, output_index: int) -> int:
    """Map a scan output position back to the table schema position.

    Public because the plan sanitizer cross-checks this mapping against
    an independent by-name resolution (a corrupted position map is how
    the float-reassociation gate gets defeated)."""
    if isinstance(scan, ColumnStoreScan):
        return scan.out_positions[output_index]
    projection = scan.projection
    return projection[output_index] if projection is not None else output_index


def offloadable_scan(child) -> Optional[Any]:
    """The child scan when it is a bare partitionable table scan."""
    if isinstance(child, (TableScan, ColumnStoreScan)):
        store = getattr(child.table, "store", None)
        if store is not None and hasattr(store, "partition_payloads"):
            return child
    return None


def _has_udt_columns(schema) -> bool:
    return any(c.sql_type.kind == UDT for c in schema.columns)


def scan_offload_blocker(
    child,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
) -> Optional[str]:
    """Why the partitioned-scan offload cannot run, or None when it can.

    One input of :func:`choose_exchange_tier`; the plan sanitizer calls
    it directly to re-prove the gate."""
    if group_indexes is None:
        return "group keys are computed expressions"
    scan = offloadable_scan(child)
    if scan is None:
        return "input is not a partitionable table scan"
    if _has_udt_columns(scan.table.schema):
        return "table has UDT columns (codecs do not ship)"
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return f"{spec.name.upper()} argument is a computed expression"
        if spec.uda_class is not None:
            continue  # parallel-safe UDAs merge by contract
        if spec.name in SUM_LIKE_AGGREGATES and not spec.distinct:
            schema_pos = scan_schema_position(scan, spec.arg_index)
            sql_type = scan.table.schema.columns[schema_pos].sql_type
            if not sql_type.is_integer:
                return (
                    f"{spec.name.upper()} over a non-integer column "
                    "(range partials would reassociate floats)"
                )
    return None


def rows_offload_blocker(
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
) -> Optional[str]:
    """Why the hash-partitioned row-shipping offload cannot run.

    Hash partitioning keeps every group on one worker, so accumulation
    order matches serial execution for any type — only descriptor
    expressibility matters here."""
    if group_indexes is None:
        return "group keys are computed expressions"
    for spec in specs:
        if not spec.star and spec.arg_index is None:
            return f"{spec.name.upper()} argument is a computed expression"
    return None


#: :attr:`ExchangeTier.tier` values, recorded as ``ParallelStats.mode``
MODE_SCAN = "parallel scan"
MODE_ROWS = "parallel rows"
MODE_SERIAL = "serial"


class ExchangeTier(NamedTuple):
    """How a parallel hash aggregate will execute, and why not better."""

    tier: str
    #: why the next-better tier is ruled out ("" when nothing is)
    reason: str
    #: picklable aggregate specs for the worker tiers (None when serial)
    ship_specs: Optional[List[AggregateSpec]] = None

    @property
    def note(self) -> Optional[str]:
        """The planner's EXPLAIN ``note:`` line for this verdict."""
        if self.tier == MODE_SERIAL:
            return f"exchange will run serially — {self.reason}"
        if self.tier == MODE_ROWS:
            return (
                "exchange will repartition rows on the coordinator — "
                f"{self.reason}"
            )
        return None


def choose_exchange_tier(
    pool,
    child,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
    dop: int,
) -> ExchangeTier:
    """Scan, rows or serial — and the reason — for one exchange.

    Called by :class:`~.parallel.ParallelHashAggregate` at execution and
    by the planner when it phrases the EXPLAIN note, so the two cannot
    disagree."""
    if dop <= 1:
        return ExchangeTier(MODE_SERIAL, "degree of parallelism is 1")
    if pool is None:
        return ExchangeTier(MODE_SERIAL, "no worker pool attached")
    if not pool.available():
        return ExchangeTier(
            MODE_SERIAL, pool.disabled_reason or "worker pool unavailable"
        )
    ship = rebuild_shippable_specs(specs)
    if ship is None:
        return ExchangeTier(
            MODE_SERIAL, "aggregate descriptors cannot ship to workers"
        )
    scan_blocker = scan_offload_blocker(child, specs, group_indexes)
    if scan_blocker is None:
        return ExchangeTier(MODE_SCAN, "", ship)
    rows_blocker = rows_offload_blocker(specs, group_indexes)
    if rows_blocker is None:
        return ExchangeTier(MODE_ROWS, scan_blocker, ship)
    return ExchangeTier(MODE_SERIAL, rows_blocker)


def build_scan_tasks(
    scan,
    ship_specs: Sequence[AggregateSpec],
    group_indexes: Sequence[int],
    dop: int,
) -> Optional[Tuple[List[Tuple[str, Dict[str, Any]]], List[float]]]:
    """Partition the scan's storage into ``dop`` disjoint slices and
    wrap each as a ``partial_agg`` worker task. None when the store
    declines to partition (nothing stored yet, or engine opt-out).
    ``scan`` is an exchange child :func:`scan_offload_blocker` admits:
    a partitionable table scan."""
    store = scan.table.store
    slices = store.partition_payloads(dop)
    if slices is None:
        return None
    if isinstance(scan, ColumnStoreScan):
        kind = "column"
        extra: Dict[str, Any] = {
            "predicates": list(scan.predicates),
            "out_positions": tuple(scan.out_positions),
        }
    else:
        kind = "heap"
        extra = {"out_positions": scan.projection}
    tasks: List[Tuple[str, Dict[str, Any]]] = []
    weights: List[float] = []
    for piece in slices:
        source = dict(piece)
        source.update(extra)
        tasks.append(
            (
                "partial_agg",
                {
                    "source": (kind, source),
                    "specs": list(ship_specs),
                    "group_indexes": tuple(group_indexes),
                },
            )
        )
        weights.append(float(piece.get("rows", 1)))
    return tasks, weights
