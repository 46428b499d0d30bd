"""Exchange offload: ship the task, not the table.

A pool worker is a fork of the coordinator, so it already holds every
table, index, decoded page and registered function as of the fork. The
exchange operator (:mod:`.parallel`) therefore moves no table data: when
the plan below it is *Filter\\* over a sliceable access path* (a
clustered seek, a heap scan, a column-store scan) it describes that plan
as a small picklable :class:`Fragment` — table name and the
``data_cookie`` it must match, the access path and "slice *i* of *n*" of
it, the filters and any computed group keys / aggregate arguments as
their ASTs, the aggregate specs without their closures — and each worker
builds the *same operators the serial plan runs* over its slice
(:func:`run_fragment`), returning only its partial aggregates (the
serial plan's batch accumulators, which merge), per-node row counts and
IO-counter deltas.

Slices are contiguous in scan order, so a group may span workers and the
coordinator re-adds partial sums; that is exact for counts, MIN/MAX and
integer sums and reassociates floating point, so SUM/AVG over anything
but a plain integer column runs serially — as does every other shape
this module cannot describe (a join under the aggregate, UDT columns),
always with the reason stated.

:func:`choose_exchange_tier` is the one place the parallel / serial
decision is taken: the operator runs the tier it names and the planner
phrases its EXPLAIN ``note:`` from the same verdict, so a plan that will
run on the coordinator says why at plan time, in the words the runtime
records.
"""

from __future__ import annotations

import copy
import pickle
import time
from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..expressions import ExpressionCompiler
from ..metrics import Counters
from ..storage.base import Part
from ..types import UDT
from ..workers import WorkerPoolError
from .aggregates import (
    AggregateSpec,
    GroupTable,
    batch_getter,
    group_key,
    make_batch_accumulator,
)
from .operators import ClusteredIndexSeek, ColumnStoreScan, Filter, TableScan

#: aggregates exact only over integer arguments when the partial sums of
#: the workers' slices are re-added at merge time (the
#: float-reassociation gate of :func:`scan_offload_blocker`)
SUM_LIKE_AGGREGATES = ("sum", "avg")

#: :attr:`ExchangeTier.tier` values, recorded as ``ParallelStats.mode``
MODE_SCAN = "parallel scan"
MODE_SERIAL = "serial"


class Fragment(NamedTuple):
    """What one exchange worker runs, as a picklable description.

    Built on the coordinator from its own operators
    (:func:`build_fragment`), turned back into operators on the worker
    (:func:`run_fragment`)."""

    table: str
    alias: str
    #: ``("seek", lo, hi)``, ``("scan", column names or None)`` or
    #: ``("column", column names or None, pushed predicates)``
    access: Tuple[Any, ...]
    #: the Filter predicates' ASTs, bottom-up
    filters: Tuple[Any, ...]
    #: positions of plain-column group keys, or None with ``group_exprs``
    group_indexes: Optional[Tuple[int, ...]]
    group_exprs: Tuple[Any, ...]
    #: aggregate specs without accessors (:func:`rebuild_shippable_specs`)
    specs: Tuple[AggregateSpec, ...]
    #: the table's ``data_cookie`` the worker's snapshot must match
    cookie: Tuple[int, int]
    #: this worker's slice of the access path
    part: Optional[Part] = None


def rebuild_shippable_specs(
    specs: Sequence[AggregateSpec],
) -> Optional[List[AggregateSpec]]:
    """Clone aggregate specs without their compiled accessors, so they
    survive pickling; the worker compiles its own from ``arg_index`` /
    ``arg_exprs``. None when any spec cannot ship."""
    shipped: List[AggregateSpec] = []
    for spec in specs:
        if spec.uda_class is not None:
            if not spec.parallel_safe:
                return None
            try:
                pickle.dumps(spec.uda_class)
            except Exception:  # noqa: BLE001 - locally scoped class
                return None
            described = spec.arg_exprs is not None
        else:
            described = (
                spec.star
                or spec.arg_index is not None
                or len(spec.arg_exprs or ()) == 1
            )
        if not described:
            return None  # only a compiled closure knows the arguments
        clone = copy.copy(spec)
        clone.arg_fns = []
        shipped.append(clone)
    return shipped


def scan_schema_position(scan, output_index: int) -> int:
    """Map an access path's output position back to the table schema
    position."""
    if isinstance(scan, ColumnStoreScan):
        return scan.out_positions[output_index]
    projection = getattr(scan, "projection", None)
    return projection[output_index] if projection is not None else output_index


def fragment_chain(child) -> Optional[List[Any]]:
    """``[access path, filter, ...]`` bottom-up when ``child`` is
    Filter* over a sliceable access path to a stored table, else None."""
    filters = []
    node = child
    while isinstance(node, Filter):
        filters.append(node)
        node = node.child
    if not isinstance(node, (ClusteredIndexSeek, TableScan, ColumnStoreScan)):
        return None
    if getattr(node.table, "store", None) is None:
        return None  # a system view: nothing stored, nothing to slice
    return [node] + filters[::-1]


def scan_offload_blocker(
    child,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
    group_exprs: Sequence[Any] = (),
) -> Optional[str]:
    """Why the exchange cannot run on workers, or None when it can: the
    one admission gate, an input of :func:`choose_exchange_tier`."""
    chain = fragment_chain(child)
    if chain is None:
        return "input is not filters over a sliceable table access path"
    leaf = chain[0]
    if any(c.sql_type.kind == UDT for c in leaf.table.schema.columns):
        return "table has UDT columns (their values may not pickle)"
    if any(node.expr is None for node in chain[1:]):
        return "a filter predicate has no expression to ship"
    if group_indexes is None and not group_exprs:
        return "group keys are compiled closures only"
    for spec in specs:
        if spec.uda_class is not None:
            continue  # parallel-safe UDAs merge by contract
        if spec.name in SUM_LIKE_AGGREGATES and not spec.distinct:
            if spec.arg_index is None:
                return (
                    f"{spec.name.upper()} argument is a computed expression "
                    "(slice partials could reassociate floats)"
                )
            schema_pos = scan_schema_position(leaf, spec.arg_index)
            sql_type = leaf.table.schema.columns[schema_pos].sql_type
            if not sql_type.is_integer:
                return (
                    f"{spec.name.upper()} over a non-integer column "
                    "(slice partials would reassociate floats)"
                )
    return None


class ExchangeTier(NamedTuple):
    """How a parallel hash aggregate will execute, and why not better."""

    tier: str
    #: why the worker tier is ruled out ("" when it is not)
    reason: str
    #: picklable aggregate specs for the workers (None when serial)
    ship_specs: Optional[List[AggregateSpec]] = None

    @property
    def note(self) -> Optional[str]:
        """The planner's EXPLAIN ``note:`` line for this verdict."""
        if self.tier == MODE_SERIAL:
            return f"exchange will run serially — {self.reason}"
        return None


def choose_exchange_tier(
    pool,
    child,
    specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
    dop: int,
    group_exprs: Sequence[Any] = (),
) -> ExchangeTier:
    """Workers or serial — and the reason — for one exchange.

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
    blocker = scan_offload_blocker(child, specs, group_indexes, group_exprs)
    if blocker is not None:
        return ExchangeTier(MODE_SERIAL, blocker)
    return ExchangeTier(MODE_SCAN, "", ship)


def build_fragment(
    chain: Sequence[Any],
    ship_specs: Sequence[AggregateSpec],
    group_indexes: Optional[Sequence[int]],
    group_exprs: Sequence[Any],
) -> Fragment:
    """Describe the admitted plan ``chain`` (:func:`fragment_chain`) as
    it stands now: seek bounds resolved to this execution's parameter
    values, the table's cookie as of this moment."""
    leaf = chain[0]
    table = leaf.table
    names = table.schema.column_names
    columns = (
        None
        if getattr(leaf, "projection", None) is None
        else [names[i] for i in leaf.projection]
    )
    if isinstance(leaf, ClusteredIndexSeek):
        access = ("seek",) + leaf.bounds()
    elif isinstance(leaf, ColumnStoreScan):
        access = ("column", columns, list(leaf.predicates))
    else:
        access = ("scan", columns)
    return Fragment(
        table=table.schema.name,
        alias=leaf.alias,
        access=access,
        filters=tuple(node.expr for node in chain[1:]),
        group_indexes=tuple(group_indexes) if group_indexes else None,
        group_exprs=tuple(group_exprs),
        specs=tuple(ship_specs),
        cookie=table.store.data_cookie(),
    )


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _fragment_operators(database, fragment: Fragment) -> List[Any]:
    """The fragment's operators over this process's copy of the table,
    bottom-up: the classes and compiler the serial plan uses, restricted
    to ``fragment.part``."""
    table = database.catalog.table(fragment.table)
    if table.store.data_cookie() != fragment.cookie:
        raise WorkerPoolError(
            f"worker's snapshot of table {fragment.table!r} is stale"
        )
    kind = fragment.access[0]
    if kind == "seek":
        leaf = ClusteredIndexSeek(
            table, *fragment.access[1:], alias=fragment.alias
        )
    elif kind == "column":
        _kind, columns, predicates = fragment.access
        leaf = ColumnStoreScan(
            table, alias=fragment.alias, projection=columns,
            predicates=predicates,
        )
    else:
        leaf = TableScan(
            table, alias=fragment.alias, projection=fragment.access[1]
        )
    leaf.part = fragment.part
    chain = [leaf]
    library = database.catalog.functions
    for expr in fragment.filters:
        compiler = ExpressionCompiler(chain[-1].scope.resolve, library)
        chain.append(Filter(chain[-1], compiler.compile_batch(expr)))
    return chain


def run_fragment(database, fragment: Fragment) -> Dict[str, Any]:
    """One exchange partition, on a worker: read this worker's slice
    through the serial plan's own operators, aggregate it with the
    serial plan's batch accumulators, and return them for the
    coordinator's merge with what the coordinator must account for
    (rows and batches per node, IO-counter deltas of the table).

    ``keys`` are this slice's group keys in first-occurrence order; the
    coordinator merges slices in range order, which reproduces the
    serial hash aggregate's group order exactly."""
    started = time.perf_counter()
    chain = _fragment_operators(database, fragment)
    leaf, top = chain[0], chain[-1]
    io_before = leaf.table.io_report()
    rows = [row for batch in top.iter_batches() for row in batch]
    scanned = time.perf_counter()

    compiler = ExpressionCompiler(
        top.scope.resolve, database.catalog.functions
    )
    group_fns = (
        () if fragment.group_indexes is not None
        else [compiler.compile(e) for e in fragment.group_exprs]
    )
    for spec in fragment.specs:
        # this process's copy of the spec gets the accessors that could
        # not ship; the accumulator holds none, so it ships back
        if spec.uda_class is not None:
            spec.arg_fns = [compiler.compile_batch(e) for e in spec.arg_exprs]
        elif spec.arg_index is not None:
            spec.arg_fns = [itemgetter(spec.arg_index)]
        elif not spec.star:
            spec.arg_fns = [compiler.compile(e) for e in spec.arg_exprs]
    groups = GroupTable(map(make_batch_accumulator, fragment.specs))
    groups.add(
        list(map(group_key(group_fns, fragment.group_indexes), rows)),
        [batch_getter(spec)(rows) for spec in fragment.specs],
    )
    done = time.perf_counter()
    return {
        "keys": list(groups.keys),
        "accumulators": groups.accumulators,
        "rows": len(rows),
        "nodes": [(node.rows_out, node.batches_out) for node in chain],
        "segments": (
            getattr(leaf, "segments_read", 0),
            getattr(leaf, "segments_skipped", 0),
        ),
        "io": dict(Counters.delta(leaf.table.io_report(), io_before)),
        "phases": [
            ("read slice", "IO", started, scanned),
            ("partial aggregate", None, scanned, done),
        ],
    }
