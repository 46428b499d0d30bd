"""Engine-wide observability: counters, the DMV-style system views, and
the Prometheus rendering.

SQL Server exposes its execution telemetry through dynamic management
views (``sys.dm_exec_query_stats``, ``sys.dm_db_index_usage_stats``,
``sys.dm_io_virtual_file_stats``); the paper's evaluation leans on that
introspection for its perfmon profiles (Figures 7/8) and actual-row plan
screenshots (Figures 9/10).  This module holds no statistics of its
own — it renders what the engine's single sources of truth keep:

- :class:`Counters` — a dict of monotonically increasing integer
  counters, cheap enough to stay always-on in the storage layer;
- :class:`VirtualTable` / :func:`make_system_views` — read-only tables
  backed by Python callables, so the system views flow through the
  ordinary planner/binder/scan machinery and observability is itself
  SQL. Per-query rows (``sys_dm_exec_query_stats``,
  ``sys_dm_query_store_*``) come from the
  :class:`~repro.engine.querystore.QueryStore`, spans and waits from
  the :class:`~repro.engine.tracing.Tracer`;
- :func:`prometheus_text` — the same rows as exposition text for
  external scraping.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BindError
from .schema import Column, TableSchema
from .types import float_type, int_type, varchar_type

# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------


class Counters(dict):
    """Monotonic integer counters, keyed by name.

    A missing key reads as zero, so call sites never pre-declare the
    counters they bump and read sites never guard against absence."""

    #: set by :meth:`IoLedger.watch`: the next ``incr`` is this source's
    #: first touch in the open statement scope and is reported there
    _armed = False

    def __missing__(self, key: str) -> int:
        return 0

    def incr(self, key: str, amount: int = 1) -> None:
        if self._armed:
            self._armed = False
            self._ledger.first_touch(self)
        self[key] = self.get(key, 0) + amount

    def merge(self, other: Dict[str, int], prefix: str = "") -> None:
        for key, value in other.items():
            self.incr(prefix + key, value)

    def snapshot(self) -> "Counters":
        return Counters(self)

    @staticmethod
    def delta(after: Dict[str, int], before: Dict[str, int]) -> "Counters":
        """Counters accumulated between two snapshots (zeros dropped)."""
        out = Counters()
        for key, value in after.items():
            diff = value - before.get(key, 0)
            if diff:
                out[key] = diff
        return out


class IoLedger:
    """A statement's IO, read from the sources it touched.

    Each IO source (a table's access method and B+trees under the
    table's name, the FILESTREAM store under ``None``) is watched once.
    In a ``begin``/``end`` scope a source's first ``incr`` copies its
    values aside, and ``end`` subtracts with plain dict arithmetic: the
    delta is exact wherever the IO came from and costs nothing per
    untouched table. A scope inside another gets its own delta, and the
    outer one still the sum."""

    def __init__(self):
        #: per open scope: source id -> (counters, values before the first
        #: touch); frame 0 takes what moves outside any statement
        self._frames: List[Dict[int, Tuple[Counters, Dict[str, int]]]] = [{}]

    def watch(
        self, counters: Counters, source: Optional[str], prefix: str = ""
    ) -> None:
        counters._ledger = self
        counters._label = (source, prefix)
        counters._armed = True

    def first_touch(self, counters: Counters) -> None:
        self._frames[-1].setdefault(id(counters), (counters, dict(counters)))

    def begin(self) -> None:
        # what the enclosing scope touched must report again in this one
        frame = self._frames[-1]
        for counters, _before in frame.values():
            counters._armed = True
        if len(self._frames) == 1:
            frame.clear()
        self._frames.append({})

    def end(self) -> Dict[Optional[str], Counters]:
        """Close the innermost scope: its delta by source name, only the
        counters that moved."""
        frame = self._frames.pop()
        outer = self._frames[-1]
        if outer:  # the outer scope sees the sum
            for key, entry in frame.items():
                outer.setdefault(key, entry)
        else:
            self._frames[-1] = frame
        by_source: Dict[Optional[str], Counters] = {}
        for counters, before in frame.values():
            source, prefix = counters._label
            delta = by_source.get(source)
            was = before.get
            for name, value in counters.items():
                value -= was(name, 0)
                if value:
                    if delta is None:
                        delta = by_source[source] = Counters()
                    name = prefix + name
                    delta[name] = delta.get(name, 0) + value
        return by_source

    @staticmethod
    def total(by_source: Dict[Optional[str], Counters]) -> Counters:
        """One delta for the whole statement: the source's own when only
        one source moved, else their sum."""
        if len(by_source) == 1:
            (delta,) = by_source.values()
            return delta
        out = Counters()
        for delta in by_source.values():
            for name, value in delta.items():
                out[name] = out.get(name, 0) + value
        return out


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def prometheus_text(
    query_stats: Sequence[Tuple[Any, ...]],
    io_totals: Dict[str, int],
    workers: Sequence[Tuple[Any, ...]],
    waits: Sequence[Tuple[Any, ...]],
    plan_cache: Dict[str, int],
) -> str:
    """Render engine telemetry as Prometheus exposition-format text.

    ``query_stats`` takes ``sys_dm_exec_query_stats`` rows (the Query
    Store roll-up), ``workers`` takes ``sys_dm_os_workers`` rows,
    ``waits`` takes ``sys_dm_os_wait_stats`` rows, and ``plan_cache``
    takes the plan cache's flat counter map, so pool utilisation, wait
    accounting, and cache effectiveness scrape alongside the per-query
    counters."""
    executions, elapsed, dops, segments = [], [], [], []
    for (
        text, _kind, count, elapsed_ms, _avg, _last, _rows, _reads,
        _written, _batch, segments_read, segments_skipped, last_dop,
    ) in query_stats:
        label = text.replace("\\", "\\\\").replace('"', '\\"')
        executions.append(
            f'repro_engine_query_executions_total{{query="{label}"}} {count}'
        )
        elapsed.append(
            f'repro_engine_query_elapsed_seconds_total{{query="{label}"}} '
            f"{elapsed_ms / 1000.0:.6f}"
        )
        dops.append(
            f'repro_engine_query_last_dop{{query="{label}"}} {last_dop}'
        )
        segments.append(
            f'repro_engine_query_segments_total{{query="{label}",'
            f'outcome="read"}} {segments_read}'
        )
        segments.append(
            f'repro_engine_query_segments_total{{query="{label}",'
            f'outcome="skipped"}} {segments_skipped}'
        )
    lines = [
        "# HELP repro_engine_query_executions_total "
        "Executions per normalised query text.",
        "# TYPE repro_engine_query_executions_total counter",
        *executions,
        "# HELP repro_engine_query_elapsed_seconds_total "
        "Total wall-clock seconds per normalised query text.",
        "# TYPE repro_engine_query_elapsed_seconds_total counter",
        *elapsed,
        "# HELP repro_engine_query_last_dop "
        "Degree of parallelism of each query's most recent plan.",
        "# TYPE repro_engine_query_last_dop gauge",
        *dops,
        "# HELP repro_engine_query_segments_total "
        "Columnstore segments read/skipped per normalised query text.",
        "# TYPE repro_engine_query_segments_total counter",
        *segments,
        "# HELP repro_engine_io_total Storage-layer IO counters.",
        "# TYPE repro_engine_io_total counter",
    ]
    for key in sorted(io_totals):
        lines.append(
            f'repro_engine_io_total{{counter="{key}"}} {io_totals[key]}'
        )
    lines += [
        "# HELP repro_engine_worker_tasks_completed_total "
        "Tasks completed per pool worker.",
        "# TYPE repro_engine_worker_tasks_completed_total counter",
        "# HELP repro_engine_worker_rows_processed_total "
        "Rows processed per pool worker.",
        "# TYPE repro_engine_worker_rows_processed_total counter",
        "# HELP repro_engine_worker_busy_seconds_total "
        "In-task wall-clock seconds per pool worker.",
        "# TYPE repro_engine_worker_busy_seconds_total counter",
    ]
    for worker_id, _pid, _state, tasks, rows, busy_ms, _last in workers:
        lines.append(
            "repro_engine_worker_tasks_completed_total"
            f'{{worker="{worker_id}"}} {tasks}'
        )
        lines.append(
            "repro_engine_worker_rows_processed_total"
            f'{{worker="{worker_id}"}} {rows}'
        )
        lines.append(
            "repro_engine_worker_busy_seconds_total"
            f'{{worker="{worker_id}"}} {busy_ms / 1000.0:.6f}'
        )
    lines += [
        "# HELP repro_engine_wait_seconds_total "
        "Cumulative engine wait time by wait type.",
        "# TYPE repro_engine_wait_seconds_total counter",
        "# HELP repro_engine_waiting_tasks_total "
        "Cumulative waits observed by wait type.",
        "# TYPE repro_engine_waiting_tasks_total counter",
    ]
    for wait_type, count, wait_ms, _max_ms in waits:
        lines.append(
            "repro_engine_wait_seconds_total"
            f'{{wait_type="{wait_type}"}} {wait_ms / 1000.0:.6f}'
        )
        lines.append(
            "repro_engine_waiting_tasks_total"
            f'{{wait_type="{wait_type}"}} {count}'
        )
    lines += [
        "# HELP repro_engine_plan_cache_total "
        "Plan cache events (hits, misses, evictions) and the "
        "entries gauge.",
        "# TYPE repro_engine_plan_cache_total counter",
    ]
    for key in sorted(plan_cache):
        lines.append(
            f'repro_engine_plan_cache_total{{event="{key}"}} '
            f"{plan_cache[key]}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# virtual system tables
# ---------------------------------------------------------------------------


class VirtualTable:
    """A read-only table whose rows come from a Python callable.

    Implements just enough of the :class:`~repro.engine.table.Table`
    surface (``schema``, ``row_count``, ``scan``, ``scan_batches``,
    ``statistics``, ``secondary_indexes``) for the planner's access-path
    selection and the executor's TableScan to treat it like any heap."""

    def __init__(self, schema: TableSchema, rows_fn: Callable[[], Sequence[Tuple]]):
        self.schema = schema
        self._rows_fn = rows_fn
        self.statistics = None

    @property
    def row_count(self) -> int:
        return len(self._rows_fn())

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._rows_fn())

    def scan_batches(self, part: Any = None) -> Iterator[List[Tuple]]:
        yield list(self._rows_fn())

    def secondary_indexes(self) -> Dict[str, Any]:
        return {}

    def _read_only(self, *_args: Any, **_kwargs: Any) -> Any:
        raise BindError(f"system view {self.schema.name!r} is read-only")

    insert = _read_only
    insert_many = _read_only
    delete_where = _read_only
    update_where = _read_only


def make_system_views(db: "Any") -> Dict[str, VirtualTable]:
    """Build the DMV-style virtual tables bound to one database."""
    views: Dict[str, VirtualTable] = {}

    def view(
        name: str,
        columns: Sequence[Tuple[str, Any]],
        rows_fn: Callable[[], Sequence[Tuple]],
    ) -> None:
        schema = TableSchema(name, [Column(*column) for column in columns])
        views[name] = VirtualTable(schema, rows_fn)

    view(
        "sys_dm_exec_query_stats",
        [
            ("query_text", varchar_type(-1)),
            ("statement_kind", varchar_type(64)),
            ("execution_count", int_type()),
            ("total_elapsed_ms", float_type()),
            ("avg_elapsed_ms", float_type()),
            ("last_elapsed_ms", float_type()),
            ("total_rows", int_type()),
            ("total_logical_reads", int_type()),
            ("total_pages_written", int_type()),
            ("total_batch_reads", int_type()),
            ("total_segments_read", int_type()),
            ("total_segments_skipped", int_type()),
            ("last_dop", int_type()),
        ],
        lambda: db.query_store.query_stats_rows(),
    )

    view(
        "sys_dm_os_workers",
        [
            ("worker_id", int_type()),
            ("pid", int_type()),
            ("state", varchar_type(16)),
            ("tasks_completed", int_type()),
            ("rows_processed", int_type()),
            ("busy_ms", float_type()),
            ("last_task_ms", float_type()),
        ],
        lambda: db.worker_pool_rows(),
    )

    def index_stats_rows() -> List[Tuple[Any, ...]]:
        rows = []
        for table in db.catalog.tables():
            pk = getattr(table, "_pk_index", None)
            if pk is not None:
                rows.append(
                    (
                        table.schema.name,
                        "PK_" + table.schema.name,
                        "CLUSTERED",
                        pk.depth(),
                        len(pk),
                        pk.io.get("seeks", 0),
                        pk.io.get("node_visits", 0),
                    )
                )
            for index_name, (_cols, tree) in getattr(
                table, "_secondary", {}
            ).items():
                rows.append(
                    (
                        table.schema.name,
                        index_name,
                        "NONCLUSTERED",
                        tree.depth(),
                        len(tree),
                        tree.io.get("seeks", 0),
                        tree.io.get("node_visits", 0),
                    )
                )
        return rows

    view(
        "sys_dm_db_index_stats",
        [
            ("table_name", varchar_type(128)),
            ("index_name", varchar_type(128)),
            ("index_type", varchar_type(32)),
            ("depth", int_type()),
            ("entry_count", int_type()),
            ("seeks", int_type()),
            ("node_visits", int_type()),
        ],
        index_stats_rows,
    )

    view(
        "sys_dm_io_stats",
        [("counter", varchar_type(128)), ("value", int_type())],
        lambda: sorted(db._io_totals().items()),
    )

    def segment_stats_rows() -> List[Tuple[Any, ...]]:
        rows = []
        for table in db.catalog.tables():
            store = getattr(table, "store", None)
            if store is None:
                continue
            for entry in store.segment_report():
                rows.append(
                    (
                        table.schema.name,
                        entry["column_name"],
                        entry["segment_id"],
                        entry["encoding"],
                        entry["rows"],
                        entry["null_count"],
                        entry["n_distinct"],
                        repr(entry["min_value"]),
                        repr(entry["max_value"]),
                        entry["encoded_bytes"],
                    )
                )
        return rows

    view(
        "sys_dm_db_segment_stats",
        [
            ("table_name", varchar_type(128)),
            ("column_name", varchar_type(128)),
            ("segment_id", int_type()),
            ("encoding", varchar_type(16)),
            ("row_count", int_type()),
            ("null_count", int_type()),
            ("n_distinct", int_type()),
            ("min_value", varchar_type(-1)),
            ("max_value", varchar_type(-1)),
            ("encoded_bytes", int_type()),
        ],
        segment_stats_rows,
    )

    def verify_rows() -> List[Tuple[Any, ...]]:
        # a UDx row's source is its registered object path (KIND:name)
        registered = db.catalog.functions.findings
        rows = [
            (kind, d.obj, d.rule, d.severity, d.message, f"{kind}:{key}")
            for (kind, key), diagnostics in registered.items()
            for d in diagnostics
        ]
        rows.extend(db.lint_rows())
        return rows

    view(
        "sys_dm_verify_results",
        [
            ("object_type", varchar_type(32)),
            ("object_name", varchar_type(128)),
            ("rule", varchar_type(64)),
            ("severity", varchar_type(16)),
            ("message", varchar_type(-1)),
            # the originating statement (normalised SQL prefix) for
            # plan-level findings, or the registered object path for
            # UDx-level findings — so the two are distinguishable
            ("source", varchar_type(-1)),
        ],
        verify_rows,
    )

    view(
        "sys_dm_query_store_query",
        [
            ("query_id", int_type()),
            ("query_text", varchar_type(-1)),
            ("statement_kind", varchar_type(64)),
            ("first_seen", varchar_type(32)),
            ("last_seen", varchar_type(32)),
            ("execution_count", int_type()),
            ("plan_count", int_type()),
        ],
        lambda: db.query_store.query_rows(),
    )

    view(
        "sys_dm_query_store_plan",
        [
            ("plan_id", int_type()),
            ("query_id", int_type()),
            ("plan_text", varchar_type(-1)),
            ("est_rows", int_type()),
            ("first_seen", varchar_type(32)),
            ("last_dop", int_type()),
            ("execution_count", int_type()),
        ],
        lambda: db.query_store.plan_rows(),
    )

    view(
        "sys_dm_query_store_runtime_stats",
        [
            ("query_id", int_type()),
            ("plan_id", int_type()),
            ("interval_id", int_type()),
            ("interval_start", varchar_type(32)),
            ("executions", int_type()),
            ("total_elapsed_ms", float_type()),
            ("avg_elapsed_ms", float_type()),
            ("last_elapsed_ms", float_type()),
            ("total_rows", int_type()),
            ("last_est_rows", int_type()),
            ("last_actual_rows", int_type()),
            ("total_logical_reads", int_type()),
            ("total_batch_reads", int_type()),
            ("total_segments_read", int_type()),
            ("total_segments_skipped", int_type()),
            ("last_dop", int_type()),
            ("total_pages_written", int_type()),
        ],
        lambda: db.query_store.runtime_rows(),
    )

    view(
        "sys_dm_os_wait_stats",
        [
            ("wait_type", varchar_type(32)),
            ("waiting_tasks_count", int_type()),
            ("wait_time_ms", float_type()),
            ("max_wait_time_ms", float_type()),
        ],
        lambda: db.tracer.wait_stats.rows(),
    )

    view(
        "sys_dm_exec_trace_spans",
        [
            ("trace_id", int_type()),
            ("span_id", int_type()),
            ("parent_span_id", int_type()),
            ("name", varchar_type(-1)),
            ("category", varchar_type(32)),
            ("wait_type", varchar_type(32)),
            ("start_ms", float_type()),
            ("duration_ms", float_type()),
            ("pid", int_type()),
            ("worker", int_type()),
        ],
        lambda: db.tracer.span_rows(),
    )

    view(
        "sys_dm_exec_cached_plans",
        [
            ("query_text", varchar_type(-1)),
            ("hit_count", int_type()),
            ("parameter_count", int_type()),
            ("created_at", int_type()),
            ("last_used_at", int_type()),
        ],
        lambda: db.plan_cache.entry_rows(),
    )

    view(
        "sys_dm_exec_plan_cache_stats",
        [("counter", varchar_type(128)), ("value", int_type())],
        lambda: db.plan_cache.stats_rows(),
    )

    return views
