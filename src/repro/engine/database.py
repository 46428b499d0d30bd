"""The database facade.

:class:`Database` ties the pieces together: catalog, FileStream store,
SQL front end, planner, and executor. It is the object applications and
the genomics warehouse layer talk to::

    db = Database(data_dir="./mydb")
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(50))")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    result = db.execute("SELECT name FROM t WHERE id = 1")
    result.rows            # [('x',)]
    print(db.explain("SELECT COUNT(*), name FROM t GROUP BY name"))
"""

from __future__ import annotations

import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Type

from .catalog import Catalog
from .errors import BindError, ConstraintViolation, EngineError
from .executor import MaterializedResult, PhysicalOperator, collect_rows
from .expressions import ColumnRef, ExpressionCompiler
from .filestream import FileStreamStore
from .metrics import Counters, make_system_views
from .plancache import PlanCache
from .optimizer.cost import range_mismatch
from .optimizer.logical import split_conjuncts
from .planner import Planner
from .querystore import QueryStore
from .tracing import (
    StatementTrace,
    Tracer,
    current_trace,
    record_operator_spans,
)
from .schema import Column, ForeignKey, TableSchema
from .sql import ast
from .sql.parser import parse_sql
from .table import Table
from .types import (
    MAX,
    SqlType,
    UdtCodec,
    bigint_type,
    binary_type,
    bit_type,
    char_type,
    datetime_type,
    float_type,
    guid_type,
    int_type,
    smallint_type,
    tinyint_type,
    udt_type,
    varbinary_type,
    varchar_type,
)
from .udf import TableValuedFunction, UserDefinedAggregate


def _constants_only(ref: ColumnRef) -> int:
    raise BindError(f"INSERT VALUES must be constant expressions, found {ref}")


_TYPE_FACTORIES = {
    "int": lambda n: int_type(),
    "bigint": lambda n: bigint_type(),
    "smallint": lambda n: smallint_type(),
    "tinyint": lambda n: tinyint_type(),
    "bit": lambda n: bit_type(),
    "float": lambda n: float_type(),
    "real": lambda n: float_type(),
    "char": lambda n: char_type(n or 1),
    "nchar": lambda n: char_type(n or 1),
    "varchar": lambda n: varchar_type(n if n is not None else MAX),
    "nvarchar": lambda n: varchar_type(n if n is not None else MAX),
    "binary": lambda n: binary_type(n or 1),
    "varbinary": lambda n: varbinary_type(n if n is not None else MAX),
    "uniqueidentifier": lambda n: guid_type(),
    "datetime": lambda n: datetime_type(),
}


class Database:
    """One database instance: catalog + storage + query processing.

    Parameters
    ----------
    data_dir:
        Directory owning the FILESTREAM filegroup (a temp directory is
        created when omitted).

    A statement runs in parallel only when it asks with an ``OPTION
    (MAXDOP n)`` hint, n > 1. Parallel plans execute on a per-database
    :class:`~repro.engine.workers.WorkerPool` of OS processes, forked
    lazily on the first offloadable exchange and reused across queries
    until what they inherited goes stale.
    """

    def __init__(self, data_dir: Optional[os.PathLike | str] = None):
        if data_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-db-")
            data_dir = self._tempdir.name
        else:
            self._tempdir = None
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.filestream = FileStreamStore(self.data_dir / "filestream")
        self.catalog = Catalog(filestream_store=self.filestream)
        #: lazily created process pool for parallel exchanges
        self._worker_pool = None
        self._planner = Planner(self)
        self._procedures = None
        #: per-statement trace recording + engine-lifetime wait stats
        self.tracer = Tracer()
        #: the persistent query store (normalised queries, interned
        #: plans, per-interval runtime stats) — the one per-query stat
        #: store behind every sys_dm_* query view; reloaded from
        #: ``querystore.json`` when the data directory already has one
        self.query_store = QueryStore()
        self._querystore_path = self.data_dir / "querystore.json"
        #: per-execute() informational messages (the "Messages" tab)
        self.messages: List[str] = []
        if self._querystore_path.exists():
            try:
                self.query_store.load(self._querystore_path)
            except Exception as exc:  # noqa: BLE001 - corrupt store
                # start fresh, but say that history was lost and where
                self.query_store = QueryStore()
                self.messages.append(
                    f"query store {self._querystore_path} is unreadable "
                    f"({type(exc).__name__}: {exc}); starting with an "
                    "empty store"
                )
        #: the physical plan of the most recent SELECT/EXPLAIN ANALYZE
        #: (what the query store interns)
        self._last_select_plan: Optional[PhysicalOperator] = None
        #: SET STATISTICS TIME/IO session knobs
        self.statistics_time = False
        self.statistics_io = False
        #: plan-time lint findings, newest last (sys_dm_verify_results)
        self._lint_log: List[Tuple[str, str, str, str, str, str]] = []
        #: a list the caller sets to be handed every finding as it is
        #: recorded (the log above keeps only the newest): how
        #: ``repro-genomics lint`` collects a whole script's findings
        self.lint_sink: Optional[list] = None
        #: SET PLAN_VERIFY ON — run the plan sanitizer over every
        #: planned statement (also honoured by EXPLAIN; check() arms it)
        self.plan_verify = False
        #: statistics epoch: bumped by every UPDATE STATISTICS (manual
        #: or automatic) — part of the plan cache's invalidation key
        self.stats_epoch = 0
        #: compiled-plan cache keyed by normalized SQL + cache epoch
        #: (SET PLAN_CACHE ON/OFF; sys_dm_exec_cached_plans)
        self.plan_cache = PlanCache(self)
        for view_name, view in make_system_views(self).items():
            self.catalog.register_view(view_name, view)
        self._register_builtin_overrides()

    def close(self) -> None:
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
        # persist the query store beside the FILESTREAM filegroup so
        # history survives a restart (skipped for throwaway temp dirs)
        if self.query_store.dirty and self._tempdir is None:
            try:
                self.query_store.save(self._querystore_path)
            except OSError:
                pass
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # -- parallel worker pool -------------------------------------------------------------

    @property
    def worker_pool(self):
        """The database's process pool (created on first access; worker
        processes themselves spawn lazily on the first offloaded task)."""
        if self._worker_pool is None:
            from .workers import WorkerPool

            self._worker_pool = WorkerPool(max_workers=8, database=self)
        return self._worker_pool

    def worker_pool_rows(self) -> List[Tuple[Any, ...]]:
        """Rows for ``sys_dm_os_workers`` (empty until workers spawn)."""
        if self._worker_pool is None:
            return []
        return self._worker_pool.stats_rows()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- built-in FILESTREAM-aware functions --------------------------------------------

    def _register_builtin_overrides(self) -> None:
        store = self.filestream

        def pathname(value: Any) -> Any:
            if value is None:
                return None
            if isinstance(value, uuid.UUID):
                return store.path_name(value)
            raise BindError("PathName() expects a FILESTREAM column")

        def datalength(value: Any) -> Any:
            if isinstance(value, uuid.UUID) and store.exists(value):
                return store.data_length(value)
            from .expressions import _datalength

            return _datalength(value)

        # both reach FileStream storage: EXTERNAL_ACCESS, DataAccessKind.Read
        self.catalog.functions.register_scalar(
            "PathName",
            pathname,
            permission_set="EXTERNAL_ACCESS",
            data_access="READ",
        )
        self.catalog.functions.register_scalar(
            "DATALENGTH",
            datalength,
            permission_set="EXTERNAL_ACCESS",
            data_access="READ",
        )

    # -- extension registration -----------------------------------------------------------

    def register_scalar(
        self, name: str, func: Callable[..., Any], **kwargs
    ) -> None:
        self.catalog.functions.register_scalar(name, func, **kwargs)

    def register_tvf(self, tvf: TableValuedFunction) -> None:
        self.catalog.functions.register_tvf(tvf)

    def register_uda(self, uda_class: Type[UserDefinedAggregate]) -> None:
        self.catalog.functions.register_uda(uda_class)

    def register_udt(self, codec: UdtCodec) -> None:
        self.catalog.functions.register_udt(codec)

    # -- plan-time lint -------------------------------------------------------------------

    #: retained lint findings (oldest dropped beyond this)
    _LINT_LOG_LIMIT = 500

    def record_lint(self, diagnostics, source: str = "") -> None:
        """Record plan-time lint findings: one message per finding plus
        a row in ``sys_dm_verify_results``. ``source`` names the
        originating statement or object path (a normalised SQL prefix,
        a file:line, …) so a DMV row can be traced back to what was
        being planned."""
        if self.lint_sink is not None:
            self.lint_sink.extend(diagnostics)
        for d in diagnostics:
            self.messages.append(str(d))
            self._lint_log.append(
                ("plan", d.obj, d.rule, d.severity, d.message, source)
            )
        if len(self._lint_log) > self._LINT_LOG_LIMIT:
            del self._lint_log[: -self._LINT_LOG_LIMIT]

    def lint_rows(self) -> List[Tuple[str, str, str, str, str, str]]:
        return list(self._lint_log)

    @property
    def procedures(self):
        """The stored-procedure registry (interpreted + compiled)."""
        if self._procedures is None:
            from .procedural import ProcedureRegistry

            self._procedures = ProcedureRegistry(self)
        return self._procedures

    def call_procedure(self, name: str, *args: Any) -> Any:
        return self.procedures.call(name, *args)

    # -- SQL execution ---------------------------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Execute a SQL script; returns the last statement's result.

        SELECT → :class:`MaterializedResult`; EXPLAIN → plan text;
        DML/DDL → affected row count. Per-statement summaries requested
        via ``SET STATISTICS TIME/IO ON`` land in :attr:`messages`.
        """
        self.messages = []
        # parse-free hit path: when the raw text matches a registered
        # cached statement shape, the plan cache rebinds and returns
        # the compiled plan before the parser ever runs
        fast = self.plan_cache.fetch_text(sql)
        if fast is not None:
            return self._execute_tracked(
                None, sql, fast.key[0], fast_plan=fast.plan
            )
        result: Any = None
        for stmt in parse_sql(sql):
            result = self._execute_tracked(
                stmt, stmt.source_sql, stmt.normalized_sql
            )
        return result

    def _execute_tracked(
        self, stmt, sql_text: str, normalized: str, fast_plan=None
    ) -> Any:
        """Execute one statement and record it: a statement trace, one
        Query Store row keyed by ``normalized`` (the statement's
        normalised text, made by the parser or handed back by the plan
        cache), and, when the session knobs are on, :attr:`messages`.

        ``fast_plan`` carries a plan the cache resolved straight from
        raw text (``stmt`` is None then): execution skips the parser
        and statement dispatch but keeps every recording side effect
        identical to the parsed path."""
        if fast_plan is None and isinstance(stmt, ast.SetOptionStmt):
            return self._execute_statement(stmt)
        if fast_plan is None:
            kind = type(stmt).__name__.removesuffix("Stmt").upper()
        else:
            kind = "SELECT"
        ledger = self.catalog.io_ledger
        trace = self.tracer.begin(sql_text, kind)
        ledger.begin()
        start = time.perf_counter()
        try:
            if fast_plan is None:
                result = self._execute_statement(stmt)
            else:
                result = self._run_select_plan(fast_plan)
        finally:
            # the one delta the Query Store and STATISTICS IO both read
            io_by_source = ledger.end()
            self.tracer.end(trace)
        elapsed = time.perf_counter() - start
        if isinstance(result, MaterializedResult):
            rows = len(result)
        elif isinstance(result, int):
            rows = result
        else:
            rows = 0
        # bare EXPLAIN never executes the query: recording it would make
        # no-execute plan inspection indistinguishable from a real run in
        # the query store's runtime stats (EXPLAIN ANALYZE does execute
        # and keeps flowing through)
        is_bare_explain = (
            fast_plan is None
            and isinstance(stmt, ast.ExplainStmt)
            and not stmt.analyze
        )
        if not is_bare_explain:
            # a DML statement runs no plan; a UDF's nested ones are not its
            plan = self._last_select_plan if kind in ("SELECT", "EXPLAIN") else None
            self.query_store.record(
                normalized,
                kind,
                elapsed,
                rows,
                io=ledger.total(io_by_source),
                dop=1 if plan is None else plan.facts.dop,
                plan=plan,
            )
            # crash-safety checkpoint: persist the store every N recorded
            # statements instead of only at close() (throwaway temp-dir
            # databases skip persistence entirely)
            if self._tempdir is None:
                try:
                    self.query_store.maybe_checkpoint(self._querystore_path)
                except OSError:
                    pass
        if self.statistics_io:
            for source in self.catalog.table_names():
                delta = io_by_source.get(source)
                if not delta:
                    continue
                message = (
                    f"Table {source!r}. Scan count {delta['scans']}, "
                    f"logical reads "
                    f"{delta['pages_read'] + delta['index_node_visits']}, "
                    f"page cache misses {delta['page_cache_misses']}, "
                    f"batch reads {delta['batch_reads']}."
                )
                # columnstore tables add a segment clause (SQL Server
                # prints "segment reads N, segment skipped M"); heap
                # tables keep the exact historical line
                if delta["segments_read"] or delta["segments_skipped"]:
                    message += (
                        f" Segment reads {delta['segments_read']}, "
                        f"segments skipped {delta['segments_skipped']}."
                    )
                self.messages.append(message)
        if self.statistics_time:
            self.messages.append(
                f"Execution Times: elapsed time = {elapsed * 1000.0:.3f} ms."
            )
        return result

    def _io_totals(self) -> Counters:
        """Database-wide IO counters (sys_dm_io_stats)."""
        totals = Counters()
        for table in self.catalog.tables():
            totals.merge(table.io_report())
        totals.merge(self.filestream.io, prefix="filestream_")
        return totals

    # -- tracing ---------------------------------------------------------------------------

    def last_trace(self) -> Optional[StatementTrace]:
        """The most recently completed statement trace (None when
        tracing is disabled or nothing has run)."""
        return self.tracer.last

    def query(self, sql: str) -> List[Tuple[Any, ...]]:
        """Execute a single SELECT and return its rows."""
        result = self.execute(sql)
        if not isinstance(result, MaterializedResult):
            raise EngineError("query() requires a SELECT statement")
        return result.rows

    def scalar(self, sql: str) -> Any:
        """First column of the first row of a SELECT."""
        rows = self.query(sql)
        if not rows:
            return None
        return rows[0][0]

    @staticmethod
    def _one_statement(sql: str, caller: str):
        """The single statement of ``sql``, or EngineError naming
        ``caller`` when it holds none or several."""
        statements = parse_sql(sql)
        if len(statements) != 1:
            raise EngineError(f"{caller}() takes exactly one statement")
        return statements[0]

    def explain(self, sql: str) -> str:
        """Render the physical plan for a SELECT statement."""
        stmt = self._one_statement(sql, "explain")
        if isinstance(stmt, ast.ExplainStmt):
            if stmt.analyze:
                return self._explain_analyze(stmt.select)
            stmt = stmt.select
        if not isinstance(stmt, ast.SelectStmt):
            raise EngineError("explain() requires a SELECT statement")
        return self._planner.explain_select(stmt)

    def _explain_analyze(self, select: ast.SelectStmt) -> str:
        """EXPLAIN ANALYZE: execute the plan to completion, then render
        it with estimated *and* actual row counts per operator."""
        op = self._planner.plan_select(select)
        op.enable_timing()
        collect_rows(op)
        self._last_select_plan = op
        trace = current_trace()
        if trace is not None:
            # timing armed every operator's span endpoints; graft them
            # under the statement span structurally (operators are
            # interleaved generators — a live span stack would mis-nest)
            record_operator_spans(trace, op)
        return op.explain(analyze=True)

    def plan(self, sql: str) -> PhysicalOperator:
        """Return the physical operator tree for a SELECT (not executed)."""
        stmt = self._one_statement(sql, "plan")
        if not isinstance(stmt, ast.SelectStmt):
            raise EngineError("plan() requires a SELECT statement")
        return self._planner.plan_select(stmt)

    def check(self, sql: str) -> int:
        """Statically check a SQL script without running it (the path
        ``repro-genomics lint`` takes): SELECT and EXPLAIN statements
        are planned — so the plan-time lint fires — but never executed;
        INSERT/UPDATE/DELETE are bound against the catalog (table,
        column, and expression binding, VALUES arity) without touching
        a row; only schema and session statements (CREATE/DROP/
        TRUNCATE/SET) apply, so later statements bind against the
        schema the script builds. Returns the number of statements
        checked. The plan sanitizer is force-armed for the duration so
        ``repro-genomics lint``/``sanitize`` always get PLAN-* coverage
        regardless of the session knob."""
        self.messages = []
        statements = parse_sql(sql)
        was_verifying = self.plan_verify
        self.plan_verify = True
        try:
            for stmt in statements:
                self._check_statement(stmt)
        finally:
            self.plan_verify = was_verifying
        return len(statements)

    def _check_statement(self, stmt) -> None:
        if isinstance(stmt, ast.SelectStmt):
            self._planner.plan_select(stmt)
        elif isinstance(stmt, ast.ExplainStmt):
            self._planner.plan_select(stmt.select)
        elif isinstance(stmt, ast.InsertStmt):
            self._bind_insert(stmt)
        elif isinstance(stmt, ast.UpdateStmt):
            self._bind_update(stmt)
        elif isinstance(stmt, ast.DeleteStmt):
            self._bind_delete(stmt)
        else:
            # schema / session statements must apply for later binding
            self._execute_statement(stmt)

    def _run_select_plan(self, op) -> MaterializedResult:
        """Materialize a resolved physical plan — the shared tail of
        the parsed SELECT branch and the plan cache's raw-text path.
        The plan is noted once it has run: a statement a UDF ran inside
        it (a procedure's, say) noted its own plan meanwhile."""
        rows = collect_rows(op)
        self._last_select_plan = op
        return MaterializedResult(op.facts.output_names, rows)

    def _execute_statement(self, stmt) -> Any:
        self._last_select_plan = None
        if isinstance(stmt, ast.SelectStmt):
            return self._run_select_plan(self.plan_cache.fetch(stmt).plan)
        if isinstance(stmt, ast.ExplainStmt):
            if stmt.analyze:
                # EXPLAIN ANALYZE arms per-operator timing, which must
                # not persist on a cached plan — always plan fresh
                return self._explain_analyze(stmt.select)
            text = self._planner.explain_select(stmt.select)
            # peek only: report what the cache *would* do without
            # bumping counters or caching the inspected plan
            cache_note = self.plan_cache.peek(stmt.select)
            if cache_note is not None:
                text += f"\nnote: {cache_note}"
            return text
        if isinstance(stmt, ast.UpdateStatisticsStmt):
            self.analyze_table(stmt.table)
            return 0
        if isinstance(stmt, ast.SetOptionStmt):
            if stmt.option == "STATISTICS TIME":
                self.statistics_time = stmt.enabled
            elif stmt.option == "STATISTICS IO":
                self.statistics_io = stmt.enabled
            elif stmt.option == "PLAN_VERIFY":
                self.plan_verify = stmt.enabled
            else:  # PLAN_CACHE
                if self.plan_cache.enabled and not stmt.enabled:
                    self.plan_cache.clear(reason="disabled")
                self.plan_cache.enabled = stmt.enabled
            return 0
        if isinstance(stmt, ast.InsertStmt):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.DeleteStmt):
            return self._execute_delete(stmt)
        if isinstance(stmt, ast.UpdateStmt):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.CreateTableStmt):
            self._execute_create_table(stmt)
            return 0
        if isinstance(stmt, ast.CreateIndexStmt):
            self.catalog.table(stmt.table).create_index(stmt.name, stmt.columns)
            # create_index is a Table method, so the catalog never sees
            # it — bump the DDL epoch here so cached plans notice
            self.catalog.bump_schema_version()
            return 0
        if isinstance(stmt, ast.DropTableStmt):
            self.catalog.drop_table(stmt.name)
            return 0
        if isinstance(stmt, ast.TruncateStmt):
            table = self.catalog.table(stmt.name)
            schema = table.schema
            self.catalog.drop_table(stmt.name)
            self.catalog.create_table(schema)
            return 0
        raise EngineError(f"unsupported statement {type(stmt).__name__}")

    # -- DDL ---------------------------------------------------------------------------------

    def _resolve_type(self, col: ast.ColumnDef) -> SqlType:
        factory = _TYPE_FACTORIES.get(col.type_name.lower())
        if factory is None:
            if self.catalog.functions.has_udt(col.type_name):
                return udt_type(col.type_name)
            raise BindError(f"unknown type {col.type_name!r}")
        sql_type = factory(col.length)
        if col.filestream:
            if not (sql_type.kind == "VARBINARY" and sql_type.length == MAX):
                raise BindError(
                    "FILESTREAM requires VARBINARY(MAX) "
                    f"(column {col.name!r})"
                )
            sql_type = varbinary_type(MAX, filestream=True)
        return sql_type

    def _execute_create_table(self, stmt: ast.CreateTableStmt) -> Table:
        columns = []
        for col in stmt.columns:
            columns.append(
                Column(
                    name=col.name,
                    sql_type=self._resolve_type(col),
                    nullable=col.nullable and col.name not in stmt.primary_key,
                    identity=col.identity,
                    rowguidcol=col.rowguidcol,
                )
            )
        foreign_keys = [
            ForeignKey(tuple(fk.columns), fk.parent_table, tuple(fk.parent_columns))
            for fk in stmt.foreign_keys
        ]
        schema = TableSchema(
            name=stmt.name,
            columns=columns,
            primary_key=stmt.primary_key,
            foreign_keys=foreign_keys,
            compression=stmt.compression,
            filestream_group=stmt.filestream_group,
            storage=stmt.storage,
            segment_rows=stmt.segment_rows,
        )
        return self.catalog.create_table(schema)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- DML ---------------------------------------------------------------------------------

    def _full_rows(
        self,
        table: Table,
        columns: Sequence[str],
        value_rows: Iterable[Sequence[Any]],
    ):
        schema = table.schema
        if not columns:
            for row in value_rows:
                yield row
            return
        indexes = [schema.column_index(c) for c in columns]
        width = len(schema.columns)
        for row in value_rows:
            if len(row) != len(indexes):
                raise ConstraintViolation(
                    f"INSERT supplies {len(row)} values for {len(indexes)} columns"
                )
            full: List[Any] = [None] * width
            for index, value in zip(indexes, row):
                full[index] = value
            yield full

    # Each DML statement has one bind step, which execution and
    # :meth:`check` both call: everything that can fail before a row is
    # touched fails there.

    def _bind_insert(self, stmt: ast.InsertStmt):
        """The target table and its full rows: VALUES are evaluated here,
        a SELECT is planned here and runs as the rows are drawn."""
        table = self.catalog.table(stmt.table)
        if stmt.values is None:
            op = self._planner.plan_select(stmt.select)
            return table, self._full_rows(table, stmt.columns, op)
        compiler = ExpressionCompiler(_constants_only, self.catalog.functions)
        value_rows = [
            [compiler.compile(expr)(()) for expr in row] for row in stmt.values
        ]
        return table, list(self._full_rows(table, stmt.columns, value_rows))

    def _bind_update(self, stmt: ast.UpdateStmt):
        """The target table, the WHERE predicate, and the row updater."""
        table = self.catalog.table(stmt.table)
        if any(c.sql_type.filestream for c in table.schema.columns):
            # delete-then-reinsert would drop the blobs
            raise BindError(
                f"UPDATE is not supported on FILESTREAM table "
                f"{table.schema.name!r}"
            )
        compiler = self._row_compiler(table)
        assignments = [
            (table.schema.column_index(col), compiler.compile(expr))
            for col, expr in stmt.assignments
        ]
        predicate = self._bind_where(table, compiler, stmt.where)

        def updater(row):
            updated = list(row)
            for index, fn in assignments:
                updated[index] = fn(row)  # RHS sees the *old* row
            self._check_foreign_keys(table, updated)
            return updated

        return table, predicate, updater

    def _bind_delete(self, stmt: ast.DeleteStmt):
        """The target table and the WHERE predicate."""
        table = self.catalog.table(stmt.table)
        return table, self._bind_where(
            table, self._row_compiler(table), stmt.where
        )

    def _row_compiler(self, table: Table) -> ExpressionCompiler:
        """Compiles expressions over one stored row of ``table``."""
        from .executor import TableScan

        return ExpressionCompiler(
            TableScan(table).scope.resolve, self.catalog.functions
        )

    @staticmethod
    def _bind_where(
        table: Table, compiler: ExpressionCompiler, where
    ) -> Callable:
        """``row -> keep?``; a range across order families raises the
        conversion error a SELECT's Filter raises, on the first row."""
        if where is None:
            return lambda row: True
        where_fn = compiler.compile(where)
        schema = table.schema
        return range_mismatch(
            split_conjuncts(where),
            lambda ref: (table, schema.column(ref.name))
            if schema.has_column(ref.name) else None,
        ) or (lambda row: where_fn(row) is True)

    def _execute_insert(self, stmt: ast.InsertStmt) -> int:
        table, rows = self._bind_insert(stmt)
        # one batch: a statement that fails on any row stores none
        rows = list(rows)
        for full in rows:
            self._check_foreign_keys(table, full)
        count = table.insert_many(rows)
        table.finish_bulk_load(force=False)
        return count

    def insert_row(self, table_name: str, row: Sequence[Any]):
        """Programmatic single-row insert with FK enforcement (the path
        SQL INSERT takes, minus parsing)."""
        table = self.catalog.table(table_name)
        self._check_foreign_keys(table, row)
        return table.insert(row)

    def _check_foreign_keys(self, table: Table, row: Sequence[Any]) -> None:
        schema = table.schema
        for fk in schema.foreign_keys:
            values = tuple(
                row[schema.column_index(c)] for c in fk.columns
            )
            if any(v is None for v in values):
                continue
            parent = self.catalog.table(fk.parent_table)
            if tuple(parent.schema.primary_key) == fk.parent_columns:
                if parent.get(values) is None:
                    raise ConstraintViolation(
                        f"FK violation: {schema.name}{fk.columns} -> "
                        f"{fk.parent_table}{fk.parent_columns} "
                        f"missing parent {values!r}"
                    )
            # FKs onto non-PK parent keys are not enforced (documented)

    def _execute_update(self, stmt: ast.UpdateStmt) -> int:
        table, predicate, updater = self._bind_update(stmt)
        # the updater (and its FK check) runs on every row before
        # update_where deletes any
        count = table.update_where(predicate, updater)
        table.finish_bulk_load(force=False)
        return count

    def _execute_delete(self, stmt: ast.DeleteStmt) -> int:
        table, predicate = self._bind_delete(stmt)
        return table.delete_where(predicate)

    # -- bulk import --------------------------------------------------------------------------

    def read_bulk_file(self, path: str) -> bytes:
        """Read a file for ``OPENROWSET(BULK ..., SINGLE_BLOB)``."""
        return Path(path).read_bytes()

    def bulk_insert_filestream(
        self,
        table_name: str,
        column_values: dict,
        filestream_column: str,
        source_path: os.PathLike | str,
    ) -> uuid.UUID:
        """Import a file straight into a FILESTREAM column without loading
        it into memory (the fast path behind the paper's bulk import)."""
        table = self.catalog.table(table_name)
        schema = table.schema
        row: List[Any] = [None] * len(schema.columns)
        for name, value in column_values.items():
            row[schema.column_index(name)] = value
        self._check_foreign_keys(table, row)
        guid = self.filestream.create_from_file(source_path)
        row[schema.column_index(filestream_column)] = guid
        try:
            table.insert(row)
        except Exception:
            # the row and its blob commit or vanish together
            self.filestream.delete(guid)
            raise
        return guid

    # -- administration --------------------------------------------------------------------------

    def analyze_table(self, name: str):
        """Collect optimizer statistics for one table (the implementation
        behind ``UPDATE STATISTICS`` / ``ANALYZE``)."""
        result = self.catalog.table(name).analyze()
        # new statistics can change every cached plan's cost basis
        self.stats_epoch += 1
        return result

    def storage_report(self) -> List[dict]:
        """Per-table storage statistics (the raw material of Tables 1/2)."""
        report = []
        for table in self.catalog.tables():
            report.append(
                {
                    "table": table.schema.name,
                    "rows": table.row_count,
                    "compression": table.schema.compression,
                    "data_bytes": table.stored_bytes(),
                    "uncompressed_bytes": table.uncompressed_bytes(),
                    "filestream_bytes": table.filestream_bytes(),
                }
            )
        return report

    def checkdb(self) -> List[str]:
        """DBCC CHECKDB-style consistency pass over FILESTREAM storage."""
        return self.filestream.consistency_check()
