"""The exchange operator: the worker tier and the serial fallback."""

import pytest

from repro.engine.errors import ExecutionError
from repro.engine.executor import (
    AggregateSpec,
    HashAggregate,
    MaterializedResult,
    ParallelHashAggregate,
)
from repro.engine.udf import UserDefinedAggregate


def c(i):
    return lambda row: row[i]


def rows_op(columns, rows):
    return MaterializedResult(columns, rows)


class TestParallelHashAggregate:
    DATA = [(f"g{i % 7}", i) for i in range(500)]

    def run_plan(self, op_class, **kwargs):
        op = op_class(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [
                AggregateSpec("count", [], star=True),
                AggregateSpec("sum", [c(1)]),
            ],
            ["n", "s"],
            **kwargs,
        )
        return op, sorted(op)

    def test_matches_serial_hash_aggregate(self):
        _serial_op, serial = self.run_plan(HashAggregate)
        parallel_op, parallel = self.run_plan(ParallelHashAggregate, dop=4)
        assert parallel == serial

    def test_serial_run_records_mode_and_reason_only(self):
        op, result = self.run_plan(ParallelHashAggregate, dop=4)
        stats = op.stats
        assert stats.mode == "serial"
        assert stats.fallback_reason == "no worker pool attached"
        assert stats.rows_out == len(result) == 7
        # no worker ran, so nothing was timed and nothing is modelled
        assert stats.partition_agg_times == []
        assert stats.measured_parallel_wall == 0.0

    def test_group_order_matches_serial_first_occurrence(self):
        serial_op = HashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
        )
        parallel_op = ParallelHashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=4,
        )
        assert list(parallel_op) == list(serial_op)

    def test_dop_one_equals_serial_semantics(self):
        op, parallel = self.run_plan(ParallelHashAggregate, dop=1)
        _s, serial = self.run_plan(HashAggregate)
        assert parallel == serial

    def test_multi_column_group_key(self):
        data = [(i % 2, i % 3, 1) for i in range(60)]
        op = ParallelHashAggregate(
            rows_op(["a", "b", "v"], data),
            [c(0), c(1)],
            ["a", "b"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=3,
        )
        assert sorted(op) == [
            (a, b, 10) for a in range(2) for b in range(3)
        ]

    def test_rejects_non_parallel_safe_uda(self):
        class Ordered(UserDefinedAggregate):
            name = "OrderedUda"
            parallel_safe = False

            def init(self):
                pass

            def accumulate(self, value):
                pass

            def merge(self, other):
                pass

            def terminate(self):
                return None

        with pytest.raises(ExecutionError):
            ParallelHashAggregate(
                rows_op(["g", "v"], self.DATA),
                [c(0)],
                ["g"],
                [AggregateSpec("OrderedUda", [c(1)], uda_class=Ordered)],
                ["x"],
                dop=4,
            )

    def test_rejects_dop_below_one(self):
        with pytest.raises(ExecutionError):
            ParallelHashAggregate(
                rows_op(["g", "v"], self.DATA),
                [c(0)],
                ["g"],
                [AggregateSpec("count", [], star=True)],
                ["n"],
                dop=0,
            )

    def test_explain_mentions_exchange(self):
        op, _ = self.run_plan(ParallelHashAggregate, dop=4)
        label, _kids = op.explain_node()
        assert "Gather Streams" in label
        # the partial aggregate sits below the exchange, as in Figure 9
        assert label.index("Gather Streams") < label.index("Partial Aggregate")
        assert "Repartition" not in label  # nothing is repartitioned
        assert "DOP=4" in label


class TestExplainAnalyzeParallel:
    """EXPLAIN ANALYZE over exchange operators: worker fan-out must not
    double-count rows or time on any node of the plan."""

    DATA = [(f"g{i % 7}", i) for i in range(500)]

    def build(self, dop=4):
        return ParallelHashAggregate(
            rows_op(["g", "v"], self.DATA),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [], star=True)],
            ["n"],
            dop=dop,
        )

    def test_child_rows_counted_once(self):
        op = self.build(dop=4)
        op.enable_timing()
        groups = list(op)
        assert len(groups) == 7
        (child,) = op.children()
        # the exchange partitions one pass over the child; the per-worker
        # fan-out must not re-drive (and re-count) the input
        assert child.rows_out == len(self.DATA)
        assert child.loops == 1
        assert op.rows_out == 7
        assert op.loops == 1

    def test_analyze_text_reports_serial_run_once(self):
        op = self.build(dop=4)
        op.enable_timing()
        list(op)
        text = op.explain(analyze=True)
        assert "actual rows=7" in text
        assert f"actual rows={len(self.DATA)}" in text
        # no pool attached: the node says it ran the serial aggregate
        assert "mode=serial" in text
        assert "serial fallback: no worker pool attached" in text
        assert "workers=" not in text
        assert "loops=1" in text
        assert "loops=2" not in text

    def test_sql_explain_analyze_with_maxdop(self):
        from repro.engine import Database

        with Database() as db:
            db.execute(
                "CREATE TABLE m (id INT PRIMARY KEY, grp VARCHAR(5))"
            )
            db.execute(
                "INSERT INTO m VALUES "
                + ", ".join(f"({i}, 'g{i % 3}')" for i in range(60))
            )
            text = db.explain(
                "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM m "
                "GROUP BY grp OPTION (MAXDOP 4)"
            )
        assert "actual rows=3" in text
        assert "actual rows=60" in text  # the scan, counted exactly once
        assert "time=" in text
        assert "workers=" in text


def exchange_node(op):
    if isinstance(op, ParallelHashAggregate):
        return op
    for child in op.children():
        found = exchange_node(child)
        if found is not None:
            return found
    return None


def run_sql(db, sql):
    """``(rows, exchange node)`` of ``sql`` through ``Database.query``
    (the plan cache's path when it is on)."""
    rows = db.query(sql)
    return rows, exchange_node(db._last_select_plan)


def assert_ran_on_workers(node):
    stats = node.stats
    assert (stats.mode, stats.fallback_reason) == ("parallel scan", "")
    assert stats.measured_parallel_wall > 0
    # a description of the plan ships, never the table
    assert 0 < stats.bytes_shipped < 16 * 1024
    assert stats.bytes_returned > 0


class TestRealWorkerExecution:
    """The exchange tier that actually crosses a process boundary."""

    @pytest.fixture
    def db(self):
        from repro.engine import Database

        with Database() as database:
            database.execute("CREATE TABLE s (g VARCHAR(5), v INT, f FLOAT)")
            database.execute(
                "INSERT INTO s VALUES "
                + ", ".join(
                    f"('g{i % 7}', {i}, {i}.25)" for i in range(2000)
                )
            )
            yield database

    def _run(self, db, sql):
        from repro.engine.executor import collect_rows

        plan = db.plan(sql)
        rows = collect_rows(plan)
        return rows, exchange_node(plan)

    def test_integer_aggregate_offloads_the_scan(self, db):
        rows, node = self._run(
            db,
            "SELECT g, SUM(v), COUNT(*) FROM s "
            "GROUP BY g OPTION (MAXDOP 4)",
        )
        assert node is not None
        assert_ran_on_workers(node)
        assert node.stats.worker_breakdown
        serial = db.execute(
            "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        assert list(rows) == list(serial.rows)

    def test_float_sum_runs_serially_with_the_reason(self, db):
        rows, node = self._run(
            db, "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert node.stats.mode == "serial"
        assert "reassociate floats" in node.stats.fallback_reason
        serial = db.execute(
            "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        # bit-identical: it *is* the serial accumulation order
        assert list(rows) == list(serial.rows)

    def test_scan_offload_counts_child_rows_once(self, db):
        from repro.engine.executor import collect_rows

        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        collect_rows(plan)
        node = exchange_node(plan)
        assert node.stats.mode == "parallel scan"
        (child,) = node.children()
        assert child.rows_out == 2000
        assert child.loops == 1

    def test_elapsed_is_wall_clock_not_worker_sum(self, db):
        from repro.engine.executor import collect_rows

        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        plan.enable_timing()
        collect_rows(plan)
        node = exchange_node(plan)
        stats = node.stats
        # operator elapsed is inclusive wall-clock of the pull loop; the
        # per-worker times live in analyze_detail, and their sum must
        # not leak into the node's own clock
        assert len(stats.partition_agg_times) == 4
        assert node.elapsed <= stats.measured_parallel_wall * 1.5 + 0.05
        assert "worker time=" in node.analyze_detail()
        assert "workers=4" in node.analyze_detail()

    def test_env_kill_switch_runs_the_serial_aggregate(self, db, monkeypatch):
        from repro.engine.workers import DISABLE_ENV

        monkeypatch.setenv(DISABLE_ENV, "1")
        rows, node = self._run(
            db, "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert node.stats.mode == "serial"
        assert DISABLE_ENV in node.stats.fallback_reason
        serial = db.execute(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        assert list(rows) == list(serial.rows)

    def test_disabled_pool_noted_in_explain(self, db, monkeypatch):
        from repro.engine.workers import DISABLE_ENV

        monkeypatch.setenv(DISABLE_ENV, "1")
        text = db.explain(
            "EXPLAIN SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert "note: exchange will run serially" in text

    def test_analyze_shows_measured_wall_and_mode(self, db):
        text = db.explain(
            "EXPLAIN ANALYZE SELECT g, SUM(v) FROM s "
            "GROUP BY g OPTION (MAXDOP 4)"
        )
        assert "measured wall=" in text
        assert "mode=parallel scan" in text
        assert "w0=" in text

    #: every way the exchange ends up running the serial aggregate:
    #: (statement, is the reason known at plan time?)
    FALLBACKS = {
        "no pool": ("SELECT g, COUNT(*) FROM s GROUP BY g", False),
        "dop 1": ("SELECT g, COUNT(*) FROM s GROUP BY g", False),
        "kill switch": ("SELECT g, COUNT(*) FROM s GROUP BY g", True),
        "expression argument": (
            "SELECT g, SUM(v + 1) FROM s GROUP BY g", True
        ),
        "float sum": ("SELECT g, SUM(f) FROM s GROUP BY g", True),
        "float avg": ("SELECT g, AVG(f) FROM s GROUP BY g", True),
        "join under the aggregate": (
            "SELECT a.g, COUNT(*) FROM s AS a JOIN s AS b ON (a.v = b.v) "
            "GROUP BY a.g",
            True,
        ),
        "scan tier fails": ("SELECT g, SUM(v) FROM s GROUP BY g", False),
    }

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_serial_fallback_seam(self, db, monkeypatch, case):
        from repro.engine.executor import collect_rows
        from repro.engine.workers import DISABLE_ENV, WorkerPoolError

        sql, known_at_plan_time = self.FALLBACKS[case]
        if case == "kill switch":
            monkeypatch.setenv(DISABLE_ENV, "1")
        plan = db.plan(f"{sql} OPTION (MAXDOP 4)")
        node = exchange_node(plan)
        if case == "no pool":
            node.pool = None
        elif case == "dop 1":
            node.dop = 1  # the planner itself never builds this shape
        verdict = node.tier()
        if case.endswith("fails"):
            assert verdict.tier == f"parallel {case.split()[0]}"

            def broken_run(*_args, **_kwargs):
                raise WorkerPoolError("injected pool failure")

            monkeypatch.setattr(node.pool, "run", broken_run)
            expected_reason = "injected pool failure"
        else:
            assert verdict.tier == "serial"
            expected_reason = verdict.reason

        rows = collect_rows(plan)

        serial_plan = db.plan(f"{sql} OPTION (MAXDOP 1)")
        assert exchange_node(serial_plan) is None
        assert "Hash Match (Aggregate" in serial_plan.explain()
        # same rows in the same (first-occurrence) group order
        assert rows == collect_rows(serial_plan)
        assert node.stats.mode == "serial"
        assert node.stats.measured_parallel_wall == 0.0
        assert node.stats.fallback_reason == expected_reason
        assert expected_reason
        if known_at_plan_time:
            # one function phrases the planner's note and the runtime
            # reason: the texts are the same
            assert verdict.note in plan.plan_notes
            assert verdict.note == (
                f"exchange will run serially — {node.stats.fallback_reason}"
            )
            assert f"note: {verdict.note}" in plan.explain()
        # whichever way it fell back, the input ran exactly once
        for op in plan.nodes():
            assert op.loops == 1, op.node_label
        scans = [
            op for op in plan.nodes() if not op.children()
        ]
        assert all(scan.rows_out == 2000 for scan in scans)
        assert "loops=2" not in plan.explain(analyze=True)

    def test_udt_column_runs_serially_with_the_reason(self):
        import struct

        from repro.engine import Database
        from repro.engine.udf import UdtCodec

        with Database() as database:
            database.register_udt(
                UdtCodec(
                    "Point",
                    serialize=lambda p: struct.pack("<hh", *p),
                    deserialize=lambda raw: list(struct.unpack("<hh", raw)),
                )
            )
            database.execute(
                "CREATE TABLE u (id INT PRIMARY KEY, g VARCHAR(5), "
                "piece Point)"
            )
            database.execute(
                "INSERT INTO u VALUES "
                + ", ".join(f"({i}, 'g{i % 3}', NULL)" for i in range(30))
            )
            sql = "SELECT g, COUNT(*) FROM u GROUP BY g"
            rows, node = run_sql(database, f"{sql} OPTION (MAXDOP 2)")
            assert rows == database.query(f"{sql} OPTION (MAXDOP 1)")
            assert node.stats.mode == "serial"
            assert "UDT columns" in node.stats.fallback_reason
            assert (
                f"note: exchange will run serially — "
                f"{node.stats.fallback_reason}"
            ) in database.explain(f"EXPLAIN {sql} OPTION (MAXDOP 2)")

    def test_workers_dmv_populates_after_parallel_query(self, db):
        db.execute("SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 2)")
        rows = db.query(
            "SELECT worker_id, state, tasks_completed FROM sys_dm_os_workers"
        )
        assert rows
        assert all(state == "running" for _w, state, _t in rows)
        assert sum(tasks for _w, _s, tasks in rows) > 0

    def test_query_stats_record_last_dop(self, db):
        db.execute("SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 3)")
        rows = db.query(
            "SELECT query_text, last_dop FROM sys_dm_exec_query_stats"
        )
        from repro.engine.querystore import normalize_statement

        by_text = dict(rows)
        key = normalize_statement(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 3)"
        )
        assert by_text[key] == 3

    def test_columnstore_scan_offloads_with_predicates(self):
        from repro.engine import Database

        with Database() as database:
            database.execute(
                "CREATE TABLE cs (g VARCHAR(5), v INT) "
                "WITH (STORAGE = COLUMN)"
            )
            database.execute(
                "INSERT INTO cs VALUES "
                + ", ".join(f"('g{i % 3}', {i})" for i in range(1200))
            )
            plan = database.plan(
                "SELECT g, SUM(v) FROM cs WHERE v >= 600 "
                "GROUP BY g OPTION (MAXDOP 4)"
            )
            from repro.engine.executor import collect_rows

            rows = collect_rows(plan)
            assert_ran_on_workers(exchange_node(plan))
            serial = database.execute(
                "SELECT g, SUM(v) FROM cs WHERE v >= 600 "
                "GROUP BY g OPTION (MAXDOP 1)"
            )
            assert list(rows) == list(serial.rows)

    def test_filter_error_is_the_serial_error(self, db):
        from repro.engine.errors import EngineError

        def explode(value):
            if value == 1234:
                raise ValueError("row 1234 is cursed")
            return value

        db.register_scalar("Explode", explode)
        sql = "SELECT g, COUNT(*) FROM s WHERE Explode(v) >= 0 GROUP BY g"
        errors = []
        for dop in (1, 2):
            with pytest.raises(Exception) as raised:
                db.query(f"{sql} OPTION (MAXDOP {dop})")
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]
        assert "row 1234 is cursed" in errors[0][1]
        # the worker reported it, the statement fell back, the serial
        # run raised it: the pool is still there for the next statement
        rows, node = run_sql(
            db, "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 2)"
        )
        assert_ran_on_workers(node)


# -- differential: parallel == serial, byte for byte ---------------------------

ROWS = 3000

#: the plan shapes the exchange describes to its workers
SHAPES = {
    "filter over clustered seek": (
        "SELECT seq, COUNT(*) FROM r WHERE lane = 1 "
        "AND CHARINDEX('N', seq) = 0 GROUP BY seq"
    ),
    "range over clustered seek": (
        "SELECT seq, COUNT(*) FROM r WHERE lane = 2 AND id > 101 "
        "AND id <= 2501 GROUP BY seq"
    ),
    "bare scan": "SELECT seq, COUNT(*), SUM(n), MIN(n) FROM r GROUP BY seq",
    "pushed predicates": (
        "SELECT seq, COUNT(*), MAX(n) FROM r WHERE n >= 700 AND n < 2900 "
        "GROUP BY seq"
    ),
    "computed group key": "SELECT n % 7, COUNT(*), SUM(n) FROM r GROUP BY n % 7",
    "expression aggregate argument": (
        "SELECT seq, MAX(n * 2 + 1), COUNT(LEN(seq) + n) FROM r GROUP BY seq"
    ),
    "multi-column key, distinct": (
        "SELECT lane, seq, COUNT(DISTINCT n % 5) FROM r GROUP BY lane, seq"
    ),
}


def _load_reads(database, storage, rows=ROWS):
    suffix = (
        " WITH (STORAGE = COLUMN, SEGMENT_ROWS = 512)"
        if storage == "column"
        else ""
    )
    database.execute(
        "CREATE TABLE r (lane INT, id INT, seq VARCHAR(8), n INT, "
        f"PRIMARY KEY (lane, id)){suffix}"
    )
    bases = "ACGTN"
    database.table("r").insert_many(
        [
            (
                1 + i % 2,
                i,
                "".join(bases[(i // k) % 5] for k in (1, 5, 25))
                if i % 11 else "ACG",
                i,
            )
            for i in range(rows)
        ]
    )
    # a per-statement boundary: the column store keeps its open tail
    database.table("r").finish_bulk_load(force=False)


@pytest.fixture(scope="module", params=["heap", "column"])
def reads_db(request):
    from repro.engine import Database

    with Database() as database:
        _load_reads(database, request.param)
        if request.param == "column":
            store = database.table("r").store
            assert store.segments and store.tail  # sealed + tail
        yield database


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("plan_cache", ["ON", "OFF"])
    @pytest.mark.parametrize("dop", [2, 4])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rows_identical_and_nothing_shipped(
        self, reads_db, shape, dop, plan_cache
    ):
        reads_db.execute(f"SET PLAN_CACHE {plan_cache}")
        try:
            sql = SHAPES[shape]
            serial = reads_db.query(f"{sql} OPTION (MAXDOP 1)")
            assert serial, "an empty result defeats the test"
            for _ in range(2):  # the second run is the cache's hit path
                rows, node = run_sql(reads_db, f"{sql} OPTION (MAXDOP {dop})")
                # byte-identical, group order included
                assert repr(rows) == repr(serial)
                assert_ran_on_workers(node)
                assert len(node.stats.partition_agg_times) == dop
        finally:
            reads_db.execute("SET PLAN_CACHE ON")

    def test_shapes_are_the_ones_named(self, reads_db):
        column = reads_db.table("r").store.engine_name == "column"
        seek = reads_db.explain(
            "EXPLAIN " + SHAPES["filter over clustered seek"]
            + " OPTION (MAXDOP 2)"
        )
        pushed = reads_db.explain(
            "EXPLAIN " + SHAPES["pushed predicates"] + " OPTION (MAXDOP 2)"
        )
        if column:
            assert "Columnstore Index Scan [r]" in seek
            assert "pushed: " in pushed
        else:
            assert "Filter" in seek and "Clustered Index Seek [r]" in seek
        assert "note:" not in seek + pushed

    def test_parameter_values_travel_with_the_task(self, reads_db):
        """A cached plan re-run with other literals ships those."""
        template = (
            "SELECT seq, COUNT(*) FROM r WHERE lane = {lane} AND n >= {lo} "
            "GROUP BY seq OPTION (MAXDOP {dop})"
        )
        vectors = ((1, 0), (2, 1500), (1, 2990), (2, 10**6))
        for run, (lane, lo) in enumerate(vectors):
            hits = reads_db.plan_cache.hits
            serial = reads_db.query(template.format(lane=lane, lo=lo, dop=1))
            rows, node = run_sql(
                reads_db, template.format(lane=lane, lo=lo, dop=2)
            )
            if run:  # each DOP's statement re-ran its cached plan
                assert reads_db.plan_cache.hits == hits + 2
            assert repr(rows) == repr(serial)
            assert_ran_on_workers(node)

    @pytest.mark.parametrize(
        "where, expected_groups",
        [
            ("lane = 1 AND id < 40", True),    # one leaf run, four workers
            ("lane = 7", False),               # an empty key range
            ("lane = 1 AND id = 4", True),     # a point lookup
        ],
    )
    def test_ranges_smaller_than_the_dop(
        self, reads_db, where, expected_groups
    ):
        sql = f"SELECT seq, COUNT(*) FROM r WHERE {where} GROUP BY seq"
        serial = reads_db.query(f"{sql} OPTION (MAXDOP 1)")
        assert bool(serial) == expected_groups
        rows, node = run_sql(reads_db, f"{sql} OPTION (MAXDOP 4)")
        assert repr(rows) == repr(serial)
        assert_ran_on_workers(node)

    @pytest.mark.parametrize("storage", ["heap", "column"])
    def test_one_row_table(self, storage):
        from repro.engine import Database

        with Database() as database:
            _load_reads(database, storage, rows=1)
            sql = "SELECT seq, COUNT(*), SUM(n) FROM r GROUP BY seq"
            rows, node = run_sql(database, f"{sql} OPTION (MAXDOP 4)")
            assert rows == [("ACG", 1, 0)]
            assert_ran_on_workers(node)


class TestTruthfulCounters:
    """What the workers read and produced is accounted on the
    coordinator as if it had run the plan itself."""

    #: (not ``columns_read``: the serial column plan aggregates on the
    #: encoded vectors and gathers fewer columns than any row plan)
    KEYS = (
        "pages_read", "page_cache_misses", "scans",
        "segments_read", "segments_skipped",
    )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_nodes_and_io_match_the_serial_plan(self, reads_db, shape):
        from repro.engine.executor import collect_rows

        table = reads_db.table("r")
        observed = {}
        for dop in (1, 2):
            plan = reads_db.plan(f"{SHAPES[shape]} OPTION (MAXDOP {dop})")
            before = table.io_report()
            collect_rows(plan)
            delta = {
                key: table.io_report()[key] - before[key]
                for key in table.io_report()
            }
            aggregate = next(
                op for op in plan.nodes()
                if "Aggregate" in type(op).__name__
            )
            observed[dop] = (
                [
                    (type(op).__name__, op.rows_out, op.loops)
                    for op in aggregate.child.nodes()
                ],
                delta,
            )
        assert exchange_node(plan).stats.mode == "parallel scan"
        serial_nodes, serial_io = observed[1]
        parallel_nodes, parallel_io = observed[2]
        assert parallel_nodes == serial_nodes
        assert all(loops == 1 for _n, _r, loops in parallel_nodes)
        for key in self.KEYS:
            assert parallel_io.get(key, 0) == serial_io.get(key, 0), key
        if serial_io.get("index_seeks"):
            # each worker descends to the start of its own slice
            assert parallel_io["index_seeks"] == 2 * serial_io["index_seeks"]

    def test_explain_analyze_and_statistics_io(self, reads_db):
        sql = SHAPES["filter over clustered seek"]
        texts = {}
        for dop in (1, 2):
            text = reads_db.explain(
                f"EXPLAIN ANALYZE {sql} OPTION (MAXDOP {dop})"
            )
            texts[dop] = [
                line.split("actual rows=")[1].split(",")[0]
                for line in text.splitlines()
                if "actual rows=" in line
                and ("Filter" in line or "Seek" in line or "Scan [" in line)
            ]
        assert texts[1] and texts[2] == texts[1]
        messages = {}
        reads_db.execute("SET STATISTICS IO ON")
        try:
            for dop in (1, 2):
                reads_db.execute(f"{sql} OPTION (MAXDOP {dop})")
                (messages[dop],) = [
                    m for m in reads_db.messages if "logical reads" in m
                ]
        finally:
            reads_db.execute("SET STATISTICS IO OFF")
        if "Seek" in reads_db.explain(f"EXPLAIN {sql}"):
            # the same pages; the second worker's own descent to the
            # start of its slice is read, and so is reported
            depth = reads_db.table("r")._pk_index.depth()
            reads = int(messages[1].split("logical reads ")[1].split(",")[0])
            messages[1] = messages[1].replace(
                f"logical reads {reads}", f"logical reads {reads + depth}"
            )
        assert messages[2] == messages[1]


class TestStaleness:
    """A worker holds the database as of its fork; the pool re-forks
    when that is not the database the statement must see."""

    SQL = "SELECT g, COUNT(*), SUM(v) FROM t WHERE v >= 0 GROUP BY g"

    @pytest.fixture
    def db(self):
        from repro.engine import Database

        with Database() as database:
            database.execute("CREATE TABLE t (id INT PRIMARY KEY, g VARCHAR(5), v INT)")
            database.table("t").insert_many(
                [(i, f"g{i % 3}", i) for i in range(600)]
            )
            # the first parallel statement forks the workers
            _rows, node = run_sql(database, f"{self.SQL} OPTION (MAXDOP 2)")
            assert_ran_on_workers(node)
            yield database

    def _pids(self, db):
        return {pid for pid, in db.query("SELECT pid FROM sys_dm_os_workers")}

    def _assert_sees(self, db, sql=None):
        sql = sql or self.SQL
        serial = db.query(f"{sql} OPTION (MAXDOP 1)")
        rows, node = run_sql(db, f"{sql} OPTION (MAXDOP 2)")
        assert repr(rows) == repr(serial)
        assert_ran_on_workers(node)
        return rows

    def test_unchanged_database_keeps_its_workers(self, db):
        pids = self._pids(db)
        self._assert_sees(db)
        db.query("SELECT COUNT(*) FROM t")  # reads move nothing
        self._assert_sees(db)
        assert self._pids(db) == pids

    CHANGES = {
        "insert": lambda db: db.execute("INSERT INTO t VALUES (9000, 'new', 5)"),
        "update": lambda db: db.execute("UPDATE t SET v = v + 1000 WHERE g = 'g1'"),
        "delete": lambda db: db.execute("DELETE FROM t WHERE g = 'g2'"),
        "insert_many": lambda db: db.table("t").insert_many(
            [(9000 + i, "bulk", i) for i in range(50)]
        ),
    }

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_row_changes_are_seen(self, db, change):
        before = self._assert_sees(db)
        pids = self._pids(db)
        self.CHANGES[change](db)
        after = self._assert_sees(db)
        assert after != before
        assert not self._pids(db) & pids  # fresh forks, all of them

    def test_finish_bulk_load_is_seen(self):
        """Sealing the tail moves rows between the units the workers
        slice by: forks from before and after it must never mix."""
        from repro.engine import Database

        with Database() as database:
            _load_reads(database, "column")
            sql = SHAPES["bare scan"]
            _rows, node = run_sql(database, f"{sql} OPTION (MAXDOP 2)")
            assert_ran_on_workers(node)
            store = database.table("r").store
            cookie, segments = store.data_cookie(), len(store.segments)
            database.table("r").finish_bulk_load()
            assert len(store.segments) == segments + 1 and not store.tail
            assert store.data_cookie() != cookie
            serial = database.query(f"{sql} OPTION (MAXDOP 1)")
            # four workers now, all forked after the seal: the two from
            # before it are gone, not topped up
            rows, node = run_sql(database, f"{sql} OPTION (MAXDOP 4)")
            assert repr(rows) == repr(serial)
            assert_ran_on_workers(node)

    def test_created_and_recreated_tables_are_seen(self, db):
        sql = "SELECT g, COUNT(*), SUM(v) FROM fresh GROUP BY g"
        for generation in (1, 2):
            db.execute("CREATE TABLE fresh (g VARCHAR(5), v INT)")
            db.table("fresh").insert_many(
                [(f"x{i % 4}", i * generation) for i in range(100 * generation)]
            )
            rows = self._assert_sees(db, sql)
            assert sum(count for _g, count, _s in rows) == 100 * generation
            db.execute("DROP TABLE fresh")

    def test_registered_function_is_seen(self, db):
        pids = self._pids(db)
        db.register_scalar("Tripled", lambda value: value * 3)
        rows = self._assert_sees(
            db,
            "SELECT g, COUNT(*) FROM t WHERE Tripled(v) >= 900 GROUP BY g",
        )
        assert sum(count for _g, count in rows) == 300
        assert not self._pids(db) & pids

    def test_forged_stale_cookie_fails_in_the_worker(self, db, monkeypatch):
        from repro.engine.executor import parallel

        real = parallel.build_fragment

        def forged(*args):
            fragment = real(*args)
            identity, version = fragment.cookie
            return fragment._replace(cookie=(identity, version - 1))

        monkeypatch.setattr(parallel, "build_fragment", forged)
        serial = db.query(f"{self.SQL} OPTION (MAXDOP 1)")
        rows, node = run_sql(db, f"{self.SQL} OPTION (MAXDOP 2)")
        # never a wrong answer: the worker refuses, the statement is serial
        assert repr(rows) == repr(serial)
        assert node.stats.mode == "serial"
        assert "stale" in node.stats.fallback_reason
        monkeypatch.undo()
        self._assert_sees(db)
