"""The exchange operator: two worker tiers and the serial fallback."""

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
        assert stats.measured_speedup == 1.0

    def test_speedups_guard_zero_walls(self):
        from repro.engine.executor import ParallelStats

        stats = ParallelStats()
        assert stats.measured_speedup == 1.0

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

    def test_explain_mentions_exchange(self):
        op, _ = self.run_plan(ParallelHashAggregate, dop=4)
        label, _kids = op.explain_node()
        assert "Repartition Streams" in label
        assert "Gather Streams" in label
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


class TestRealWorkerExecution:
    """Exchange tiers that actually cross a process boundary."""

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

    def _exchange_node(self, op):
        if isinstance(op, ParallelHashAggregate):
            return op
        for child in op.children():
            found = self._exchange_node(child)
            if found is not None:
                return found
        return None

    def _run(self, db, sql):
        from repro.engine.executor import collect_rows

        plan = db.plan(sql)
        rows = collect_rows(plan)
        return rows, self._exchange_node(plan)

    def test_integer_aggregate_offloads_the_scan(self, db):
        rows, node = self._run(
            db,
            "SELECT g, SUM(v), COUNT(*) FROM s "
            "GROUP BY g OPTION (MAXDOP 4)",
        )
        assert node is not None
        assert node.stats.mode == "parallel scan"
        assert node.stats.measured_parallel_wall > 0
        assert node.stats.bytes_shipped > 0
        assert node.stats.bytes_returned > 0
        assert node.stats.worker_breakdown
        serial = db.execute(
            "SELECT g, SUM(v), COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        assert list(rows) == list(serial.rows)

    def test_float_sum_takes_the_row_shipping_tier(self, db):
        rows, node = self._run(
            db, "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert node.stats.mode == "parallel rows"
        serial = db.execute(
            "SELECT g, SUM(f) FROM s GROUP BY g OPTION (MAXDOP 1)"
        )
        # bit-identical: hash partitioning keeps each group's floats on
        # one worker in serial accumulation order
        assert list(rows) == list(serial.rows)

    def test_scan_offload_counts_child_rows_once(self, db):
        from repro.engine.executor import collect_rows

        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        collect_rows(plan)
        node = self._exchange_node(plan)
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
        node = self._exchange_node(plan)
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
        "rows blocker": (
            "SELECT v + 0, COUNT(*) FROM s GROUP BY v + 0", True
        ),
        "scan tier fails": ("SELECT g, SUM(v) FROM s GROUP BY g", False),
        "rows tier fails": ("SELECT g, SUM(f) FROM s GROUP BY g", False),
    }

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_serial_fallback_seam(self, db, monkeypatch, case):
        from repro.engine.executor import collect_rows
        from repro.engine.executor.exchange import choose_exchange_tier
        from repro.engine.workers import DISABLE_ENV, WorkerPoolError

        sql, known_at_plan_time = self.FALLBACKS[case]
        if case == "kill switch":
            monkeypatch.setenv(DISABLE_ENV, "1")
        plan = db.plan(f"{sql} OPTION (MAXDOP 4)")
        node = self._exchange_node(plan)
        if case == "no pool":
            node.pool = None
        elif case == "dop 1":
            node.dop = 1  # the planner itself never builds this shape
        verdict = choose_exchange_tier(
            node.pool, node.child, node.aggregates, node.group_indexes,
            node.dop,
        )
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
        assert self._exchange_node(serial_plan) is None
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
        # whichever way it fell back, the input ran exactly once
        for _path, op in plan.walk():
            assert op.loops == 1, op.node_label
        scan = list(plan.walk())[-1][1]
        assert scan.rows_out == 2000
        assert "loops=2" not in plan.explain(analyze=True)

    def test_set_max_dop_caps_hints(self, db):
        db.execute("SET MAX_DOP 1")
        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert self._exchange_node(plan) is None
        db.execute("SET MAX_DOP 0")
        plan = db.plan(
            "SELECT g, COUNT(*) FROM s GROUP BY g OPTION (MAXDOP 4)"
        )
        assert self._exchange_node(plan) is not None

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
            serial = database.execute(
                "SELECT g, SUM(v) FROM cs WHERE v >= 600 "
                "GROUP BY g OPTION (MAXDOP 1)"
            )
            assert list(rows) == list(serial.rows)
