"""The observability layer: counters, the DMV-style system views (the
per-query ones are renderings of the Query Store), SET STATISTICS
TIME/IO, and the Prometheus text."""

import operator
import sys
from pathlib import Path

import pytest

from repro.core import queries
from repro.core.warehouse import GenomicsWarehouse
from repro.engine import Database
from repro.engine import database as database_module
from repro.engine.errors import BindError, ExecutionError
from repro.engine.executor import ParallelHashAggregate, PhysicalOperator
from repro.engine.metrics import Counters
from repro.engine.querystore import normalize_statement
from repro.engine.table import Table
from repro.engine.tracing import current_trace

from .lookup_shapes import SHAPES, build_lookup_db, lookup_sql


class TestCounters:
    def test_missing_key_reads_zero(self):
        counters = Counters()
        assert counters["anything"] == 0
        assert "anything" not in counters  # reading must not materialise

    def test_incr(self):
        counters = Counters()
        counters.incr("pages_read")
        counters.incr("pages_read", 4)
        assert counters["pages_read"] == 5

    def test_merge_with_prefix(self):
        counters = Counters({"pages_read": 2})
        counters.merge({"seeks": 3, "node_visits": 7}, prefix="index_")
        assert counters["index_seeks"] == 3
        assert counters["index_node_visits"] == 7
        assert counters["pages_read"] == 2

    def test_snapshot_is_independent(self):
        counters = Counters({"a": 1})
        snap = counters.snapshot()
        counters.incr("a")
        assert snap["a"] == 1

    def test_delta_drops_zero_entries(self):
        before = Counters({"a": 1, "b": 5})
        after = Counters({"a": 3, "b": 5, "c": 2})
        delta = Counters.delta(after, before)
        assert delta == {"a": 2, "c": 2}


@pytest.fixture
def db():
    with Database() as database:
        database.execute(
            """
            CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(5));
            INSERT INTO t VALUES (1, 'a'), (2, 'a'), (3, 'b');
            """
        )
        yield database


class TestSystemViews:
    def test_query_stats_view(self, db):
        db.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        rows = db.query(
            "SELECT query_text, statement_kind, execution_count, total_rows"
            " FROM sys_dm_exec_query_stats"
        )
        by_text = {r[0]: r for r in rows}
        stats = by_text[
            normalize_statement("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        ]
        assert stats[1] == "SELECT"
        assert stats[2] == 1
        assert stats[3] == 2
        # the INSERT from the fixture is retained too
        assert any(kind == "INSERT" for _q, kind, _n, _r in rows)

    def test_index_stats_view(self, db):
        db.query("SELECT id FROM t WHERE id = 2")
        rows = db.query(
            "SELECT table_name, index_name, index_type, entry_count, seeks"
            " FROM sys_dm_db_index_stats"
        )
        (row,) = [r for r in rows if r[0] == "t"]
        assert row[1] == "PK_t"
        assert row[2] == "CLUSTERED"
        assert row[3] == 3
        assert row[4] >= 1  # at least the point lookup

    def test_io_stats_view(self, db):
        list(db.table("t").scan())
        io = dict(db.query("SELECT counter, value FROM sys_dm_io_stats"))
        assert io["rows_inserted"] == 3
        assert io["pages_written"] >= 1
        assert io["scans"] >= 1

    def test_io_stats_mixed_engines_no_counter_collision(self, db):
        # regression: heap PAGE compression and columnstore encoding once
        # shared compression_bytes_in/out, so a mixed-engine database
        # summed two unrelated ratios into one sys_dm_io_stats row
        db.execute(
            "CREATE TABLE ct (id INT, v INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"
        )
        db.execute(
            "INSERT INTO ct VALUES (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)"
        )
        db.query("SELECT COUNT(*) FROM ct WHERE id > 2")
        io = dict(db.query("SELECT counter, value FROM sys_dm_io_stats"))
        # columnstore counters live in their own namespace...
        assert io["segments_written"] >= 1
        assert io["segment_bytes_in"] > 0
        assert io["segment_bytes_out"] > 0
        assert io["segments_read"] >= 1
        # ...and never leak into the heap's page/compression counters
        assert io.get("compression_bytes_in", 0) == 0
        heap_io = db.table("t").io_report()
        column_io = db.table("ct").io_report()
        assert "segments_written" not in heap_io
        assert "pages_written" not in column_io

    def test_query_stats_view_reports_segment_pruning(self, db):
        db.execute(
            "CREATE TABLE cq (id INT) "
            "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 4)"
        )
        db.execute(
            "INSERT INTO cq VALUES (1), (2), (3), (4), (5), (6), (7), (8)"
        )
        db.query("SELECT COUNT(*) FROM cq WHERE id > 6")
        rows = db.query(
            "SELECT query_text, total_segments_read, total_segments_skipped "
            "FROM sys_dm_exec_query_stats WHERE total_segments_skipped > 0"
        )
        assert rows
        assert rows[0][0] == normalize_statement(
            "SELECT COUNT(*) FROM cq WHERE id > 6"
        )

    def test_views_are_read_only(self, db):
        with pytest.raises(BindError):
            db.execute("INSERT INTO sys_dm_io_stats VALUES ('x', 1)")
        with pytest.raises(BindError):
            db.execute("DELETE FROM sys_dm_exec_query_stats")

    def test_views_hidden_from_table_listing(self, db):
        assert "sys_dm_io_stats" not in db.catalog.table_names()
        assert db.catalog.has_table("sys_dm_io_stats")

    def test_source_sql_split_and_normalized_per_statement(self, db):
        db.execute(
            "SELECT COUNT(*) FROM t; SELECT grp FROM t WHERE id = 1"
        )
        texts = [q.query_text for q in db.query_store.queries()]
        assert normalize_statement("SELECT COUNT(*) FROM t") in texts
        assert normalize_statement("SELECT grp FROM t WHERE id = 1") in texts


class TestSetStatistics:
    def test_statistics_io_messages(self, db):
        db.execute("SET STATISTICS IO ON")
        db.query("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert any(
            m.startswith("Table 't'. Scan count 1, logical reads ")
            for m in db.messages
        )
        db.execute("SET STATISTICS IO OFF")
        db.query("SELECT COUNT(*) FROM t")
        assert db.messages == []

    def test_statistics_time_messages(self, db):
        db.execute("SET STATISTICS TIME ON")
        db.query("SELECT COUNT(*) FROM t")
        assert any(
            m.startswith("Execution Times: elapsed time = ")
            for m in db.messages
        )

    def test_set_statistics_rejects_unknown_option(self, db):
        from repro.engine.errors import SqlSyntaxError

        valid = "STATISTICS TIME, STATISTICS IO, PLAN_VERIFY, PLAN_CACHE"
        with pytest.raises(SqlSyntaxError, match=valid):
            db.execute("SET STATISTICS PROFILE ON")
        with pytest.raises(SqlSyntaxError, match=valid):
            db.execute("SET NOCOUNT ON")


class TestExplainAnalyze:
    def test_reports_time_and_loops(self, db):
        text = db.explain(
            "EXPLAIN ANALYZE SELECT grp, COUNT(*) FROM t GROUP BY grp"
        )
        assert "actual rows=2" in text
        assert "time=" in text
        assert "loops=1" in text

    def test_plain_explain_has_no_actuals(self, db):
        text = db.explain("SELECT grp, COUNT(*) FROM t GROUP BY grp")
        assert "actual rows" not in text
        assert "time=" not in text

    def test_loops_counted_on_rescanned_inner(self, db):
        db.execute(
            """
            CREATE TABLE u (uid INT PRIMARY KEY, grp VARCHAR(5));
            INSERT INTO u VALUES (10, 'a'), (11, 'b'), (12, 'b');
            """
        )
        op = db.plan(
            "SELECT id, uid FROM t JOIN u ON (t.grp = u.grp)"
        )
        op.enable_timing()
        rows = list(op)
        assert len(rows) == 4  # a:2*1 + b:1*2
        text = op.explain(analyze=True)
        assert "actual rows=" in text
        # every node accounts for exactly the rows it emitted, summed
        # across loops
        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        assert [(node.rows_out, node.loops) for node in walk(op)] == [
            (4, 1), (4, 1), (3, 1), (3, 1)
        ]

    def test_untimed_execution_stays_cold(self, db):
        op = db.plan("SELECT COUNT(*) FROM t")
        list(op)
        assert op.rows_out == 1
        assert op.elapsed == 0.0  # the timed path is opt-in


class TestPrometheus:
    def test_exposition_text(self, db):
        db.query("SELECT COUNT(*) FROM t")
        text = db.metrics_prometheus()
        assert "# TYPE repro_engine_query_executions_total counter" in text
        label = normalize_statement("SELECT COUNT(*) FROM t")
        assert (
            f'repro_engine_query_executions_total{{query="{label}"}} 1'
            in text
        )
        assert 'repro_engine_io_total{counter="rows_inserted"} 3' in text
        assert 'repro_engine_plan_cache_total{event="misses"} 1' in text


class TestOneStatStore:
    """``sys_dm_exec_query_stats`` and the per-query Prometheus series
    hold nothing of their own: they are the Query Store's runtime rows
    rolled up, re-derivable from the runtime view by SQL."""

    ROLLUP = (
        "SELECT q.query_text, q.statement_kind, SUM(r.executions), "
        "SUM(r.total_elapsed_ms), SUM(r.total_rows), "
        "SUM(r.total_logical_reads), SUM(r.total_pages_written), "
        "SUM(r.total_batch_reads), SUM(r.total_segments_read), "
        "SUM(r.total_segments_skipped) "
        "FROM sys_dm_query_store_runtime_stats r "
        "JOIN sys_dm_query_store_query q ON (r.query_id = q.query_id) "
        "GROUP BY q.query_id, q.query_text, q.statement_kind"
    )

    @pytest.fixture
    def worked(self):
        with Database() as db:
            db.execute("CREATE TABLE ev (e_id INT PRIMARY KEY, g INT, v INT)")
            db.execute(
                "INSERT INTO ev VALUES "
                + ", ".join(f"({i}, {i % 4}, {i * 3 % 51})" for i in range(200))
            )
            db.execute(
                "CREATE TABLE cs (id INT, v INT) "
                "WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 16)"
            )
            db.execute(
                "INSERT INTO cs VALUES "
                + ", ".join(f"({i}, {i % 5})" for i in range(64))
            )
            hits_before = db.plan_cache.hits
            for key in (3, 4, 5):  # miss, parsed hit, raw-text hit
                db.query(f"SELECT v FROM ev WHERE e_id = {key}")
            assert db.plan_cache.hits == hits_before + 2
            db.execute("UPDATE ev SET v = v + 1 WHERE g = 2")
            db.execute("EXPLAIN ANALYZE SELECT g, COUNT(*) FROM ev GROUP BY g")
            db.execute("EXPLAIN SELECT g FROM ev WHERE v = 11")
            db.query("SELECT g, COUNT(*) FROM ev GROUP BY g OPTION (MAXDOP 2)")
            db.query("SELECT COUNT(*) FROM cs WHERE id > 40")
            # a second plan (scan, then seek) for one query
            db.query("SELECT e_id FROM ev WHERE v = 11")
            db.execute("CREATE INDEX ix_v ON ev (v)")
            db.query("SELECT e_id FROM ev WHERE v = 12")
            yield db

    def test_query_stats_is_the_runtime_view_rolled_up(self, worked):
        db = worked
        stats = db.query("SELECT * FROM sys_dm_exec_query_stats")
        derived = {row[0]: row for row in db.query(self.ROLLUP)}
        runtime = db.query("SELECT * FROM sys_dm_query_store_runtime_stats")
        query_ids = {
            text: query_id
            for query_id, text in db.query(
                "SELECT query_id, query_text FROM sys_dm_query_store_query"
            )
        }
        assert len(stats) >= 11
        for row in stats:
            (text, kind, count, total_ms, avg_ms, last_ms, rows, reads,
             written, batch, seg_read, seg_skipped, last_dop) = row
            (_t, d_kind, d_count, d_total_ms, d_rows, d_reads, d_written,
             d_batch, d_seg_read, d_seg_skipped) = derived[text]
            assert (kind, count, rows, reads, written, batch, seg_read,
                    seg_skipped) == (d_kind, d_count, d_rows, d_reads,
                                     d_written, d_batch, d_seg_read,
                                     d_seg_skipped)
            # per-row rounding to 1 µs is the only slack
            assert total_ms == pytest.approx(d_total_ms, abs=0.002 * count)
            assert avg_ms == pytest.approx(total_ms / count, abs=0.001)
            # last_* come from the query's most recently recorded row
            mine = [r for r in runtime if r[0] == query_ids[text]]
            assert (last_ms, last_dop) == (mine[-1][7], mine[-1][15])
        by_text = {row[0]: row for row in stats}
        lookup = by_text["SELECT v FROM ev WHERE e_id = ?"]
        assert lookup[2] == 3  # miss + parsed hit + raw-text hit
        assert by_text[normalize_statement(
            "INSERT INTO cs VALUES "
            + ", ".join(f"({i}, {i % 5})" for i in range(64))
        )][6] == 64
        assert any(row[8] > 0 for row in stats)  # pages written surfaced
        assert by_text[normalize_statement(
            "SELECT g, COUNT(*) FROM ev GROUP BY g OPTION (MAXDOP 2)"
        )][12] == 2
        assert by_text["SELECT COUNT ( * ) FROM cs WHERE id > ?"][11] > 0
        two_plans = query_ids["SELECT e_id FROM ev WHERE v = ?"]
        assert len({r[1] for r in runtime if r[0] == two_plans}) == 2
        assert by_text["SELECT e_id FROM ev WHERE v = ?"][2] == 2

    def test_bare_explain_is_recorded_nowhere(self, worked):
        db = worked
        bare = normalize_statement("EXPLAIN SELECT g FROM ev WHERE v = 11")
        analyzed = normalize_statement(
            "EXPLAIN ANALYZE SELECT g, COUNT(*) FROM ev GROUP BY g"
        )
        texts = [r[0] for r in db.query("SELECT * FROM sys_dm_exec_query_stats")]
        assert analyzed in texts
        assert bare not in texts
        assert db.query_store.find_query(bare) is None
        assert f'query="{bare}"' not in db.metrics_prometheus()

    def test_prometheus_carries_the_same_numbers(self, worked):
        db = worked
        text = db.metrics_prometheus()
        stats = db.query_store.query_stats_rows()
        assert stats
        for row in stats:
            label = row[0].replace("\\", "\\\\").replace('"', '\\"')
            for line in (
                f'repro_engine_query_executions_total{{query="{label}"}} '
                f"{row[2]}",
                f'repro_engine_query_elapsed_seconds_total{{query="{label}"}} '
                f"{row[3] / 1000.0:.6f}",
                f'repro_engine_query_last_dop{{query="{label}"}} {row[12]}',
                f'repro_engine_query_segments_total{{query="{label}",'
                f'outcome="read"}} {row[10]}',
                f'repro_engine_query_segments_total{{query="{label}",'
                f'outcome="skipped"}} {row[11]}',
            ):
                assert line in text.splitlines()

    def test_disabled_store_silences_both_views(self, worked):
        db = worked
        db.query_store.enabled = False
        db.query("SELECT MAX(v) FROM ev")
        db.query_store.enabled = True
        texts = [r[0] for r in db.query("SELECT * FROM sys_dm_exec_query_stats")]
        assert normalize_statement("SELECT MAX(v) FROM ev") not in texts

    def test_reloaded_history_shows_in_both_views(self, tmp_path):
        with Database(data_dir=tmp_path) as db:
            db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.query("SELECT a FROM t WHERE a > 0")
        with Database(data_dir=tmp_path) as db:
            rows = db.query(
                "SELECT query_text, execution_count, total_rows "
                "FROM sys_dm_exec_query_stats"
            )
            assert ("SELECT a FROM t WHERE a > ?", 1, 2) in rows
            assert (
                'repro_engine_query_executions_total'
                '{query="SELECT a FROM t WHERE a > ?"} 1'
            ) in db.metrics_prometheus()


class TestOneSnapshotPair:
    def test_one_delta_and_one_store_call_per_statement(
        self, db, monkeypatch
    ):
        ledger, record = db.catalog.io_ledger, db.query_store.record
        end = ledger.end
        seen = {"deltas": [], "recorded": []}

        def spying_end():
            seen["deltas"].append(end())
            return seen["deltas"][-1]

        def spying_record(*args, **kwargs):
            seen["recorded"].append(kwargs["io"])
            return record(*args, **kwargs)

        monkeypatch.setattr(ledger, "end", spying_end)
        monkeypatch.setattr(db.query_store, "record", spying_record)
        assert not hasattr(db, "metrics")
        for knob in ("OFF", "ON"):
            db.execute(f"SET STATISTICS IO {knob}")
            for sql in (
                "SELECT grp, COUNT(*) FROM t GROUP BY grp",
                "INSERT INTO t VALUES (9, 'z')",
                "DELETE FROM t WHERE id = 9",
            ):
                seen["deltas"].clear()
                seen["recorded"].clear()
                db.execute(sql)
                # one scope closed, and what the store was handed is
                # that scope's delta (one source here, so it is the sum)
                (by_source,) = seen["deltas"]
                assert seen["recorded"] == [by_source["t"]], (knob, sql)
        (message,) = [m for m in db.messages if m.startswith("Table 't'.")]
        delta = by_source["t"]
        reads = delta["pages_read"] + delta["index_node_visits"]
        assert f"Scan count {delta['scans']}, logical reads {reads}," in message

    def test_statistics_io_and_the_store_read_the_same_delta(self, db):
        db.execute("SET STATISTICS IO ON")
        db.query("SELECT id FROM t WHERE id = 2")
        (message,) = [m for m in db.messages if m.startswith("Table 't'.")]
        reads = db.query_store.find_query(
            "SELECT id FROM t WHERE id = 2"
        ).runtime
        (stats,) = reads.values()
        assert f"logical reads {stats.total_logical_reads}," in message


# ---------------------------------------------------------------------------
# what got cheaper stays exact
# ---------------------------------------------------------------------------


def full_io_snapshot(db):
    """Every IO counter of the database, read the expensive way."""
    snapshot = {t.schema.name: t.io_report() for t in db.catalog.tables()}
    snapshot[None] = Counters()
    snapshot[None].merge(db.filestream.io, prefix="filestream_")
    return snapshot


@pytest.fixture
def audited(monkeypatch):
    """``audited(db)`` checks every statement scope of ``db`` against
    the difference of two whole-catalog snapshots, source by source,
    and returns the list ``(nesting depth, delta by source)`` grows in,
    in the order the scopes close."""

    def arm(db):
        ledger = db.catalog.io_ledger
        begin, end = ledger.begin, ledger.end
        open_scopes, closed = [], []

        def checked_begin():
            open_scopes.append(full_io_snapshot(db))
            begin()

        def checked_end():
            by_source = end()
            before, after = open_scopes.pop(), full_io_snapshot(db)
            expected = {
                source: Counters.delta(report, before.get(source, {}))
                for source, report in after.items()
            }
            assert by_source == {s: d for s, d in expected.items() if d}
            closed.append((len(open_scopes), by_source))
            return by_source

        monkeypatch.setattr(ledger, "begin", checked_begin)
        monkeypatch.setattr(ledger, "end", checked_end)
        return closed

    return arm


@pytest.fixture
def lookups():
    with build_lookup_db() as database:
        yield database


@pytest.fixture
def hybrid_warehouse(reference, genes, dge_reads):
    with GenomicsWarehouse(chunk_size=4096) as warehouse:
        warehouse.import_lane_hybrid(1, 1, dge_reads)
        warehouse.import_lane_relational(1, 1, 1, dge_reads)
        yield warehouse


def add_refill_procedure(db):
    """``SELECT Refill(x)`` runs a procedure of two statements."""

    def refill(database):
        database.execute("INSERT INTO org VALUES (7, 'fly')")
        return len(database.query("SELECT oname FROM org WHERE o_id = 7"))

    db.procedures.register_compiled("refill", refill)
    db.register_scalar("Refill", lambda x: db.call_procedure("refill") + x)


POINT = "SELECT g_id, hits FROM probe WHERE p_id = 77"
JOIN4 = lookup_sql(3, 78)
INSERT = "INSERT INTO gene VALUES (100, 'g100', 1), (101, 'g101', 2)"
DELETE = "DELETE FROM gene WHERE g_id >= 100"
NESTED = "SELECT Refill(f_id) FROM fam WHERE f_id = 2"
TVF_COUNT = "SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')"


class TestStatementIoDelta:
    """The touched-set delta is the difference of two full snapshots."""

    def test_lookups_and_dml(self, lookups, audited):
        closed = audited(lookups)
        for sql in (POINT, POINT, JOIN4, JOIN4, INSERT, DELETE):
            lookups.execute(sql)
        assert [depth for depth, _delta in closed] == [0] * 6
        sources = [sorted(delta) for _depth, delta in closed]
        assert sources[0] == sources[1] == ["probe"]
        assert sources[2] == sources[3] == ["fam", "gene", "org", "probe"]
        assert sources[4] == sources[5] == ["gene"]
        assert closed[4][1]["gene"]["index_inserts"] == 2

    def test_io_outside_the_plans_tables(self, hybrid_warehouse, audited):
        db = hybrid_warehouse.db
        closed = audited(db)
        assert db.scalar(TVF_COUNT) == 1200
        ((_depth, delta),) = closed
        # neither the table nor the blob store is in the plan
        assert sorted(delta, key=str) == [None, "ShortReadFiles"]
        assert delta["ShortReadFiles"]["pages_read"] == 1
        assert delta[None]["filestream_chunk_reads"] > 1
        assert all(name.startswith("filestream_") for name in delta[None])

    def test_worker_reads_are_folded_in(self, hybrid_warehouse, audited):
        db = hybrid_warehouse.db
        serial = db.query(queries.query1_binning_sql(1, 1, 1, maxdop=1))
        closed = audited(db)
        rows = db.query(queries.query1_binning_sql(1, 1, 1, maxdop=2))
        assert rows == serial
        (exchange,) = [
            op
            for _path, op in db._last_select_plan.walk()
            if isinstance(op, ParallelHashAggregate)
        ]
        assert exchange.stats.mode == "parallel scan"
        assert not exchange.stats.fallback_reason
        ((_depth, delta),) = closed
        assert list(delta) == ["Read"]
        assert delta["Read"]["pages_read"] > 0

    def test_nested_statements(self, lookups, audited):
        add_refill_procedure(lookups)
        closed = audited(lookups)
        assert lookups.query(NESTED) == [(3,)]
        (d1, insert), (d2, select), (d0, outer) = closed
        assert (d1, d2, d0) == (1, 1, 0)
        assert list(insert) == list(select) == ["org"]
        # the outer statement reads fam itself and org only through them
        both = Counters(insert["org"])
        both.merge(select["org"])
        assert outer["org"] == both
        assert outer["fam"]["index_seeks"] == 1


class TestNestedStatementPlans:
    """A statement a UDF runs inside another records its own plan, and
    the caller records the plan it ran itself (or none)."""

    def test_each_statement_records_its_own_plan(self, lookups):
        db = lookups
        add_refill_procedure(db)
        store = db.query_store

        def plan_texts(sql):
            query = store.find_query(sql)
            return [plan.plan_text for plan in store.plans_for(query.query_id)]

        assert db.query(NESTED) == [(3,)]
        (outer,) = plan_texts(NESTED)
        assert "[fam]" in outer and "[org]" not in outer
        (inner,) = plan_texts("SELECT oname FROM org WHERE o_id = 7")
        assert "[org]" in inner
        db.execute("DELETE FROM org WHERE o_id = 7")
        update = "UPDATE fam SET fname = 'f2' WHERE f_id = 2 AND Refill(f_id) > 0"
        assert db.execute(update) == 1
        assert plan_texts(update) == []  # a DML statement runs no plan


class TestFailedStatement:
    """A statement that raises mid-execution closes its IO scope and its
    trace like one that returns, on every path into the engine."""

    @staticmethod
    def assert_closed(db):
        assert len(db.catalog.io_ledger._frames) == 1
        assert current_trace() is None

    def test_parsed_raw_text_and_procedure_paths(
        self, lookups, audited, monkeypatch
    ):
        db = lookups
        assert db.query("SELECT hits / 7 FROM probe WHERE p_id = 77")

        def explode(database):
            database.query("SELECT hits / 0 FROM probe WHERE p_id = 5")

        db.procedures.register_compiled("explode", explode)
        db.register_scalar("Explode", lambda x: db.call_procedure("explode"))
        closed = audited(db)
        # parsed: a text the plan cache has never seen
        with pytest.raises(ExecutionError):
            db.query("SELECT hits / (hits - hits) FROM probe WHERE p_id = 3")
        self.assert_closed(db)
        # raw text: the registered shape, rebound, never parsed
        parse = database_module.parse_sql
        monkeypatch.setattr(database_module, "parse_sql", None)
        with pytest.raises(ExecutionError):
            db.query("SELECT hits / 0 FROM probe WHERE p_id = 78")
        monkeypatch.setattr(database_module, "parse_sql", parse)
        self.assert_closed(db)
        # a procedure's statement fails inside the outer statement
        with pytest.raises(ExecutionError):
            db.query("SELECT Explode(f_id) FROM fam WHERE f_id = 2")
        self.assert_closed(db)
        assert [depth for depth, _delta in closed] == [0, 0, 1, 0]
        # and the next statement's delta is still exact (audited)
        assert db.query(POINT)
        depth, delta = closed[-1]
        assert (depth, sorted(delta)) == (0, ["probe"])


class TestIoGolden:
    """SET STATISTICS IO messages and the Query Store IO columns, as the
    commit before the touched-set delta printed them."""

    @staticmethod
    def run(db, sql):
        db.execute(sql)
        return [m for m in db.messages if m.startswith("Table ")]

    @staticmethod
    def stored(db, sql):
        return [
            (
                r.total_logical_reads,
                r.total_pages_written,
                r.total_batch_reads,
                r.total_segments_read,
                r.total_segments_skipped,
            )
            for r in db.query_store.find_query(sql).runtime.values()
        ]

    def test_lookups_and_dml(self, lookups):
        db = lookups
        db.execute("SET STATISTICS IO ON")
        probe = (
            "Table 'probe'. Scan count 0, logical reads 3, "
            "page cache misses 0, batch reads 0."
        )
        # the join seeks each small table's clustered key once per
        # probe row instead of scanning it: one B+tree node visit and
        # one page fetch (no scan, no batch read) where a scan read its
        # one page as one batch
        small = (
            "Table '{}'. Scan count 0, logical reads 2, "
            "page cache misses 0, batch reads 0."
        )
        for _ in range(2):
            assert self.run(db, POINT) == [probe]
            assert self.run(db, JOIN4) == [
                small.format("org"),
                small.format("fam"),
                small.format("gene"),
                probe,
            ]
        assert self.stored(db, POINT) == [(6, 0, 0, 0, 0)]
        assert self.stored(db, JOIN4) == [(18, 0, 0, 0, 0)]
        assert self.run(db, INSERT) == [
            "Table 'gene'. Scan count 0, logical reads 0, "
            "page cache misses 0, batch reads 0."
        ]
        assert self.stored(db, INSERT) == [(0, 1, 0, 0, 0)]
        assert self.run(db, DELETE) == [
            "Table 'gene'. Scan count 1, logical reads 6, "
            "page cache misses 0, batch reads 0."
        ]
        assert self.stored(db, DELETE) == [(6, 0, 0, 0, 0)]

    def test_nested_statements(self, lookups):
        db = lookups
        add_refill_procedure(db)
        db.execute("SET STATISTICS IO ON")
        org = (
            "Table 'org'. Scan count 0, logical reads 2, "
            "page cache misses 0, batch reads 0."
        )
        # the inner SELECT's message, then the outer statement's two
        assert self.run(db, NESTED) == [
            org,
            org,
            "Table 'fam'. Scan count 0, logical reads 2, "
            "page cache misses 0, batch reads 0.",
        ]
        assert self.stored(db, NESTED) == [(4, 1, 0, 0, 0)]
        assert self.stored(db, "INSERT INTO org VALUES (7, 'fly')") == [
            (0, 1, 0, 0, 0)
        ]
        assert self.stored(db, "SELECT oname FROM org WHERE o_id = 7") == [
            (2, 0, 0, 0, 0)
        ]

    def test_warehouse(self, hybrid_warehouse):
        db = hybrid_warehouse.db
        db.execute("SET STATISTICS IO ON")
        query1 = queries.query1_binning_sql(1, 1, 1, maxdop=2)
        for _ in range(2):
            assert self.run(db, TVF_COUNT) == [
                "Table 'ShortReadFiles'. Scan count 1, logical reads 1, "
                "page cache misses 0, batch reads 0."
            ]
            assert self.run(db, query1) == [
                "Table 'Read'. Scan count 0, logical reads 40, "
                "page cache misses 0, batch reads 0."
            ]
        assert self.stored(db, TVF_COUNT) == [(2, 0, 0, 0, 0)]
        assert self.stored(db, query1) == [(80, 0, 0, 0, 0)]
        totals = dict(db.query("SELECT counter, value FROM sys_dm_io_stats"))
        assert totals["filestream_chunk_reads"] == 60
        assert totals["filestream_bytes_read"] == 238912
        assert totals["pages_read"] == 75
        assert totals["index_node_visits"] == 9


class TestHotStatementBookkeeping:
    """What a warm statement pays does not grow with the catalog, the
    plan, or the number of times it ran."""

    def test_nothing_scales_with_the_catalog_or_the_plan(
        self, lookups, monkeypatch
    ):
        db = lookups
        for i in range(40):
            db.execute(f"CREATE TABLE spare{i} (k INT PRIMARY KEY, v INT)")
        for shape in range(SHAPES):  # warm: compile, register the text
            db.query(lookup_sql(shape, 3))
            db.query(lookup_sql(shape, 4))
        calls = {"explain_node": 0, "io_report": 0}

        def spy(owner, name):
            method = vars(owner)[name]

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        pending = [PhysicalOperator]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "explain_node" in vars(cls):
                spy(cls, "explain_node")
        spy(Table, "io_report")
        hits = db.plan_cache.hits
        for shape in range(SHAPES):
            db.query(lookup_sql(shape, 9))
        assert db.plan_cache.hits == hits + SHAPES
        assert calls == {"explain_node": 0, "io_report": 0}

    #: Python calls into the engine one warm execution of each lookup
    #: shape makes, bookkeeping and plan together. A ceiling, not a
    #: figure: work may go, none may come back unnoticed.
    CALLS_PER_SHAPE = (66, 73, 107, 127, 125)

    def test_calls_per_warm_statement(self, lookups):
        db = lookups
        engine = str(Path(database_module.__file__).parent)
        for shape in range(SHAPES):  # warm: compile, register the text
            db.query(lookup_sql(shape, 3))
            db.query(lookup_sql(shape, 4))
        calls = []
        for shape in range(SHAPES):
            count = 0

            def profile(frame, event, _arg):
                nonlocal count
                if event == "call" and frame.f_code.co_filename.startswith(
                    engine
                ):
                    count += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                db.execute(lookup_sql(shape, 9))
            finally:
                sys.setprofile(previous)
            calls.append(count)
        assert all(map(operator.le, calls, self.CALLS_PER_SHAPE)), calls

    def test_a_cached_plan_holds_its_last_execution_only(self, lookups):
        db = lookups
        for shape in range(SHAPES):
            db.query(lookup_sql(shape, 3))
            plan = db._last_select_plan
            operators = (plan, *plan.facts.descendants)
            first = [(op.loops, op.rows_out) for op in operators]
            for p in range(1000):
                db.query(lookup_sql(shape, p % 500))
            db.query(lookup_sql(shape, 3))
            assert db._last_select_plan is plan
            assert [(op.loops, op.rows_out) for op in operators] == first
