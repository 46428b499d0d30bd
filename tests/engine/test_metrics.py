"""The observability layer: counters, the DMV-style system views (the
per-query ones are renderings of the Query Store), SET STATISTICS
TIME/IO, and the Prometheus text."""

import pytest

from repro.engine import Database
from repro.engine.errors import BindError
from repro.engine.metrics import Counters
from repro.engine.querystore import normalize_statement


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

        with pytest.raises(SqlSyntaxError):
            db.execute("SET STATISTICS PROFILE ON")


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

        for node in walk(op):
            assert node.rows_out == sum(node.loop_rows)
            assert node.loops == len(node.loop_rows)

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
    def test_two_io_snapshots_and_one_store_call_per_statement(
        self, db, monkeypatch
    ):
        calls = {"snapshot": 0, "record": 0}
        take_snapshot, record = db._io_snapshot, db.query_store.record

        def counting_snapshot():
            calls["snapshot"] += 1
            return take_snapshot()

        def counting_record(*args, **kwargs):
            calls["record"] += 1
            return record(*args, **kwargs)

        monkeypatch.setattr(db, "_io_snapshot", counting_snapshot)
        monkeypatch.setattr(db.query_store, "record", counting_record)
        assert not hasattr(db, "metrics")
        for knob in ("OFF", "ON"):
            db.execute(f"SET STATISTICS IO {knob}")
            for sql in (
                "SELECT grp, COUNT(*) FROM t GROUP BY grp",
                "INSERT INTO t VALUES (9, 'z')",
                "DELETE FROM t WHERE id = 9",
            ):
                calls.update(snapshot=0, record=0)
                db.execute(sql)
                assert calls == {"snapshot": 2, "record": 1}, (knob, sql)
        assert any(m.startswith("Table 't'.") for m in db.messages)

    def test_statistics_io_and_the_store_read_the_same_delta(self, db):
        db.execute("SET STATISTICS IO ON")
        db.query("SELECT id FROM t WHERE id = 2")
        (message,) = [m for m in db.messages if m.startswith("Table 't'.")]
        reads = db.query_store.find_query(
            "SELECT id FROM t WHERE id = 2"
        ).runtime
        (stats,) = reads.values()
        assert f"logical reads {stats.total_logical_reads}," in message
