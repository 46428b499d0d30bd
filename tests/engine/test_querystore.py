"""The Query Store: statement normalisation, plan interning, runtime
stats intervals, persistence, the DMVs, and the slow-query log."""

import json

import pytest

from repro.engine import Database
from repro.engine.errors import EngineError
from repro.engine.metrics import MetricsRegistry
from repro.engine.querystore import (
    QueryStore,
    normalize_statement,
    plan_signature,
)


@pytest.fixture
def db(tmp_path):
    with Database(data_dir=tmp_path / "db") as database:
        yield database


@pytest.fixture(params=["heap", "column"])
def events(request, db):
    suffix = (
        " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 64)"
        if request.param == "column"
        else ""
    )
    db.execute(
        "CREATE TABLE events (e_id INT PRIMARY KEY, g INT, v INT)" + suffix
    )
    values = ", ".join(f"({i}, {i % 4}, {i * 3 % 51})" for i in range(1, 201))
    db.execute(f"INSERT INTO events VALUES {values}")
    return db


class TestNormalization:
    def test_literals_become_placeholders(self):
        assert normalize_statement(
            "select v from t where g = 42 and name = 'ada'"
        ) == "SELECT v FROM t WHERE g = ? AND name = ?"

    def test_equivalent_statements_share_text(self):
        a = normalize_statement("SELECT v FROM t WHERE g = 1")
        b = normalize_statement("select   v from t\nwhere g = 999")
        assert a == b

    def test_unlexable_text_falls_back_to_whitespace_collapse(self):
        assert normalize_statement("not ~~ sql \x01 at all") != ""

    def test_keywords_uppercased_identifiers_untouched(self):
        text = normalize_statement("select MyCol from MyTable")
        assert text.startswith("SELECT")
        assert "MyCol" in text and "MyTable" in text


class TestQueryStore:
    def test_same_shape_different_literals_intern_once(self):
        store = QueryStore()
        store.record("SELECT v FROM t WHERE g = 1", "SELECT", 0.001, 1)
        store.record("SELECT v FROM t WHERE g = 2", "SELECT", 0.002, 1)
        assert len(store.queries()) == 1
        query = store.queries()[0]
        assert query.execution_count == 2

    def test_runtime_stats_accumulate(self):
        store = QueryStore()
        for elapsed, rows in [(0.010, 5), (0.020, 7)]:
            store.record(
                "SELECT v FROM t", "SELECT", elapsed, rows, now=1000.0
            )
        query = store.queries()[0]
        (stats,) = store.runtime_for(query.query_id)
        assert stats.executions == 2
        assert stats.total_rows == 12
        assert stats.last_rows == 7
        assert stats.total_elapsed == pytest.approx(0.030)

    def test_interval_bucketing(self):
        store = QueryStore(interval_seconds=60.0)
        store.record("SELECT v FROM t", "SELECT", 0.001, 1, now=30.0)
        store.record("SELECT v FROM t", "SELECT", 0.001, 1, now=90.0)
        query = store.queries()[0]
        intervals = store.runtime_for(query.query_id)
        assert len(intervals) == 2
        assert {s.executions for s in intervals} == {1}

    def test_eviction_cascades(self):
        store = QueryStore(retain=2)
        store.record("SELECT 1", "SELECT", 0.001, 1)
        store.record("SELECT a FROM t", "SELECT", 0.001, 1)
        store.record("SELECT b FROM u", "SELECT", 0.001, 1)
        assert len(store.queries()) == 2
        texts = {q.query_text for q in store.queries()}
        assert "SELECT ?" not in texts  # oldest evicted
        surviving = {q.query_id for q in store.queries()}
        for row in store.runtime_rows():
            assert row[0] in surviving

    def test_disabled_store_records_nothing(self):
        store = QueryStore()
        store.enabled = False
        store.record("SELECT 1", "SELECT", 0.001, 1)
        assert store.queries() == []

    def test_save_load_round_trip(self, tmp_path):
        store = QueryStore()
        store.record("SELECT v FROM t WHERE g = 7", "SELECT", 0.004, 3)
        store.record("SELECT v FROM t WHERE g = 8", "SELECT", 0.006, 2)
        path = tmp_path / "qs.json"
        store.save(path)
        loaded = QueryStore()
        loaded.load(path)
        assert loaded.to_dict() == store.to_dict()
        assert loaded.queries()[0].execution_count == 2
        # the on-disk form is plain JSON
        json.loads(path.read_text())

    def test_clear(self):
        store = QueryStore()
        store.record("SELECT 1", "SELECT", 0.001, 1)
        store.clear()
        assert store.queries() == []
        assert store.runtime_rows() == []


class TestDatabaseIntegration:
    def test_repeated_executions_accumulate_on_any_storage(self, events):
        for bound in (10, 20, 30):
            events.query(
                f"SELECT g, COUNT(*) FROM events WHERE v < {bound} GROUP BY g"
            )
        query = events.query_store.find_query(
            "SELECT g, COUNT(*) FROM events WHERE v < 10 GROUP BY g"
        )
        assert query is not None
        assert query.execution_count == 3
        stats = events.query_store.runtime_for(query.query_id)
        assert sum(s.executions for s in stats) == 3

    def test_runtime_stats_dmv_reports_est_vs_actual(self, events):
        sql = "SELECT g, COUNT(*) FROM events GROUP BY g"
        events.query(sql)
        events.query(sql)
        rows = events.query(
            "SELECT * FROM sys_dm_query_store_runtime_stats"
        )
        query = events.query_store.find_query(sql)
        mine = [r for r in rows if r[0] == query.query_id]
        assert mine
        row = mine[0]
        executions, last_est, last_actual = row[4], row[9], row[10]
        assert executions >= 2
        assert last_actual == 4  # four groups
        assert last_est >= 1  # planner produced an estimate

    def test_plan_dmv_lists_rendered_plan(self, events):
        events.query("SELECT COUNT(*) FROM events")
        rows = events.query("SELECT * FROM sys_dm_query_store_plan")
        assert rows
        plan_texts = [r[2] for r in rows]
        assert any("Scan" in text for text in plan_texts)

    def test_dop_recorded(self, events):
        events.query(
            "SELECT g, COUNT(*) FROM events GROUP BY g OPTION (MAXDOP 2)"
        )
        query = events.query_store.find_query(
            "SELECT g, COUNT(*) FROM events GROUP BY g OPTION (MAXDOP 2)"
        )
        (stats,) = events.query_store.runtime_for(query.query_id)
        assert stats.last_dop == 2

    def test_query_store_persists_across_reopen(self, tmp_path):
        data_dir = tmp_path / "persist"
        with Database(data_dir=data_dir) as db:
            db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.query("SELECT a FROM t WHERE a > 0")
        assert (data_dir / "querystore.json").exists()
        with Database(data_dir=data_dir) as db:
            query = db.query_store.find_query("SELECT a FROM t WHERE a > 5")
            assert query is not None
            assert query.execution_count == 1

    def _persisted(self, data_dir):
        with Database(data_dir=data_dir) as db:
            db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.query("SELECT a FROM t WHERE a > 0")
        return data_dir / "querystore.json"

    def test_truncated_store_starts_fresh_and_says_so(self, tmp_path):
        path = self._persisted(tmp_path / "truncated")
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with Database(data_dir=path.parent) as db:
            assert db.query_store.find_query("SELECT a FROM t WHERE a > 5") is None
            (message,) = db.messages
            assert str(path) in message
            assert "unreadable" in message

    def test_failed_checkpoint_leaves_the_old_file_intact(
        self, tmp_path, monkeypatch
    ):
        import os

        path = self._persisted(tmp_path / "crash")
        before = path.read_bytes()

        def crash(_src, _dst):
            raise OSError("simulated crash between write and rename")

        with Database(data_dir=path.parent) as db:
            db.execute("CREATE TABLE u (b INT PRIMARY KEY)")
            db.query("SELECT b FROM u")
            monkeypatch.setattr(os, "replace", crash)
            with pytest.raises(OSError):
                db.query_store.save(path)
            assert path.read_bytes() == before
        # close() hit the same failure and swallowed it; still intact
        assert path.read_bytes() == before
        monkeypatch.undo()
        with Database(data_dir=path.parent) as db:
            assert db.messages == []
            query = db.query_store.find_query("SELECT a FROM t WHERE a > 5")
            assert query is not None and query.execution_count == 1

    def test_in_memory_database_does_not_write_store(self):
        with Database() as db:
            db.execute("CREATE TABLE t (a INT PRIMARY KEY)")
            path = db._querystore_path
        assert not path.exists()


class TestPlanSignature:
    def test_same_plan_same_signature(self, db):
        db.execute("CREATE TABLE sig (a INT PRIMARY KEY, b INT)")
        db.execute("INSERT INTO sig VALUES (1, 2), (3, 4)")
        db.query("SELECT b FROM sig WHERE a = 1")
        db.query("SELECT b FROM sig WHERE a = 3")
        query = db.query_store.find_query("SELECT b FROM sig WHERE a = 1")
        assert len(db.query_store.plans_for(query.query_id)) == 1

    def test_signature_is_hashable_tree_shape(self, db):
        db.execute("CREATE TABLE shape (a INT PRIMARY KEY, b INT)")
        db.execute("INSERT INTO shape VALUES (1, 2)")
        result = db.execute("SELECT b FROM shape")
        op = db._last_select_plan
        assert op is not None
        sig = plan_signature(op)
        assert sig == plan_signature(op)
        hash(sig)
        assert result.rows == [(2,)]


class TestSlowQueryLog:
    def test_threshold_zero_logs_everything(self, events):
        events.execute("SET SLOW_QUERY_THRESHOLD 0")
        events.query("SELECT COUNT(*) FROM events")
        rows = events.query("SELECT * FROM sys_dm_exec_slow_queries")
        assert rows
        text, kind, elapsed_ms, threshold = rows[-1][:4]
        assert kind == "SELECT"
        assert elapsed_ms >= 0
        assert threshold == 0

    def test_high_threshold_logs_nothing(self, events):
        events.execute("SET SLOW_QUERY_THRESHOLD 60000")
        events.query("SELECT COUNT(*) FROM events")
        assert events.query("SELECT * FROM sys_dm_exec_slow_queries") == []

    def test_negative_threshold_rejected(self, db):
        with pytest.raises(EngineError):
            db.execute("SET SLOW_QUERY_THRESHOLD -1")


class TestQueryStatsSnapshotGuard:
    def test_record_statement_returns_immutable_snapshot(self):
        registry = MetricsRegistry()
        first = registry.record_statement("SELECT 1", "SELECT", 0.010, 1, {})
        registry.record_statement("SELECT 1", "SELECT", 0.020, 1, {})
        assert first.execution_count == 1  # later executions must not mutate it
        latest = registry.queries()[0]
        assert latest.execution_count == 2

    def test_queries_rows_are_snapshots(self):
        registry = MetricsRegistry()
        registry.record_statement("SELECT 1", "SELECT", 0.010, 1, {})
        held = registry.queries()[0]
        registry.record_statement("SELECT 1", "SELECT", 0.020, 1, {})
        assert held.execution_count == 1
