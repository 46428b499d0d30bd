"""The Query Store: statement normalisation, plan interning, runtime
stats intervals, persistence, and the DMVs."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.engine import Database
from repro.engine.querystore import (
    QueryStore,
    normalize_statement,
    plan_signature,
)

from .lookup_shapes import SHAPES, build_lookup_db, lookup_sql


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
        ) == "SELECT v FROM t WHERE g = ? AND name = '?'"

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
        # record() takes the statement's normalised text (the parser
        # attaches it; raw SQL goes through normalize_statement)
        store = QueryStore()
        for sql, elapsed in [
            ("SELECT v FROM t WHERE g = 1", 0.001),
            ("select v  from t where g = 2", 0.002),
        ]:
            store.record(normalize_statement(sql), "SELECT", elapsed, 1)
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
        store = QueryStore()
        later = 30.0 + QueryStore.INTERVAL_SECONDS
        store.record("SELECT v FROM t", "SELECT", 0.001, 1, now=30.0)
        store.record("SELECT v FROM t", "SELECT", 0.001, 1, now=later)
        query = store.queries()[0]
        intervals = store.runtime_for(query.query_id)
        assert len(intervals) == 2
        assert {s.executions for s in intervals} == {1}

    def test_runtime_rows_stay_in_recording_order(self, db):
        # one query alternating between two plans across an interval
        # boundary: a repeat of the last row updates it in place, any
        # other row moves to the end, and the roll-up reads that row
        db.execute("CREATE TABLE two (a INT PRIMARY KEY, b INT)")
        plans = {
            "x": db.plan("SELECT a FROM two"),
            "y": db.plan("SELECT a FROM two WHERE b = 1"),
        }
        hour = QueryStore.INTERVAL_SECONDS
        steps = [
            ("x", 10.0, [("x", 0)]),
            ("y", 11.0, [("x", 0), ("y", 0)]),
            ("x", 12.0, [("y", 0), ("x", 0)]),
            ("x", 13.0, [("y", 0), ("x", 0)]),
            ("y", hour + 1, [("y", 0), ("x", 0), ("y", 1)]),
            ("x", hour + 2, [("y", 0), ("x", 0), ("y", 1), ("x", 1)]),
            ("x", hour + 3, [("y", 0), ("x", 0), ("y", 1), ("x", 1)]),
        ]
        store = db.query_store
        for n, (name, now, order) in enumerate(steps, start=1):
            store.record(
                "Q", "SELECT", n / 1000.0, n, dop=n, plan=plans[name], now=now
            )
            query = store.find_query("Q")
            ids = {p.plan_id: key for key, p in zip("xy", query.plans.values())}
            assert [(ids[p], i) for p, i in query.runtime] == order
            (last,) = db.query(
                "SELECT last_elapsed_ms, last_dop, execution_count "
                "FROM sys_dm_exec_query_stats WHERE query_text = 'Q'"
            )
            assert last == (float(n), n, n)
        assert [r.executions for r in query.runtime.values()] == [1, 3, 1, 2]

    def test_eviction_cascades(self, monkeypatch):
        monkeypatch.setattr(QueryStore, "RETAIN", 2)
        store = QueryStore()
        store.record("SELECT ?", "SELECT", 0.001, 1)
        store.record("SELECT a FROM t", "SELECT", 0.001, 1)
        store.record("SELECT b FROM u", "SELECT", 0.001, 1)
        assert len(store.queries()) == 2
        texts = {q.query_text for q in store.queries()}
        assert "SELECT ?" not in texts  # least recently executed evicted
        surviving = {q.query_id for q in store.queries()}
        for row in store.runtime_rows():
            assert row[0] in surviving

    def test_eviction_is_least_recently_executed(self, db, monkeypatch):
        # a burst of never-seen statements must not push out a query
        # that is still being executed (first-interned-first-out did)
        db.execute("CREATE TABLE lru (a INT PRIMARY KEY)")
        plan_a = db.plan("SELECT a FROM lru")
        monkeypatch.setattr(QueryStore, "RETAIN", 2)
        store = QueryStore()
        store.record("A", "SELECT", 0.001, 1, plan=plan_a, now=10.0)
        (first,) = store.queries()
        first_id = first.query_id
        store.record("B", "SELECT", 0.001, 1, now=11.0)
        store.record("A", "SELECT", 0.002, 1, plan=plan_a, now=12.0)
        store.record("C", "SELECT", 0.001, 1, now=13.0)
        assert [q.query_text for q in store.queries()] == ["A", "C"]
        kept = store.queries()[0]
        assert kept is first and kept.query_id == first_id
        assert kept.execution_count == 2
        (plan,) = store.plans_for(kept.query_id)
        assert plan.execution_count == 2
        (stats,) = store.runtime_for(kept.query_id)
        assert stats.executions == 2
        # B's history went with it, and nobody else's was touched
        assert {row[0] for row in store.runtime_rows()} == {
            q.query_id for q in store.queries()
        }
        assert {row[1] for row in store.plan_rows()} == {kept.query_id}

    def test_loads_a_version_1_file_written_before_nesting(self, tmp_path):
        # the flat layout PR 8 shipped: three row lists joined by ids
        path = tmp_path / "querystore.json"
        path.write_text(json.dumps({
            "version": 1,
            "next_query_id": 3,
            "next_plan_id": 2,
            "interval_seconds": 3600.0,
            "queries": [
                {"query_id": 1, "query_text": "SELECT a FROM t",
                 "statement_kind": "SELECT", "first_seen": 5.0,
                 "last_seen": 9.0, "execution_count": 3},
                {"query_id": 2, "query_text": "INSERT INTO t VALUES ( ? )",
                 "statement_kind": "INSERT", "first_seen": 6.0,
                 "last_seen": 6.0, "execution_count": 1},
            ],
            "plans": [
                {"signature": [[0, "Table Scan t"]], "plan_id": 1,
                 "query_id": 1, "plan_text": "Table Scan t", "est_rows": 4,
                 "first_seen": 5.0, "last_dop": 1, "execution_count": 3},
            ],
            "runtime": [
                {"query_id": 1, "plan_id": 1, "interval_id": 0,
                 "interval_start": 0.0, "executions": 3,
                 "total_elapsed": 0.006, "last_elapsed": 0.001,
                 "total_rows": 12, "last_rows": 4, "last_est_rows": 4,
                 "last_actual_rows": 4, "total_logical_reads": 9,
                 "total_pages_written": 0, "total_batch_reads": 3,
                 "total_segments_read": 0, "total_segments_skipped": 0,
                 "last_dop": 1},
                {"query_id": 2, "plan_id": 0, "interval_id": 0,
                 "interval_start": 0.0, "executions": 1,
                 "total_elapsed": 0.002, "last_elapsed": 0.002,
                 "total_rows": 1, "last_rows": 1, "last_est_rows": None,
                 "last_actual_rows": 1, "total_logical_reads": 1,
                 "total_pages_written": 2, "total_batch_reads": 0,
                 "total_segments_read": 0, "total_segments_skipped": 0,
                 "last_dop": 1},
            ],
        }))
        store = QueryStore()
        store.load(path)
        assert [len(store.plans_for(i)) for i in (1, 2)] == [1, 0]
        assert store.runtime_for(1, plan_id=1)[0].total_rows == 12
        assert store.query_stats_rows() == [
            ("SELECT a FROM t", "SELECT", 3, 6.0, 2.0, 1.0, 12, 9, 0, 3,
             0, 0, 1),
            ("INSERT INTO t VALUES ( ? )", "INSERT", 1, 2.0, 2.0, 2.0, 1,
             1, 2, 0, 0, 0, 1),
        ]
        # and it is written back in the same layout
        assert store.to_dict() == json.loads(path.read_text())

    def test_save_load_round_trip(self, tmp_path):
        store = QueryStore()
        store.record("SELECT v FROM t WHERE g = ?", "SELECT", 0.004, 3)
        store.record("SELECT v FROM t WHERE g = ?", "SELECT", 0.006, 2)
        path = tmp_path / "qs.json"
        store.save(path)
        loaded = QueryStore()
        loaded.load(path)
        assert loaded.to_dict() == store.to_dict()
        assert loaded.queries()[0].execution_count == 2
        # the on-disk form is plain JSON
        json.loads(path.read_text())


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

    def test_writer_killed_mid_checkpoint(self, tmp_path):
        # a child process dies (os._exit: no finally, no close) after
        # json.dump has written part of the temp file and before the
        # rename; the previous store must load whole, and the stray
        # temp file must not stop the next open
        path = self._persisted(tmp_path / "killed")
        before = path.read_bytes()
        child = textwrap.dedent(
            """
            import builtins, os, sys
            from repro.engine import Database, querystore

            class DiesMidWrite:
                def __init__(self, handle):
                    self.handle, self.written = handle, 0
                def __enter__(self):
                    return self
                def __exit__(self, *exc):
                    self.handle.close()
                def write(self, text):
                    self.handle.write(text)
                    self.written += len(text)
                    if self.written >= 64:
                        self.handle.flush()
                        os._exit(17)
                def __getattr__(self, name):
                    return getattr(self.handle, name)

            db = Database(data_dir=sys.argv[1])
            db.execute("CREATE TABLE u (b INT PRIMARY KEY)")
            querystore.open = lambda *a, **k: DiesMidWrite(
                builtins.open(*a, **k)
            )
            querystore.QueryStore.CHECKPOINT_INTERVAL = 1
            db.query("SELECT b FROM u")
            os._exit(0)
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", child, str(path.parent)],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 17, done.stderr.decode()
        partial = path.with_name(path.name + ".tmp").read_text()
        assert len(partial) >= 64
        with pytest.raises(json.JSONDecodeError):
            json.loads(partial)
        assert path.read_bytes() == before
        with Database(data_dir=path.parent) as db:
            assert db.messages == []
            query = db.query_store.find_query("SELECT a FROM t WHERE a > 5")
            assert query is not None and query.execution_count == 1
            assert db.query_store.find_query("SELECT b FROM u") is None

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


#: the statement forms of ``test_sql_differential.py`` (one predicate of
#: each generated kind), twice each with fresh literals where they take any
DIFFERENTIAL_SELECTS = [
    ("SELECT id FROM t WHERE a = 3", "SELECT id FROM t WHERE a = 7"),
    ("SELECT id FROM t WHERE a <> 0 AND b >= 2",
     "SELECT id FROM t WHERE a <> 9 AND b >= 1"),
    ("SELECT id FROM t WHERE a < 5 OR b <= 1",
     "SELECT id FROM t WHERE a < 8 OR b <= 10"),
    ("SELECT b, COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a) FROM t GROUP BY b",)
    * 2,
    ("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b OPTION (MAXDOP 1)",) * 2,
    ("SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b OPTION (MAXDOP 4)",) * 2,
    ("SELECT id, a FROM t ORDER BY a DESC, id",) * 2,
    ("SELECT id, a FROM t ORDER BY a ASC, id",) * 2,
    ("SELECT lid, rid FROM l JOIN r ON (lk = rk)",) * 2,
    ("SELECT TOP 4 id FROM t ORDER BY id",) * 2,
    ("SELECT DISTINCT b FROM t",) * 2,
]


class TestMemoisedSignature:
    """The signature a plan's facts hold is the one a fresh walk makes."""

    def check_pair(self, db, first, second):
        store = db.query_store
        plan_ids = []
        for sql in (first, second):
            db.query(sql)
            plan = db._last_select_plan
            assert plan.facts.signature == plan_signature(plan), sql
            stored = store.find_query(sql).plans[plan.facts.signature]
            assert stored.execution_count == len(plan_ids) + 1
            plan_ids.append(stored.plan_id)
        assert plan_ids[0] == plan_ids[1], (first, second)

    def test_differential_corpus(self, db):
        db.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, s VARCHAR(10));"
            "CREATE TABLE l (lid INT PRIMARY KEY, lk INT);"
            "CREATE TABLE r (rid INT PRIMARY KEY, rk INT);"
        )
        for i in range(40):
            db.table("t").insert((i, i % 21 - 10, i % 7 - 3, "xyz"[i % 3]))
            db.table("l").insert((i, i % 9))
            db.table("r").insert((i, i % 5))
        for first, second in DIFFERENTIAL_SELECTS:
            self.check_pair(db, first, second)

    def test_lookup_shapes_and_a_new_index(self):
        with build_lookup_db() as db:
            for shape in range(SHAPES):
                self.check_pair(
                    db, lookup_sql(shape, 11), lookup_sql(shape, 402)
                )
            # the same plan object served both executions of a shape
            db.query(lookup_sql(0, 5))
            cached = db._last_select_plan
            db.query(lookup_sql(0, 6))
            assert db._last_select_plan is cached
            # shape 4 filters gene by a scan; an index makes it a new plan
            sql = "SELECT name FROM gene WHERE f_id = 3"
            db.query(sql)
            before = db._last_select_plan
            db.execute("CREATE INDEX ix_fam ON gene (f_id)")
            db.query(sql)
            after = db._last_select_plan
            assert after is not before
            assert after.facts.signature == plan_signature(after)
            assert after.facts.signature != before.facts.signature
            query = db.query_store.find_query(sql)
            assert len(db.query_store.plans_for(query.query_id)) == 2
