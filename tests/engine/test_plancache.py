"""Plan cache tests.

Covers normalized-SQL plan caching with parameter extraction, one
value-agnostic plan per shape, epoch-based invalidation (DDL /
statistics / session knobs), plans that executions leave unchanged,
the no-capture guarantees of ``check()`` and bare ``EXPLAIN``, and the
query store's periodic checkpoint."""

import json
import random
import re

import pytest

from repro.engine import Database
from repro.engine.plancache import parameterize_select
from repro.engine.querystore import QueryStore
from repro.engine.sql.lexer import split_literals
from repro.engine.sql.parser import parse_sql

from .lookup_shapes import SHAPES, lookup_sql


@pytest.fixture
def db():
    with Database() as database:
        database.execute(
            "CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(8), v INT)"
        )
        database.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, 'g{i % 5}', {i * 3 % 67})" for i in range(80))
        )
        database.execute("UPDATE STATISTICS t")
        yield database


def cache_stats(database):
    return database.plan_cache.stats_dict()


# ---------------------------------------------------------------------------
# parameterization
# ---------------------------------------------------------------------------


class TestParameterize:
    def parse(self, sql):
        (stmt,) = parse_sql(sql)
        return stmt

    def test_literals_become_slots(self):
        stmt = self.parse("SELECT v FROM t WHERE id = 7 AND grp = 'a'")
        parsed = parameterize_select(stmt)
        assert parsed.store == [7, "a"]

    def test_two_parses_align_slot_order(self):
        first = parameterize_select(
            self.parse("SELECT v FROM t WHERE id = 7 AND grp = 'a'")
        )
        second = parameterize_select(
            self.parse("SELECT v FROM t WHERE id = 99 AND grp = 'zz'")
        )
        assert len(first.store) == len(second.store)
        assert second.store == [99, "zz"]
        assert first.extras == second.extras

    def test_null_literal_stays_inline(self):
        parsed = parameterize_select(
            self.parse("SELECT v FROM t WHERE grp = NULL")
        )
        assert parsed.store == []

    def test_top_and_maxdop_join_the_key(self):
        a = parameterize_select(
            self.parse("SELECT TOP 5 v FROM t ORDER BY v")
        )
        b = parameterize_select(
            self.parse("SELECT TOP 9 v FROM t ORDER BY v")
        )
        assert a.extras != b.extras

    def test_template_reexecutes_with_fresh_values(self, db):
        stmt = self.parse("SELECT v FROM t WHERE id = 3")
        parsed = parameterize_select(stmt)
        plan = db._planner.plan_select(parsed.template)
        from repro.engine.executor import collect_rows

        first = collect_rows(plan)
        parsed.store[0] = 11
        second = collect_rows(plan)
        assert first == [(9,)]
        assert second == [(33,)]


# ---------------------------------------------------------------------------
# hit / miss mechanics
# ---------------------------------------------------------------------------


class TestHitMiss:
    def test_second_execution_hits(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.query("SELECT v FROM t WHERE id = 9")
        stats = cache_stats(db)
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_hit_returns_new_parameter_results(self, db):
        assert db.query("SELECT v FROM t WHERE id = 5") == [(15,)]
        assert db.query("SELECT v FROM t WHERE id = 9") == [(27,)]
        assert db.query("SELECT v FROM t WHERE id = 5") == [(15,)]

    def test_distinct_shapes_cache_separately(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.query("SELECT grp FROM t WHERE id = 5")
        assert cache_stats(db)["entries"] == 2

    def test_dmv_rows(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.query("SELECT v FROM t WHERE id = 6")
        rows = db.query(
            "SELECT query_text, hit_count, parameter_count "
            "FROM sys_dm_exec_cached_plans"
        )
        target = [r for r in rows if "WHERE id = ?" in r[0]]
        assert target
        assert target[0][1] == 1  # one hit
        assert target[0][2] == 1  # one parameter slot

    def test_set_plan_cache_off_bypasses_and_clears(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        assert cache_stats(db)["entries"] == 1
        db.execute("SET PLAN_CACHE OFF")
        assert cache_stats(db)["entries"] == 0
        assert cache_stats(db)["evictions_disabled"] == 1
        before = cache_stats(db)
        assert db.query("SELECT v FROM t WHERE id = 5") == [(15,)]
        after = cache_stats(db)
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        db.execute("SET PLAN_CACHE ON")
        db.query("SELECT v FROM t WHERE id = 5")
        assert cache_stats(db)["entries"] == 1

    def test_capacity_eviction(self, db):
        db.plan_cache.capacity = 2
        db.query("SELECT v FROM t WHERE id = 1")
        db.query("SELECT grp FROM t WHERE id = 1")
        db.query("SELECT id FROM t WHERE v = 3")
        stats = cache_stats(db)
        assert stats["entries"] == 2
        assert stats["evictions_capacity"] == 1


# ---------------------------------------------------------------------------
# invalidation
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_ddl_invalidates(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.execute("CREATE TABLE other (x INT PRIMARY KEY)")
        db.query("SELECT v FROM t WHERE id = 5")
        assert cache_stats(db)["evictions_schema"] == 1

    def test_create_index_invalidates(self, db):
        db.query("SELECT v FROM t WHERE v = 30")
        db.execute("CREATE INDEX ix_v ON t (v)")
        db.query("SELECT v FROM t WHERE v = 30")
        assert cache_stats(db)["evictions_schema"] == 1

    def test_update_statistics_invalidates(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.execute("UPDATE STATISTICS t")
        db.query("SELECT v FROM t WHERE id = 5")
        stats = cache_stats(db)
        assert stats["evictions_statistics"] == 1
        assert stats["misses"] == 2

    def test_knob_change_invalidates(self, db):
        db.query("SELECT v FROM t WHERE id = 5")
        db.execute("SET PLAN_VERIFY ON")
        db.query("SELECT v FROM t WHERE id = 5")
        assert cache_stats(db)["evictions_knobs"] == 1

    def test_modifications_alone_do_not_invalidate(self, db):
        # statistics change only by UPDATE STATISTICS: 600 new rows on
        # an 80-row table leave them, and the cached plan, as they were
        statistics = db.catalog.table("t").statistics
        db.query("SELECT v FROM t WHERE id = 5")
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({i}, 'g{i % 5}', {i % 67})" for i in range(100, 700))
        )
        assert db.query("SELECT v FROM t WHERE id = 650") == [(650 % 67,)]
        assert db.catalog.table("t").statistics is statistics
        stats = cache_stats(db)
        assert (stats["misses"], stats["hits"], stats["evictions"]) == (1, 1, 0)


class TestExecutionsDoNotChangePlans:
    def test_a_like_filter_keeps_its_estimate(self, db):
        # no statistic estimates LIKE: its 0.1 default must stay put
        # however many rows the filter passed when it ran
        sql = "SELECT id FROM t WHERE grp LIKE 'g1%'"
        cold = db.explain(sql)
        assert len(db.query(sql)) == 16
        assert db.explain(sql) == cold


# ---------------------------------------------------------------------------
# skewed parameters: one value-agnostic plan per shape
# ---------------------------------------------------------------------------


@pytest.fixture
def skew_db():
    """A heap with a severely skewed secondary-index column: 'hot'
    covers ~97% of rows, the rare values a handful each."""
    with Database() as database:
        database.execute(
            "CREATE TABLE sk (id INT PRIMARY KEY, g VARCHAR(8), v INT)"
        )
        values = []
        rid = 0
        for _ in range(400):
            values.append(f"({rid}, 'hot', {rid % 50})")
            rid += 1
        for tag in ("ra", "rb"):
            for _ in range(5):
                values.append(f"({rid}, '{tag}', {rid % 50})")
                rid += 1
        database.execute("INSERT INTO sk VALUES " + ", ".join(values))
        database.execute("CREATE INDEX ix_g ON sk (g)")
        database.execute("UPDATE STATISTICS sk")
        yield database


class TestSkewedParameters:
    def test_one_plan_answers_every_value(self, skew_db):
        # the plan compiled for a value matching ~1% of the rows serves
        # one matching ~97%, and the other way round: its seek bounds
        # and predicates read the parameter slots at execute time
        db = skew_db
        for _ in range(4):
            assert len(db.query("SELECT id FROM sk WHERE g = 'ra'")) == 5
            assert len(db.query("SELECT id FROM sk WHERE g = 'hot'")) == 400
        stats = cache_stats(db)
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 7, 1)


# ---------------------------------------------------------------------------
# no-capture guarantees (check / bare EXPLAIN)
# ---------------------------------------------------------------------------


class TestNoCapture:
    def test_bare_explain_untracked(self, db):
        before_stats = cache_stats(db)
        before_queries = len(db.query_store.queries())
        db.execute("EXPLAIN SELECT v FROM t WHERE id = 5")
        after_stats = cache_stats(db)
        # the cached_plans peek must not populate nor count
        assert after_stats["hits"] == before_stats["hits"]
        assert after_stats["misses"] == before_stats["misses"]
        assert after_stats["entries"] == before_stats["entries"]
        # ...and bare EXPLAIN must not land in query store runtime stats
        assert len(db.query_store.queries()) == before_queries

    def test_explain_analyze_still_records(self, db):
        before = len(db.query_store.queries())
        db.execute("EXPLAIN ANALYZE SELECT v FROM t WHERE id = 5")
        assert len(db.query_store.queries()) == before + 1

    def test_check_populates_nothing(self, db):
        before_cache = cache_stats(db)
        before_queries = len(db.query_store.queries())
        checked = db.check(
            "SELECT v FROM t WHERE id = 5; "
            "EXPLAIN SELECT grp FROM t WHERE v > 3"
        )
        assert checked == 2
        assert cache_stats(db) == before_cache
        assert len(db.query_store.queries()) == before_queries

    def test_explain_notes_peek_state(self, db):
        text = db.execute("EXPLAIN SELECT v FROM t WHERE id = 5")
        assert "note: plan cache miss" in text
        db.query("SELECT v FROM t WHERE id = 5")
        text = db.execute("EXPLAIN SELECT v FROM t WHERE id = 7")
        assert "note: plan cache hit" in text


# ---------------------------------------------------------------------------
# query store checkpoint
# ---------------------------------------------------------------------------


class TestFastPath:
    """The raw-text (parse-free) hit path: registration rules,
    fallback discipline, and side-effect parity with the parse path."""

    def test_miss_registers_shape(self, db):
        db.query("SELECT v FROM t WHERE id = 7")
        assert "SELECT v FROM t WHERE id = ?" in db.plan_cache._fast_index

    def test_hit_skips_parser_entirely(self, db, monkeypatch):
        import repro.engine.database as database_module

        db.query("SELECT v FROM t WHERE id = 7")

        def boom(sql):
            raise AssertionError("parser invoked on fast path")

        monkeypatch.setattr(database_module, "parse_sql", boom)
        assert db.query("SELECT v FROM t WHERE id = 31") == db_rows(31)
        with pytest.raises(AssertionError):
            db.query("SELECT v FROM t WHERE id = 31 AND v >= 0")

    def test_one_normalisation_per_statement(self, db, monkeypatch):
        # a never-seen statement is tokenised once (by the parser, whose
        # tokens also make the plan-cache and Query Store key); a
        # raw-text hit is never tokenised and split into shape and
        # literal values by one regex pass
        import repro.engine.plancache as plancache_module
        import repro.engine.querystore as querystore_module
        import repro.engine.sql.parser as parser_module

        calls = {"tokenize": 0, "shape": 0}

        def counted(name, function):
            def wrapper(text):
                calls[name] += 1
                return function(text)

            return wrapper

        tokenize = counted("tokenize", parser_module.tokenize)
        monkeypatch.setattr(parser_module, "tokenize", tokenize)
        monkeypatch.setattr(querystore_module, "tokenize", tokenize)
        monkeypatch.setattr(
            plancache_module,
            "split_literals",
            counted("shape", plancache_module.split_literals),
        )
        db.query("SELECT v FROM t WHERE id = 7")
        assert calls["tokenize"] == 1
        calls.update(tokenize=0, shape=0)
        hits = db.plan_cache.hits
        assert db.query("select v from t where id = 31") == db_rows(31)
        assert calls["tokenize"] == 1  # new rendition: parsed hit
        calls.update(tokenize=0, shape=0)
        assert db.query("SELECT v FROM t WHERE id = 32") == db_rows(32)
        assert db.plan_cache.hits == hits + 2
        assert calls == {"tokenize": 0, "shape": 1}
        query = db.query_store.find_query("SELECT v FROM t WHERE id = 0")
        assert query.execution_count == 3

    def test_explain_prefix_is_not_part_of_the_cache_key(self, db):
        (bare,) = parse_sql("SELECT v FROM t WHERE id = 7")
        key = bare.normalized_sql
        assert key == "SELECT v FROM t WHERE id = ?"
        for prefix in ("EXPLAIN ", "explain  analyze "):
            (stmt,) = parse_sql(prefix + "SELECT v FROM t WHERE id = 8")
            assert stmt.normalized_sql.startswith("EXPLAIN ")
            assert stmt.select.normalized_sql == key
        db.query("SELECT v FROM t WHERE id = 7")
        assert "plan cache hit" in db.execute(
            "EXPLAIN SELECT v FROM t WHERE id = 8"
        )

    def test_fast_hits_rebind_fresh_values(self, db):
        cold = [db.query(f"SELECT v FROM t WHERE id = {i}") for i in range(8)]
        warm = [db.query(f"SELECT v FROM t WHERE id = {i}") for i in range(8)]
        assert cold == warm
        assert cache_stats(db)["hits"] >= 8

    def test_duplicate_literals_defer_registration(self, db):
        # equal values cannot prove the token→slot mapping; the shape
        # registers only once a distinct-valued rendition comes along
        db.query("SELECT id FROM t WHERE v = 9 AND id > 9")
        entry = next(iter(db.plan_cache._entries.values()))
        assert not entry.fast_shapes
        db.query("SELECT id FROM t WHERE v = 9 AND id > 4")
        assert entry.fast_shapes

    def test_top_literal_blocks_registration(self, db):
        # TOP n is a cache-key extra, invisible to the slot store — a
        # positional rebind would mistake it for a parameter
        db.query("SELECT TOP 3 id FROM t WHERE v > 10")
        entry = next(iter(db.plan_cache._entries.values()))
        assert not entry.fast_shapes

    def test_line_comment_blocks_registration(self, db):
        # whitespace collapsing would give both texts one shape, but the
        # second has its WHERE clause commented out
        assert db.query("SELECT id FROM t -- c\nWHERE id = 2") == [(2,)]
        assert db.query("SELECT id FROM t -- c\nWHERE id = 3") == [(3,)]
        assert len(db.query("SELECT id FROM t -- c WHERE id = 3")) == 80
        assert not db.plan_cache._fast_index

    def test_exponent_and_doubled_quote_stay_on_the_parse_path(self, db):
        db.execute("INSERT INTO t VALUES (500, 'it''s', 100)")
        for sql, expected in (
            ("SELECT id FROM t WHERE v = 1e2", [(500,)]),
            ("SELECT id FROM t WHERE v = 1e2", [(500,)]),
            ("SELECT id FROM t WHERE grp = 'it''s' AND id > 1", [(500,)]),
            ("SELECT id FROM t WHERE grp = 'it''s' AND id > 2", [(500,)]),
        ):
            assert db.query(sql) == expected
            assert db.plan_cache.fetch_text(sql) is None
        assert not db.plan_cache._fast_index

    def test_one_pass_split_is_the_old_mask_and_the_old_scan(self):
        # the two-pass originals, kept here as the reference
        literal = re.compile(r"'[^']*'|\b\d+(?:\.\d+)?\b")

        def reference(text):
            shape = " ".join(literal.sub("?", text).split())
            values = []
            for match in literal.finditer(text):
                token = match.group()
                if token[0] == "'":
                    values.append(token[1:-1])
                else:
                    values.append(
                        float(token) if "." in token else int(token)
                    )
            return shape, values

        rng = random.Random(22)
        alphabet = "'019.. ae_x-\n\t,()=*"
        texts = [lookup_sql(shape, 4711) for shape in range(SHAPES)]
        texts += [
            "SELECT a FROM t -- 1 'c'\nWHERE b = 1.50 AND c = 'x y'  AND d1 = 2",
            "SELECT 1e5, 12abc, a.5, 3.x, '', 'it''s'",
        ]
        texts += [
            "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
            for _ in range(20_000)
        ]
        for text in texts:
            expected = reference(text)
            assert split_literals(text) == expected, text

    def test_explain_never_hijacked(self, db):
        db.query("SELECT v FROM t WHERE id = 7")
        db.query("SELECT v FROM t WHERE id = 8")
        text = db.execute("EXPLAIN SELECT v FROM t WHERE id = 9")
        assert isinstance(text, str) and "Seek" in text
        assert "note: plan cache hit" in text

    def test_fast_hits_keep_recording(self, db):
        for i in range(4):
            db.query(f"SELECT v FROM t WHERE id = {i}")
        row = next(
            r
            for r in db.query_store.query_stats_rows()
            if r[0] == "SELECT v FROM t WHERE id = ?"
        )
        assert row[2] == 4  # execution_count counts fast hits too
        stored = [
            q
            for q in db.query_store.query_rows()
            if q[1] == "SELECT v FROM t WHERE id = ?"
        ]
        assert stored

    def test_invalidation_falls_back_and_evicts(self, db):
        db.query("SELECT v FROM t WHERE id = 7")
        db.query("SELECT v FROM t WHERE id = 8")
        db.execute("UPDATE STATISTICS t")
        assert db.query("SELECT v FROM t WHERE id = 9") == db_rows(9)
        assert cache_stats(db)["evictions_statistics"] == 1

    def test_disabled_cache_bypasses_fast_path(self, db):
        db.query("SELECT v FROM t WHERE id = 7")
        db.execute("SET PLAN_CACHE OFF")
        before = cache_stats(db)["hits"]
        assert db.query("SELECT v FROM t WHERE id = 8") == db_rows(8)
        assert cache_stats(db)["hits"] == before

    def test_eviction_cleans_fast_index(self, db):
        db.query("SELECT v FROM t WHERE id = 7")
        assert db.plan_cache._fast_index
        db.plan_cache.clear()
        assert not db.plan_cache._fast_index

    def test_skewed_value_hits_the_raw_text_path(self, skew_db):
        db = skew_db
        assert len(db.query("SELECT id FROM sk WHERE g = 'ra'")) == 5
        entry = next(iter(db.plan_cache._entries.values()))
        assert entry.fast_shapes  # registered off the rare compile
        assert db.plan_cache.fetch_text("SELECT id FROM sk WHERE g = 'hot'")
        assert len(db.query("SELECT id FROM sk WHERE g = 'hot'")) == 400
        assert cache_stats(db)["hits"] == 2


def db_rows(i):
    return [(i * 3 % 67,)]


class TestQueryStoreCheckpoint:
    def test_periodic_checkpoint_writes_midsession(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(QueryStore, "CHECKPOINT_INTERVAL", 2)
        with Database(data_dir=tmp_path / "db") as database:
            database.execute("CREATE TABLE c (id INT PRIMARY KEY)")
            database.execute("INSERT INTO c VALUES (1)")
            path = tmp_path / "db" / "querystore.json"
            assert path.exists()  # written before close()
            payload = json.loads(path.read_text())
            assert payload["queries"]

    def test_counter_resets_after_checkpoint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(QueryStore, "CHECKPOINT_INTERVAL", 2)
        with Database(data_dir=tmp_path / "db") as database:
            database.execute("CREATE TABLE c (id INT PRIMARY KEY)")
            database.execute("INSERT INTO c VALUES (1)")
            assert database.query_store.records_since_checkpoint < 2

    def test_nothing_written_before_the_interval(self, tmp_path):
        assert QueryStore.CHECKPOINT_INTERVAL > 3
        with Database(data_dir=tmp_path / "db") as database:
            database.execute("CREATE TABLE c (id INT PRIMARY KEY)")
            database.execute("INSERT INTO c VALUES (1)")
            database.execute("SELECT id FROM c")
            assert not (tmp_path / "db" / "querystore.json").exists()


# ---------------------------------------------------------------------------
# differential: cached execution must be byte-identical
# ---------------------------------------------------------------------------

_DIFF_QUERIES = [
    "SELECT v FROM t WHERE id = {p}",
    "SELECT grp, COUNT(*), SUM(v) FROM t WHERE v > {p} "
    "GROUP BY grp ORDER BY grp",
    "SELECT id, v FROM t WHERE v BETWEEN {p} AND 40 ORDER BY id",
    "SELECT COUNT(*) FROM t WHERE grp IN ('g1', 'g{p2}')",
    "SELECT TOP 7 id FROM t WHERE v > {p} ORDER BY id",
]


def _build(database, storage):
    suffix = (
        " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 32)"
        if storage == "column"
        else ""
    )
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp VARCHAR(8), v INT)"
        + suffix
    )
    database.execute(
        "INSERT INTO t VALUES "
        + ", ".join(f"({i}, 'g{i % 5}', {i * 3 % 67})" for i in range(96))
    )
    database.execute("UPDATE STATISTICS t")


def _run_workload(database, dop):
    hint = f" OPTION (MAXDOP {dop})" if dop > 1 else ""
    out = []
    for template in _DIFF_QUERIES:
        for p in (3, 25, 48, 25, 3):
            sql = template.format(p=p, p2=p % 5) + hint
            out.append((sql, database.query(sql)))
    return out


@pytest.mark.parametrize("storage", ["heap", "column"])
@pytest.mark.parametrize("granularity", ["auto", "row"])
@pytest.mark.parametrize("dop", [1, 2, 4])
def test_differential_cache_on_off(storage, granularity, dop, monkeypatch):
    """Cached ≡ uncached, in batches of the default size (``auto``) and
    of one row (``row``: the granularity the retired row interpreter
    had, through the one set of operators)."""
    if granularity == "row":
        from repro.engine.executor import vector

        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 1)
    with Database() as cached, Database() as uncached:
        for database in (cached, uncached):
            _build(database, storage)
        uncached.execute("SET PLAN_CACHE OFF")
        with_cache = _run_workload(cached, dop)
        without_cache = _run_workload(uncached, dop)
        for (sql, hot), (_sql, cold) in zip(with_cache, without_cache):
            assert repr(hot) == repr(cold), sql
        # the cache must actually have been exercised
        stats = cached.plan_cache.stats_dict()
        assert stats["hits"] >= len(_DIFF_QUERIES) * 2
        assert uncached.plan_cache.stats_dict()["misses"] == 0
