"""Differential tests of the batch executor.

There is one execution protocol — every operator yields batches — so a
query has no second engine-internal answer to be compared with. What
this module checks instead:

- against stdlib ``sqlite3`` (:mod:`.sqlite_oracle`), which shares no
  code with the engine, on a heap-backed and a columnstore-backed table:
  the answer itself;
- against the engine's own other configurations, to the ``repr``
  (row order, group order, float bit patterns): batch size 1 / default /
  larger than the table, MAXDOP 1 / 2 / 4, plan cache hit / fresh
  compile, ``PLAN_VERIFY`` on / off.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core import GenomicsWarehouse, queries
from repro.engine import database as database_module
from repro.engine.database import Database
from repro.engine.errors import ExecutionError
from repro.engine.executor import vector
from repro.engine.executor.vector import RowBatch, batches_from_rows

from . import sqlite_oracle


def fresh_and_cached(db, sql):
    """``sql`` compiled with the plan cache off, then twice through the
    cache (a miss that compiles, a hit that rebinds): three reprs."""
    db.plan_cache.enabled = False
    try:
        fresh = db.query(sql)
    finally:
        db.plan_cache.enabled = True
    return [repr(fresh), repr(db.query(sql)), repr(db.query(sql))]


# ---------------------------------------------------------------------------
# synthetic-table differential suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["heap", "column"])
def storage_engine(request):
    return request.param


def _sales_statements():
    """``(CREATE TABLE sales, the rest)``: the statements that build the
    differential data, run verbatim on the engine and on the oracle.
    Prices are multiples of 2.5, so float sums are exact in any order."""
    regions = ["north", "south", "east", "west"]
    products = ["widget", "gadget", "gizmo"]
    values = []
    for i in range(2000):
        region = regions[i % 4]
        product = products[i % 3]
        amount = (i * 7) % 50 if i % 11 else "NULL"
        price = f"{(i % 13) * 2.5}" if i % 17 else "NULL"
        values.append(f"({i}, '{region}', '{product}', {amount}, {price})")
    create_sales = (
        "CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR(10), "
        "product VARCHAR(10), amount INT, price FLOAT)"
    )
    return create_sales, [
        "INSERT INTO sales VALUES " + ",".join(values),
        "CREATE TABLE regions (name VARCHAR(10) PRIMARY KEY, zone INT)",
        "INSERT INTO regions VALUES ('north', 1), ('south', 1), "
        "('east', 2), ('west', 2)",
    ]


@pytest.fixture(scope="module")
def oracle():
    """The same ``sales`` / ``regions`` rows in SQLite."""
    conn = sqlite_oracle.connect()
    create_sales, rest = _sales_statements()
    for statement in [create_sales] + rest:
        conn.execute(statement)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def db(storage_engine):
    """The synthetic differential database, built once per storage
    engine: every test in this module runs against a heap-backed and a
    columnstore-backed ``sales`` table, and the answers must be
    byte-identical on both. A small SEGMENT_ROWS forces many sealed
    segments so encoded execution and zone maps actually engage."""
    create_sales, rest = _sales_statements()
    if storage_engine == "column":
        create_sales += " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 256)"
    database = Database()
    for statement in [create_sales] + rest:
        database.execute(statement)
    database.execute("UPDATE STATISTICS sales")
    database.execute("UPDATE STATISTICS regions")
    # the whole differential suite runs with the plan sanitizer armed;
    # teardown asserts it stayed silent over every plan built here
    database.execute("SET PLAN_VERIFY ON")
    yield database
    plan_findings = [
        row for row in database.lint_rows() if row[2].startswith("PLAN-")
    ]
    database.close()
    assert plan_findings == [], (
        "plan sanitizer flagged shipped differential plans: "
        f"{plan_findings}"
    )


DIFFERENTIAL_QUERIES = [
    # scan-filter-aggregate: the canonical batch pipeline
    "SELECT region, COUNT(*), SUM(amount) FROM sales "
    "WHERE amount > 10 GROUP BY region",
    # filter feeding a projection (no aggregate between them)
    "SELECT id, amount FROM sales WHERE amount > 25 AND region = 'north'",
    # NULL-handling: Kleene AND/OR
    "SELECT id FROM sales WHERE amount > 10 OR price > 20.0",
    "SELECT id FROM sales WHERE amount IS NULL",
    "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(price), "
    "MIN(amount), MAX(amount) FROM sales",
    # AVG float accumulation (the values add exactly in any order)
    "SELECT region, AVG(price), SUM(price) FROM sales GROUP BY region",
    "SELECT region, COUNT(DISTINCT product) FROM sales GROUP BY region",
    # BETWEEN / IN list
    "SELECT id FROM sales WHERE amount BETWEEN 5 AND 15",
    "SELECT id FROM sales WHERE region IN ('north', 'east') AND amount > 30",
    # per-row fallback inside compile_batch: LIKE is not batch-safe
    "SELECT id FROM sales WHERE product LIKE 'wid%' AND amount > 40",
    # CASE splits each batch by its WHEN clauses: several WHENs, no ELSE,
    # a NULL condition (amount or price is NULL), a nested CASE, and a
    # branch that would raise on the rows it does not take
    "SELECT id, CASE WHEN amount > 40 THEN 'top' WHEN amount > 25 THEN 'hi' "
    "WHEN amount IS NULL THEN 'none' ELSE 'lo' END FROM sales WHERE id < 300",
    "SELECT id, CASE WHEN region = 'north' THEN amount "
    "WHEN region = 'east' THEN -amount END FROM sales WHERE id < 300",
    "SELECT id, CASE WHEN price > 20.0 THEN 'dear' ELSE 'cheap' END "
    "FROM sales WHERE id < 300",
    "SELECT id, CASE WHEN amount > 25 THEN CASE WHEN region = 'north' "
    "THEN 'high north' ELSE 'high' END ELSE CASE WHEN amount IS NULL "
    "THEN 'none' END END FROM sales WHERE id < 300",
    "SELECT id, CASE WHEN amount = 0 THEN NULL ELSE 100 / amount END "
    "FROM sales",
    # hash join with residual
    "SELECT s.id, r.zone FROM sales AS s JOIN regions AS r "
    "ON s.region = r.name WHERE s.amount > 45",
    # HAVING over a hash aggregate
    "SELECT region, SUM(amount) FROM sales GROUP BY region "
    "HAVING SUM(amount) > 100",
    # sort / distinct / top around batch pipelines
    "SELECT DISTINCT region FROM sales WHERE amount > 10",
    "SELECT id, amount FROM sales WHERE amount > 10 ORDER BY amount DESC, id",
    "SELECT TOP 7 id FROM sales WHERE amount > 20",
    # parallel aggregate exchange consumes batches
    "SELECT region, COUNT(*), SUM(amount) FROM sales "
    "GROUP BY region OPTION (MAXDOP 4)",
    # arithmetic projections (batch-compiled)
    "SELECT id, amount * 2 + 1, -amount FROM sales WHERE id < 50",
    # pure built-ins are vectorised, once per distinct value where a
    # batch repeats them (region, product) and per row where not (id)
    "SELECT product, COUNT(*) FROM sales "
    "WHERE CHARINDEX('w', product) = 0 GROUP BY product",
    "SELECT id, UPPER(region), LEN(product), SUBSTRING(product, 2, 3), "
    "ISNULL(amount, -1), COALESCE(amount, id), ABS(amount - 25), STR(id) "
    "FROM sales WHERE LEFT(region, 1) = 'n' OR price IS NULL",
    # an arm short-circuit evaluation never reaches: '/' stays
    # row-at-a-time inside an otherwise vectorised conjunction
    "SELECT id FROM sales WHERE amount > 0 AND 100 / amount > 3 "
    "AND LEN(region) = 4",
    # a UDF registered under a built-in's name (every database's
    # DATALENGTH) is called per row, never vectorised
    "SELECT id, DATALENGTH(region) FROM sales WHERE DATALENGTH(product) = 5",
]


def assert_matches_oracle(db, oracle, sql):
    # every ORDER BY in this module ends in the unique id: a total order
    return sqlite_oracle.assert_matches(
        db, oracle, sql, ordered="ORDER BY" in sql
    )


class TestDifferential:
    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    def test_row_and_batch_identical(self, db, oracle, sql):
        """The engine's batches against SQLite's rows (the name dates
        from when the reference was the engine's own row interpreter)."""
        assert_matches_oracle(db, oracle, sql)

    def test_differential_queries_not_vacuous(self, db):
        for sql in DIFFERENTIAL_QUERIES:
            if "TOP" in sql or "CASE" in sql:
                continue
            assert db.query(sql), f"empty result defeats the test: {sql}"


# aggregate queries re-run under every DOP: parallel plans must be
# byte-identical to the forced-serial plan, including group order after
# the coordinator merge, on both storage engines
PARALLEL_DIFFERENTIAL_QUERIES = [
    "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region",
    "SELECT region, COUNT(*), SUM(amount) FROM sales "
    "WHERE amount > 10 GROUP BY region",
    # float accumulation: the exchange runs these serially (no reassociation)
    "SELECT region, AVG(price), SUM(price) FROM sales GROUP BY region",
    "SELECT region, product, COUNT(*), MIN(amount), MAX(amount) "
    "FROM sales GROUP BY region, product",
    "SELECT region, COUNT(DISTINCT product) FROM sales GROUP BY region",
]


class TestParallelDifferential:
    @pytest.mark.parametrize("dop", [1, 2, 4])
    @pytest.mark.parametrize("sql", PARALLEL_DIFFERENTIAL_QUERIES)
    def test_parallel_identical_to_serial(self, db, oracle, sql, dop):
        serial = fresh_and_cached(db, sql + " OPTION (MAXDOP 1)")
        parallel = fresh_and_cached(db, sql + f" OPTION (MAXDOP {dop})")
        assert set(parallel) == set(serial) and len(set(serial)) == 1
        rows = assert_matches_oracle(db, oracle, sql + f" OPTION (MAXDOP {dop})")
        assert rows, f"empty result defeats the test: {sql}"


class TestBoundaries:
    """Batch boundaries never show in an answer: each statement gives
    the default batch size's rows, and the oracle's."""

    def check(self, db, oracle, sql, monkeypatch, batch_size=None):
        expected = repr(db.query(sql))
        if batch_size is not None:
            monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", batch_size)
        rows = assert_matches_oracle(db, oracle, sql)
        assert repr(rows) == expected
        return rows

    def test_empty_table(self, db, oracle, monkeypatch):
        for target in (db, oracle):
            target.execute("CREATE TABLE empty_t (id INT PRIMARY KEY, v INT)")
        try:
            for sql in (
                "SELECT id, v FROM empty_t WHERE v > 0",
                "SELECT v, COUNT(*) FROM empty_t GROUP BY v",
                "SELECT COUNT(*) FROM empty_t",
                "SELECT COUNT(*), COUNT(v), COUNT(DISTINCT v), "
                "SUM(v), AVG(v), MIN(v), MAX(v) FROM empty_t",
            ):
                self.check(db, oracle, sql, monkeypatch)
        finally:
            for target in (db, oracle):
                target.execute("DROP TABLE empty_t")

    def test_stream_aggregate_groups_span_batches(
        self, db, oracle, monkeypatch
    ):
        # groups of 37 rows on a clustered-key prefix straddle every
        # batch size below; group 3's values are all NULL
        def value(n, text):
            return "NULL" if n % 5 == 0 or n // 37 == 3 else text

        rows = ", ".join(
            f"({n // 37}, {n}, {value(n, str(n % 9))}, "
            f"{value(n + 1, str((n % 11) * 0.5))})"
            for n in range(2100)
        )
        for target in (db, oracle):
            target.execute(
                "CREATE TABLE runs (g INT, k INT, v INT, f FLOAT, "
                "PRIMARY KEY (g, k))"
            )
            target.execute(f"INSERT INTO runs VALUES {rows}")
        sql = (
            "SELECT g, COUNT(*), COUNT(v), COUNT(DISTINCT v), SUM(v), "
            "AVG(v), SUM(f), AVG(f), MIN(v), MAX(v), MIN(f), MAX(f) "
            "FROM runs GROUP BY g"
        )
        try:
            assert "Stream Aggregate" in db.explain(sql)
            for batch_size in (1, 3, None):
                self.check(db, oracle, sql, monkeypatch, batch_size)
        finally:
            for target in (db, oracle):
                target.execute("DROP TABLE runs")

    def test_batch_size_one(self, db, oracle, monkeypatch):
        self.check(
            db,
            oracle,
            "SELECT region, COUNT(*), SUM(amount) FROM sales "
            "WHERE amount > 10 GROUP BY region",
            monkeypatch,
            batch_size=1,
        )

    def test_batch_size_larger_than_table(self, db, oracle, monkeypatch):
        self.check(
            db,
            oracle,
            "SELECT id FROM sales WHERE amount > 10",
            monkeypatch,
            batch_size=1_000_000,
        )

    def test_top_stops_mid_batch(self, db, oracle, monkeypatch):
        # TOP n smaller than one batch: the batch is trimmed and the
        # rest of the scan abandoned
        sql = "SELECT TOP 3 id, amount FROM sales WHERE amount > 5"
        rows = self.check(db, oracle, sql, monkeypatch)
        assert len(rows) == 3
        plan = db.plan(sql)
        assert vector.collect_rows(plan) == rows
        scan = [node for _path, node in plan.walk()][-1]
        assert scan.rows_out < 2000 and scan.batches_out == 1

    def test_top_zero(self, db, oracle, monkeypatch):
        rows = self.check(db, oracle, "SELECT TOP 0 id FROM sales", monkeypatch)
        assert rows == []

    def test_consensus_batch_size_one(self, reseq_warehouse, monkeypatch):
        """Query 3's join, CASE arguments and ordered UDA see one row per
        batch and call the same consensus."""
        db = reseq_warehouse.db
        sql = queries.query3_sliding_window_sql(1, 1, 1)
        expected = repr(db.query(sql))
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 1)
        assert repr(db.query(sql)) == expected


class TestBatchCase:
    """A CASE evaluates each branch only on the rows that reach it."""

    @pytest.mark.parametrize("batch_size", [1, 7, None])
    def test_nondeterministic_branch_called_once_per_row_in_order(
        self, batch_size, monkeypatch
    ):
        calls = []

        def spy(value):
            calls.append(value)
            return value * 10

        if batch_size is not None:
            monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", batch_size)
        with Database() as db:
            db.register_scalar("Spy", spy, deterministic=False)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            db.execute(
                "INSERT INTO t VALUES "
                + ", ".join(
                    f"({i}, {'NULL' if i % 7 == 0 else i % 5})"
                    for i in range(60)
                )
            )
            rows = db.query(
                "SELECT id, CASE WHEN v > 2 THEN Spy(id) WHEN v IS NULL "
                "THEN Spy(-id) ELSE v END FROM t"
            )
        values = [None if i % 7 == 0 else i % 5 for i in range(60)]
        first = [i for i, v in enumerate(values) if v is not None and v > 2]
        second = [-i for i, v in enumerate(values) if v is None]
        # each branch calls once per row it takes, in row order
        assert [c for c in calls if c > 0] == first
        assert [c for c in calls if c <= 0] == second
        assert len(calls) == len(first) + len(second)
        assert rows == [
            (i, 10 * i if i in first else -10 * i if -i in second else v)
            for i, v in enumerate(values)
        ]


    def test_raising_batch_calls_an_unproven_udf_once(self):
        """A batch that raises is not re-run through the row closure
        when a branch calls a UDF not proven deterministic: ``Spy`` is
        called once, for row 1, before row 2 divides by zero."""
        calls = []

        def spy(value):
            calls.append(value)
            return value

        with Database() as db:
            db.register_scalar("Spy", spy, deterministic=False)
            db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            db.execute("INSERT INTO t VALUES (1, 5), (2, 1), (3, 7)")
            with pytest.raises(ExecutionError, match="division by zero"):
                db.query(
                    "SELECT id, CASE WHEN v > 2 THEN Spy(id) "
                    "ELSE 100 / (v - v) END FROM t"
                )
        assert calls == [1]


class TestClusteredSeekBatches:
    """Clustered Index Seek / Scan hand the executor leaf runs
    re-chunked to the batch size; rows and order are the key order of
    the rows that were inserted."""

    SIZE = 700

    @pytest.fixture(scope="class", params=["heap", "column"])
    def table(self, request):
        from repro.engine.schema import Column, TableSchema
        from repro.engine.table import Table
        from repro.engine.types import int_type, varchar_type

        schema = TableSchema(
            "t",
            [
                Column("g", int_type(), nullable=False),
                Column("k", int_type(), nullable=False),
                Column("v", varchar_type(20)),
            ],
            primary_key=["g", "k"],
            storage=request.param,
            segment_rows=128 if request.param == "column" else None,
        )
        table = Table(schema)
        # descending inserts: key order is the reverse of physical order
        for n in reversed(range(self.SIZE)):
            table.insert((n % 2, n, f"v{n % 9}"))
        table.finish_bulk_load()
        return table

    def expected(self, lo, hi, columns=(0, 1, 2)):
        """Rows whose (g, k) key lies within the prefix bounds, in key
        order: computed from what was inserted, not by the engine."""
        rows = sorted((n % 2, n, f"v{n % 9}") for n in range(self.SIZE))
        return [
            tuple(row[i] for i in columns)
            for row in rows
            if (lo is None or row[: len(lo)] >= lo)
            and (hi is None or row[: len(hi)] <= hi)
        ]

    def operators(self, table):
        from repro.engine.executor import ClusteredIndexScan, ClusteredIndexSeek

        def seek(lo, hi):
            return (
                lambda: ClusteredIndexSeek(table, lo, hi),
                self.expected(lo, hi),
            )

        return [
            seek((1,), (1,)),
            seek((0, 100), (1, 99)),
            seek((1, 7), (1, 7)),
            seek((5,), (5,)),
            seek(None, None),
            (lambda: ClusteredIndexScan(table), self.expected(None, None)),
            (
                lambda: ClusteredIndexScan(table, projection=["v", "k"]),
                self.expected(None, None, columns=(2, 1)),
            ),
        ]

    @pytest.mark.parametrize("batch_size", [1, 64, 1024, 1_000_000])
    def test_batches_equal_rows(self, table, batch_size, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", batch_size)
        for make, expected in self.operators(table):
            assert list(make()) == expected  # the flattened row view
            op = make()
            batches = list(op.iter_batches())
            assert all(isinstance(b, RowBatch) for b in batches)
            assert [row for b in batches for row in b] == expected
            # re-chunked: full batches, then one remainder
            sizes = [len(b) for b in batches]
            assert all(size == batch_size for size in sizes[:-1])
            assert all(0 < size <= batch_size for size in sizes)
            assert op.rows_out == len(expected)
            assert op.batches_out == len(batches)
        assert len(self.expected((1,), (1,))) == self.SIZE // 2


class TestCachedPlanConstants:
    """A cached plan's literals are parameter slots: a vectorised
    built-in must read them per execution, not bake them in."""

    def test_one_cached_plan_follows_each_literal(self, db, oracle):
        template = (
            "SELECT product, COUNT(*) FROM sales "
            "WHERE CHARINDEX('{needle}', product) = 0 GROUP BY product"
        )
        expected = {
            "w": ["gadget", "gizmo"],
            "z": ["gadget", "widget"],
            "g": [],
            "x": ["gadget", "gizmo", "widget"],
        }
        db.query(template.format(needle="q"))  # compile and cache
        hits = db.plan_cache.hits
        cached = {
            needle: db.query(template.format(needle=needle))
            for needle in expected
        }
        assert db.plan_cache.hits == hits + len(expected)
        for needle, products in expected.items():
            assert sorted(row[0] for row in cached[needle]) == products
            # a plan compiled for this literal alone, and the oracle
            sql = template.format(needle=needle)
            assert set(fresh_and_cached(db, sql)) == {repr(cached[needle])}
            assert_matches_oracle(db, oracle, sql)


class TestExplainLabels:
    SQL = (
        "SELECT region, COUNT(*), SUM(amount) FROM sales "
        "WHERE amount > 10 GROUP BY region"
    )

    def test_explain_shows_batch_mode(self, db, storage_engine):
        """Batch execution is the only mode, so EXPLAIN has nothing to
        label: no node carries a ``row mode`` / ``batch mode`` tag (the
        name dates from when it did)."""
        plan = db.explain(self.SQL)
        assert " mode" not in plan
        if storage_engine == "heap":
            assert "Table Scan" in plan
        else:
            assert "Columnstore Index Scan" in plan

    def test_scan_node_labels_storage_engine(self, db, storage_engine):
        plan = db.explain(self.SQL)
        assert f"storage={storage_engine}" in plan

    def test_explain_analyze_shows_batch_counts(self, db):
        # every node reports its batches, the row-loop operators (Sort)
        # included: they hand their output over in batches too
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT id FROM sales WHERE amount > 10 "
            "ORDER BY amount, id"
        )
        lines = [line for line in plan.splitlines() if "->" in line]
        assert any("Sort" in line for line in lines)
        assert all("actual rows=" in line for line in lines)
        assert all("batches=" in line for line in lines)
        assert " mode" not in plan


class TestBatchCounters:
    def test_statistics_io_reports_batch_reads(self, db):
        db.execute("SET STATISTICS IO ON")
        try:
            db.execute("SELECT COUNT(*) FROM sales WHERE amount > 10")
            message = next(
                m for m in db.messages if m.startswith("Table 'sales'")
            )
            assert "batch reads" in message
        finally:
            db.execute("SET STATISTICS IO OFF")

    def test_query_stats_view_has_batch_reads(self, db):
        db.query("SELECT COUNT(*) FROM sales WHERE amount > 15")
        rows = db.query(
            "SELECT query_text, total_batch_reads "
            "FROM sys_dm_exec_query_stats WHERE total_batch_reads > 0"
        )
        assert rows


class TestVectorPrimitives:
    def test_batches_from_rows_chunks(self, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 4)
        batches = list(batches_from_rows(iter(range(10))))
        assert [list(b) for b in batches] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]
        ]
        assert all(isinstance(b, RowBatch) for b in batches)

    def test_batches_from_rows_empty(self):
        assert list(batches_from_rows(iter(()))) == []

    def test_default_batch_size_resolved_at_call_time(self, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 3)
        batches = list(batches_from_rows(iter(range(7))))
        assert [len(b) for b in batches] == [3, 3, 1]


# ---------------------------------------------------------------------------
# golden genomics queries (Figures 9 and 10)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dge_warehouse(reference, genes, dge_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.load_genes(genes)
    wh.register_experiment(1, "dge", "dge")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, dge_reads)
    wh.bin_unique_tags(1, 1, 1)
    wh.align_tags(1, 1, 1)
    yield wh
    wh.close()


@pytest.fixture(scope="module")
def reseq_warehouse(reference, reseq_reads):
    wh = GenomicsWarehouse()
    wh.load_reference(reference)
    wh.register_experiment(1, "1000g", "resequencing")
    wh.register_sample_group(1, 1, "grp")
    wh.register_sample(1, 1, 1, "smp")
    wh.import_lane_relational(1, 1, 1, reseq_reads)
    wh.align_reads(1, 1, 1)
    yield wh
    wh.close()


def assert_one_answer(db, sql):
    """``sql`` gives one answer, to the repr, compiled fresh or served
    from the plan cache, with the plan sanitizer armed (and silent) or
    off; returns the rows."""
    prior = db.plan_verify
    reprs = []
    try:
        for verify in ("ON", "OFF"):
            db.execute(f"SET PLAN_VERIFY {verify}")
            reprs += fresh_and_cached(db, sql)
    finally:
        db.plan_verify = prior
    assert len(set(reprs)) == 1
    assert [row for row in db.lint_rows() if row[2].startswith("PLAN-")] == []
    return db.query(sql)


class TestGoldenQueries:
    def test_binning_identical(self, dge_warehouse):
        db = dge_warehouse.db
        by_dop = {
            dop: assert_one_answer(
                db, queries.query1_binning_sql(1, 1, 1, maxdop=dop)
            )
            for dop in (1, 2, 4)
        }
        assert by_dop[1] == by_dop[2] == by_dop[4]
        assert by_dop[1]  # non-vacuous

    def test_binning_identical_across_every_configuration(self, dge_reads):
        """Query 1 is byte-identical across heap/column x dop 1/2/4 x
        plan cache hit/fresh compile x PLAN_VERIFY on/off, with the plan
        sanitizer silent."""
        from repro.core.schemas import create_normalized_schema

        results = {}
        for storage in ("HEAP", "COLUMN"):
            db = Database()
            try:
                create_normalized_schema(db, storage=storage)
                table = db.table("Read")
                for r_id, record in enumerate(dge_reads, start=1):
                    table.insert(
                        (1, 1, 1, r_id, 1, 0, 0, 0,
                         record.sequence, record.quality)
                    )
                table.finish_bulk_load()
                for dop in (1, 2, 4):
                    sql = queries.query1_binning_sql(1, 1, 1, maxdop=dop)
                    results[storage, dop] = repr(assert_one_answer(db, sql))
            finally:
                db.close()
        assert len(results) == 6
        assert len(set(results.values())) == 1
        assert len(next(iter(results.values()))) > 1000  # non-vacuous

    def test_binning_plan_has_batch_labels(self, dge_warehouse):
        db = dge_warehouse.db
        sql = queries.query1_binning_sql(1, 1, 1)
        assert " mode" not in db.explain(sql)
        analyzed = db.execute("EXPLAIN ANALYZE " + sql)
        assert all(
            "batches=" in line
            for line in analyzed.splitlines()
            if line.lstrip().startswith("->") and "actual rows=" in line
        )

    def test_consensus_identical(self, reseq_warehouse):
        # consensus values are UDA result objects; the reprs compared
        # are their rendered form
        rows = assert_one_answer(
            reseq_warehouse.db, queries.query3_sliding_window_sql(1, 1, 1)
        )
        assert rows

    #: Python calls into the engine per alignment of one warm Query 3
    #: execution: the statement's own fixed cost spread over the
    #: fixture's alignments, plus what a row still costs (a
    #: minus-strand read's ReverseComplement memo and REVERSE call).
    #: A ceiling, not a figure: per-row glue may go, none may come back.
    CALLS_PER_ALIGNMENT = 2.24

    def test_consensus_calls_per_alignment(self, reseq_warehouse):
        db = reseq_warehouse.db
        sql = queries.query3_sliding_window_sql(1, 1, 1)
        engine = str(Path(database_module.__file__).parent)
        alignments = db.scalar("SELECT COUNT(*) FROM Alignment")
        expected = db.query(sql)  # warm: compiled, text registered
        count = 0

        def profile(frame, event, _arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(engine):
                count += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            rows = db.query(sql)
        finally:
            sys.setprofile(previous)
        assert rows == expected and alignments > 1000
        assert count / alignments <= self.CALLS_PER_ALIGNMENT, count / alignments

    def test_gene_expression_join_identical(self, dge_warehouse):
        sql = """
SELECT a_g_id, SUM(t_frequency), COUNT(a_t_id)
  FROM Alignment
  JOIN Tag ON (a_e_id = t_e_id AND a_sg_id = t_sg_id
               AND a_s_id = t_s_id AND a_t_id = t_id)
 WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
       AND a_g_id IS NOT NULL
 GROUP BY a_g_id
"""
        assert assert_one_answer(dge_warehouse.db, sql)
