"""Differential tests: batch-mode execution must be indistinguishable
from row mode except for speed.

Every query here runs twice — once with ``db.execution_mode = "row"``
(forcing the Volcano row-at-a-time interpreter) and once under ``"auto"``
(the planner picks batch mode wherever the pipeline supports it) — and
the results must match exactly, including row order, group order, and
float bit patterns.
"""

from __future__ import annotations

import pytest

from repro.core import GenomicsWarehouse, queries
from repro.engine.database import Database
from repro.engine.executor import vector
from repro.engine.executor.vector import RowBatch, batches_from_rows


def run_modes(db, sql):
    """Execute ``sql`` in row mode and in auto (batch) mode."""
    prior = db.execution_mode
    try:
        db.execution_mode = "row"
        row_rows = db.query(sql)
        db.execution_mode = "auto"
        batch_rows = db.query(sql)
    finally:
        db.execution_mode = prior
    return row_rows, batch_rows


def assert_identical(db, sql):
    row_rows, batch_rows = run_modes(db, sql)
    assert batch_rows == row_rows
    # float results must be bit-identical, not merely == (0.0 == -0.0)
    assert repr(batch_rows) == repr(row_rows)
    return row_rows


# ---------------------------------------------------------------------------
# synthetic-table differential suite
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["heap", "column"])
def storage_engine(request):
    return request.param


@pytest.fixture(scope="module")
def db(storage_engine):
    """The synthetic differential database, built once per storage
    engine: every test in this module runs against a heap-backed and a
    columnstore-backed ``sales`` table, and row/batch results must be
    byte-identical on both. A small SEGMENT_ROWS forces many sealed
    segments so encoded execution and zone maps actually engage."""
    with_clause = (
        " WITH (STORAGE = 'COLUMN', SEGMENT_ROWS = 256)"
        if storage_engine == "column"
        else ""
    )
    database = Database()
    database.execute(
        "CREATE TABLE sales (id INT PRIMARY KEY, region VARCHAR(10), "
        f"product VARCHAR(10), amount INT, price FLOAT){with_clause}"
    )
    regions = ["north", "south", "east", "west"]
    products = ["widget", "gadget", "gizmo"]
    values = []
    for i in range(2000):
        region = regions[i % 4]
        product = products[i % 3]
        amount = (i * 7) % 50 if i % 11 else "NULL"
        price = f"{(i % 13) * 2.5}" if i % 17 else "NULL"
        values.append(f"({i}, '{region}', '{product}', {amount}, {price})")
    database.execute("INSERT INTO sales VALUES " + ",".join(values))
    database.execute(
        "CREATE TABLE regions (name VARCHAR(10) PRIMARY KEY, zone INT)"
    )
    database.execute(
        "INSERT INTO regions VALUES ('north', 1), ('south', 1), "
        "('east', 2), ('west', 2)"
    )
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
    # NULL-handling: Kleene AND/OR must match row mode exactly
    "SELECT id FROM sales WHERE amount > 10 OR price > 20.0",
    "SELECT id FROM sales WHERE amount IS NULL",
    "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(price), "
    "MIN(amount), MAX(amount) FROM sales",
    # AVG float accumulation order must be identical across modes
    "SELECT region, AVG(price), SUM(price) FROM sales GROUP BY region",
    "SELECT region, COUNT(DISTINCT product) FROM sales GROUP BY region",
    # BETWEEN / IN list
    "SELECT id FROM sales WHERE amount BETWEEN 5 AND 15",
    "SELECT id FROM sales WHERE region IN ('north', 'east') AND amount > 30",
    # row-mode fallback inside a batch plan: LIKE is not batch-safe
    "SELECT id FROM sales WHERE product LIKE 'wid%' AND amount > 40",
    # CASE is not batch-safe either (short-circuit semantics)
    "SELECT id, CASE WHEN amount > 25 THEN 'hi' ELSE 'lo' END "
    "FROM sales WHERE id < 100",
    # hash join with residual
    "SELECT s.id, r.zone FROM sales AS s JOIN regions AS r "
    "ON s.region = r.name WHERE s.amount > 45",
    # HAVING over a batch aggregate
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
    # an arm row mode never evaluates: '/' stays row-at-a-time inside
    # an otherwise vectorised conjunction
    "SELECT id FROM sales WHERE amount > 0 AND 100 / amount > 3 "
    "AND LEN(region) = 4",
    # a UDF registered under a built-in's name (every database's
    # DATALENGTH) is called per row, never vectorised
    "SELECT id, DATALENGTH(region) FROM sales WHERE DATALENGTH(product) = 5",
]


class TestDifferential:
    @pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
    def test_row_and_batch_identical(self, db, sql):
        assert_identical(db, sql)

    def test_differential_queries_not_vacuous(self, db):
        for sql in DIFFERENTIAL_QUERIES:
            if "TOP" in sql or "CASE" in sql:
                continue
            assert db.query(sql), f"empty result defeats the test: {sql}"


# aggregate queries re-run under every DOP: parallel plans must be
# byte-identical to the forced-serial plan, including group order after
# the coordinator merge, on both storage engines and in both modes
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
    def test_parallel_identical_to_serial(self, db, sql, dop):
        serial_row, serial_batch = run_modes(db, sql + " OPTION (MAXDOP 1)")
        par_row, par_batch = run_modes(db, sql + f" OPTION (MAXDOP {dop})")
        assert repr(par_row) == repr(serial_row)
        assert repr(par_batch) == repr(serial_batch)
        assert repr(par_batch) == repr(par_row)
        assert serial_row, f"empty result defeats the test: {sql}"


class TestBoundaries:
    def test_empty_table(self, db):
        db.execute(
            "CREATE TABLE empty_t (id INT PRIMARY KEY, v INT)"
        )
        try:
            for sql in (
                "SELECT id, v FROM empty_t WHERE v > 0",
                "SELECT v, COUNT(*) FROM empty_t GROUP BY v",
                "SELECT COUNT(*) FROM empty_t",
            ):
                assert_identical(db, sql)
        finally:
            db.execute("DROP TABLE empty_t")

    def test_batch_size_one(self, db, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 1)
        assert_identical(
            db,
            "SELECT region, COUNT(*), SUM(amount) FROM sales "
            "WHERE amount > 10 GROUP BY region",
        )

    def test_batch_size_larger_than_table(self, db, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", 1_000_000)
        assert_identical(
            db, "SELECT id FROM sales WHERE amount > 10"
        )

    def test_top_stops_mid_batch(self, db):
        # TOP n smaller than one batch: the batch is trimmed, the rest
        # of the scan abandoned, and the result matches row mode
        rows = assert_identical(
            db, "SELECT TOP 3 id, amount FROM sales WHERE amount > 5"
        )
        assert len(rows) == 3

    def test_top_zero(self, db):
        rows = assert_identical(db, "SELECT TOP 0 id FROM sales")
        assert rows == []


class TestClusteredSeekBatches:
    """Clustered Index Seek / Scan hand the executor leaf runs
    re-chunked to the batch size; rows and order equal row mode."""

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

    def operators(self, table):
        from repro.engine.executor import ClusteredIndexScan, ClusteredIndexSeek

        return [
            lambda: ClusteredIndexSeek(table, (1,), (1,)),
            lambda: ClusteredIndexSeek(table, (0, 100), (1, 99)),
            lambda: ClusteredIndexSeek(table, (1, 7), (1, 7)),
            lambda: ClusteredIndexSeek(table, (5,), (5,)),
            lambda: ClusteredIndexSeek(table, None, None),
            lambda: ClusteredIndexScan(table),
            lambda: ClusteredIndexScan(table, projection=["v", "k"]),
        ]

    @pytest.mark.parametrize("batch_size", [1, 64, 1024, 1_000_000])
    def test_batches_equal_rows(self, table, batch_size, monkeypatch):
        monkeypatch.setattr(vector, "DEFAULT_BATCH_SIZE", batch_size)
        for make in self.operators(table):
            expected = list(make())
            op = make()
            assert op.batch_capable
            op.execution_mode = "batch"
            batches = list(op.iter_batches())
            assert all(isinstance(b, RowBatch) for b in batches)
            assert [row for b in batches for row in b] == expected
            # re-chunked: full batches, then one remainder
            sizes = [len(b) for b in batches]
            assert all(size == batch_size for size in sizes[:-1])
            assert all(0 < size <= batch_size for size in sizes)
            assert op.rows_out == len(expected)
        assert len(list(self.operators(table)[0]())) == self.SIZE // 2


class TestCachedPlanConstants:
    """A cached plan's literals are parameter slots: a vectorised
    built-in must read them per execution, not bake them in."""

    def test_one_cached_plan_follows_each_literal(self, db):
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
        assert db.execution_mode == "auto"
        db.query(template.format(needle="q"))  # compile and cache
        hits = db.plan_cache.hits
        cached = {
            needle: db.query(template.format(needle=needle))
            for needle in expected
        }
        assert db.plan_cache.hits == hits + len(expected)
        for needle, products in expected.items():
            assert sorted(row[0] for row in cached[needle]) == products
            # switching modes recompiles: a fresh plan per literal
            row_rows, batch_rows = run_modes(
                db, template.format(needle=needle)
            )
            assert repr(cached[needle]) == repr(batch_rows) == repr(row_rows)


class TestExplainLabels:
    SQL = (
        "SELECT region, COUNT(*), SUM(amount) FROM sales "
        "WHERE amount > 10 GROUP BY region"
    )

    def test_explain_shows_batch_mode(self, db, storage_engine):
        plan = db.explain(self.SQL)
        assert "batch mode" in plan
        if storage_engine == "heap":
            assert "Table Scan" in plan
        else:
            assert "Columnstore Index Scan" in plan

    def test_scan_node_labels_storage_engine(self, db, storage_engine):
        plan = db.explain(self.SQL)
        assert f"storage={storage_engine}" in plan

    def test_explain_analyze_shows_batch_counts(self, db):
        plan = db.execute("EXPLAIN ANALYZE " + self.SQL)
        assert "batch mode" in plan
        assert "batches=" in plan
        assert "actual rows=" in plan

    def test_forced_row_mode_has_no_batch_labels(self, db):
        prior = db.execution_mode
        try:
            db.execution_mode = "row"
            plan = db.execute("EXPLAIN ANALYZE " + self.SQL)
        finally:
            db.execution_mode = prior
        assert "batch mode" not in plan
        assert "batches=" not in plan
        assert "row mode" in plan

    def test_row_only_operator_stays_row_mode(self, db):
        # Sort has no batch variant: it runs in row mode inside an
        # otherwise batch plan (mixed-mode pipeline)
        plan = db.explain(
            "SELECT id FROM sales WHERE amount > 10 ORDER BY amount"
        )
        assert "Sort" in plan and "row mode" in plan
        assert "batch mode" in plan


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
    def test_batches_from_rows_chunks(self):
        batches = list(batches_from_rows(iter(range(10)), batch_size=4))
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


class TestGoldenQueries:
    def test_binning_identical(self, dge_warehouse):
        db = dge_warehouse.db
        sql = queries.query1_binning_sql(1, 1, 1)
        row_rows, batch_rows = run_modes(db, sql)
        assert batch_rows == row_rows
        assert row_rows  # non-vacuous

    def test_binning_identical_across_every_configuration(self, dge_reads):
        """Query 1 is byte-identical across heap/column x row/batch x
        dop 1/2, with the plan sanitizer armed and silent."""
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
                db.execute("SET PLAN_VERIFY ON")
                for dop in (1, 2):
                    sql = queries.query1_binning_sql(1, 1, 1, maxdop=dop)
                    row_rows, batch_rows = run_modes(db, sql)
                    results[storage, "row", dop] = repr(row_rows)
                    results[storage, "batch", dop] = repr(batch_rows)
                    # again, now from the plan cache
                    assert repr(db.query(sql)) == repr(batch_rows)
                assert [
                    row for row in db.lint_rows() if row[2].startswith("PLAN-")
                ] == []
            finally:
                db.close()
        assert len(results) == 8
        assert len(set(results.values())) == 1
        assert len(next(iter(results.values()))) > 1000  # non-vacuous

    def test_binning_plan_has_batch_labels(self, dge_warehouse):
        db = dge_warehouse.db
        sql = queries.query1_binning_sql(1, 1, 1)
        plan = db.explain(sql)
        assert "batch mode" in plan
        analyzed = db.execute("EXPLAIN ANALYZE " + sql)
        assert "batches=" in analyzed

    def test_consensus_identical(self, reseq_warehouse):
        db = reseq_warehouse.db
        sql = queries.query3_sliding_window_sql(1, 1, 1)
        prior = db.execution_mode
        try:
            db.execution_mode = "row"
            row_rows = db.query(sql)
            db.execution_mode = "auto"
            batch_rows = db.query(sql)
        finally:
            db.execution_mode = prior
        # consensus values are UDA result objects; compare rendered form
        assert repr(batch_rows) == repr(row_rows)
        assert row_rows

    def test_gene_expression_join_identical(self, dge_warehouse):
        db = dge_warehouse.db
        sql = """
SELECT a_g_id, SUM(t_frequency), COUNT(a_t_id)
  FROM Alignment
  JOIN Tag ON (a_e_id = t_e_id AND a_sg_id = t_sg_id
               AND a_s_id = t_s_id AND a_t_id = t_id)
 WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
       AND a_g_id IS NOT NULL
 GROUP BY a_g_id
"""
        rows = assert_identical(db, sql)
        assert rows
