"""Cost-based optimizer: logical IR, rewrites, statistics, and EXPLAIN
ANALYZE.

Covers the two-phase planner: AST → logical plan (+ rewrite rules) →
costed physical plan; ``UPDATE STATISTICS`` / ``ANALYZE`` collection;
histogram / MCV estimation quality on skewed data; and the golden plan
shapes of the paper's Figures 9 and 10 (which must survive the
optimizer rewrite).
"""

import re

import pytest

from repro.engine import Database
from repro.engine.optimizer import (
    CostModel,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    apply_rewrites,
    lower_select,
)
from repro.engine.sql.parser import parse_sql


@pytest.fixture
def db():
    with Database() as database:
        database.execute(
            """
            CREATE TABLE orders (
                region INT, store INT, order_id INT, amount INT,
                PRIMARY KEY (region, store, order_id)
            );
            CREATE TABLE stores (
                st_region INT, st_store INT, st_name VARCHAR(20),
                PRIMARY KEY (st_region, st_store)
            );
            """
        )
        for region in range(2):
            for store in range(3):
                database.execute(
                    f"INSERT INTO stores VALUES ({region}, {store}, 's{region}{store}')"
                )
                for order in range(5):
                    database.execute(
                        f"INSERT INTO orders VALUES ({region}, {store}, {order}, {order * 10})"
                    )
        yield database


def _select(db, sql):
    (stmt,) = parse_sql(sql)
    return stmt


def _find(node, node_type):
    found = []
    if isinstance(node, node_type):
        found.append(node)
    for child in node.children():
        found.extend(_find(child, node_type))
    return found


# -- logical plan IR -----------------------------------------------------------


class TestLogicalPlan:
    def test_lower_select_builds_spine(self, db):
        stmt = _select(
            db,
            "SELECT region, COUNT(*) FROM orders "
            "WHERE amount > 5 GROUP BY region ORDER BY region",
        )
        plan = lower_select(stmt, db.catalog)
        spine, node = [], plan.root
        while node is not None:
            spine.append(node)
            node = next(iter(node.children()), None)
        # top-down: Project above Sort above Aggregate above Filter above Get
        assert [type(n).__name__ for n in spine] == [
            "LogicalProject", "LogicalSort", "LogicalAggregate",
            "LogicalFilter", "LogicalGet",
        ]
        assert spine[3].kind == "WHERE"
        assert spine[4].binding == "orders"

    def test_pushdown_moves_where_below_join(self, db):
        stmt = _select(
            db,
            "SELECT st_name FROM orders "
            "JOIN stores ON (region = st_region AND store = st_store) "
            "WHERE region = 1 AND st_name = 's11'",
        )
        plan = lower_select(stmt, db.catalog)
        apply_rewrites(plan, db.catalog)
        # no WHERE filter survives above the join; each conjunct sits on
        # its own source
        assert not [
            f
            for f in _find(plan.root, LogicalFilter)
            if f.kind == "WHERE"
        ]
        pushed = [
            f
            for f in _find(plan.root, LogicalFilter)
            if f.kind == "PUSHED"
        ]
        assert len(pushed) == 2
        targets = {f.child.binding for f in pushed}
        assert targets == {"orders", "stores"}

    def test_pruning_records_required_columns(self, db):
        stmt = _select(
            db, "SELECT amount FROM orders WHERE region = 1"
        )
        plan = lower_select(stmt, db.catalog)
        apply_rewrites(plan, db.catalog)
        (get,) = _find(plan.root, LogicalGet)
        assert get.required == ("region", "amount")

    def test_select_star_disables_pruning(self, db):
        stmt = _select(db, "SELECT * FROM orders WHERE region = 1")
        plan = lower_select(stmt, db.catalog)
        apply_rewrites(plan, db.catalog)
        (get,) = _find(plan.root, LogicalGet)
        assert get.required is None

    def test_join_reorder_puts_smallest_unit_first(self, db):
        db.execute(
            """
            CREATE TABLE big (b_k INT, b_pad INT, PRIMARY KEY (b_k, b_pad));
            CREATE TABLE mid (m_k INT PRIMARY KEY);
            CREATE TABLE tiny (t_k INT PRIMARY KEY);
            """
        )
        for i in range(40):
            db.execute(f"INSERT INTO big VALUES ({i % 4}, {i})")
        for i in range(12):
            db.execute(f"INSERT INTO mid VALUES ({i})")
        for i in range(3):
            db.execute(f"INSERT INTO tiny VALUES ({i})")
        stmt = _select(
            db,
            "SELECT b_pad FROM big "
            "JOIN mid ON (b_k = m_k) JOIN tiny ON (m_k = t_k)",
        )
        plan = lower_select(stmt, db.catalog)
        apply_rewrites(plan, db.catalog, CostModel())
        joins = _find(plan.root, LogicalJoin)
        # tiny (3 rows) is chosen as the first (deepest-left) unit
        deepest_left = joins[-1].left
        assert isinstance(deepest_left, LogicalGet)
        assert deepest_left.binding == "tiny"
        # reordering must not change the result
        rows = db.query(
            "SELECT b_pad FROM big "
            "JOIN mid ON (b_k = m_k) JOIN tiny ON (m_k = t_k)"
        )
        assert sorted(r[0] for r in rows) == sorted(
            i for i in range(40) if i % 4 < 3
        )

    def test_two_way_join_keeps_written_order(self, db):
        stmt = _select(
            db,
            "SELECT st_name FROM orders "
            "JOIN stores ON (region = st_region AND store = st_store)",
        )
        plan = lower_select(stmt, db.catalog)
        apply_rewrites(plan, db.catalog)
        (join,) = _find(plan.root, LogicalJoin)
        left = join.left
        while not isinstance(left, LogicalGet):
            left = left.children()[0]
        assert left.binding == "orders"


# -- projection pruning, physical level ---------------------------------------


class TestProjectionPruning:
    def test_scan_narrowed_to_referenced_columns(self, db):
        plan = db.explain("SELECT amount FROM orders WHERE store = 1")
        assert "Table Scan [orders] (storage=heap; cols: store, amount)" in plan

    def test_pruned_results_correct(self, db):
        rows = db.query("SELECT amount FROM orders WHERE store = 1")
        assert sorted(r[0] for r in rows) == sorted(
            [o * 10 for o in range(5)] * 2
        )

    def test_star_keeps_full_scan(self, db):
        plan = db.explain("SELECT * FROM orders WHERE store = 1")
        assert "(cols:" not in plan

    def test_pruned_group_by_still_streams(self, db):
        # region is the leading clustered-key column: the pruned scan
        # must still upgrade to an ordered scan and stream the aggregate
        plan = db.explain(
            "SELECT region, COUNT(*) FROM orders GROUP BY region"
        )
        assert "Stream Aggregate" in plan
        assert "Sort" not in plan
        rows = db.query(
            "SELECT region, COUNT(*) FROM orders GROUP BY region"
        )
        assert sorted(rows) == [(0, 15), (1, 15)]


# -- statistics collection -----------------------------------------------------


class TestUpdateStatistics:
    def test_update_statistics_statement(self, db):
        assert db.table("orders").statistics is None
        result = db.execute("UPDATE STATISTICS orders")
        assert result == 0
        stats = db.table("orders").statistics
        assert stats is not None
        assert stats.row_count == 30
        assert stats.n_distinct("region") == 2
        assert stats.n_distinct("amount") == 5
        col = stats.column("amount")
        assert (col.min_value, col.max_value) == (0, 40)

    def test_analyze_statement_form(self, db):
        db.execute("ANALYZE stores")
        assert db.table("stores").statistics.row_count == 6

    def test_reanalyze_bumps_version(self, db):
        db.execute("UPDATE STATISTICS orders")
        epoch = db.stats_epoch
        db.execute("INSERT INTO orders VALUES (9, 9, 9, 999)")
        db.execute("UPDATE STATISTICS orders")
        assert db.table("orders").statistics.row_count == 31
        assert db.stats_epoch == epoch + 1

    def test_histogram_within_2x_on_skewed_data(self, db):
        db.execute("CREATE TABLE skew (id INT PRIMARY KEY, v INT)")
        # heavy skew: v=1 owns 200 rows (one hot chromosome), the rest
        # spread over 2..61
        rows = [1] * 200 + [2 + (i % 60) for i in range(300)]
        for i, v in enumerate(rows):
            db.execute(f"INSERT INTO skew VALUES ({i}, {v})")
        db.execute("UPDATE STATISTICS skew")
        col = db.table("skew").statistics.column("v")

        # equality on the hot value is exact via the MCV list
        actual_hot = sum(1 for v in rows if v == 1)
        est_hot = col.eq_selectivity(1) * len(rows)
        assert actual_hot / 2 <= est_hot <= actual_hot * 2

        # range estimates from the equi-depth histogram stay within 2x
        for hi in (10, 30, 50):
            actual = sum(1 for v in rows if 2 <= v <= hi)
            est = col.range_selectivity(lo=2, hi=hi) * len(rows)
            assert actual / 2 <= est <= actual * 2, (hi, est, actual)


    def test_first_histogram_bucket_interpolates_from_the_minimum(self, db):
        db.execute("CREATE TABLE m (m_id INT PRIMARY KEY, v INT)")
        db.table("m").insert_many([(i, i) for i in range(5000)])
        db.execute("UPDATE STATISTICS m")
        col = db.table("m").statistics.column("v")
        # inside the first bucket (0..155): 11 rows, not 0
        assert 10 <= col.range_selectivity(lo=10, hi=20) * 5000 <= 11
        assert col.range_selectivity(col.min_value, col.max_value) == 1.0
        plan = db.explain("SELECT * FROM m WHERE v BETWEEN 10 AND 20")
        assert _first_est(plan, "Filter") == 10


# -- selectivity regressions ---------------------------------------------------


def _first_est(plan_text, label):
    """est. rows on the first plan line containing ``label``."""
    for line in plan_text.splitlines():
        if label in line:
            match = re.search(r"est\. rows=(\d+)", line)
            assert match, f"no estimate on line: {line}"
            return int(match.group(1))
    raise AssertionError(f"no line containing {label!r} in:\n{plan_text}")


class TestSelectivityRegression:
    def test_full_clustered_key_equality_estimates_one_row(self, db):
        plan = db.explain(
            "SELECT * FROM orders "
            "WHERE region = 1 AND store = 1 AND order_id = 1"
        )
        assert _first_est(plan, "Clustered Index Seek") == 1

    def test_non_key_equality_uses_distinct_counts(self, db):
        db.execute("UPDATE STATISTICS orders")
        # amount has 5 distinct values uniformly over 30 rows -> 6
        plan = db.explain("SELECT * FROM orders WHERE amount = 10")
        assert _first_est(plan, "Filter") == 6

    def test_non_key_equality_default_without_statistics(self, db):
        # without statistics the default 10% equality selectivity applies
        plan = db.explain("SELECT * FROM orders WHERE amount = 10")
        assert _first_est(plan, "Filter") == 3

    def test_statistics_change_join_input_order_estimates(self, db):
        db.execute("UPDATE STATISTICS orders")
        db.execute("UPDATE STATISTICS stores")
        plan = db.explain(
            "SELECT st_name, amount FROM orders "
            "JOIN stores ON (region = st_region AND store = st_store)"
        )
        # |orders| * |stores| / (ndv(region) * ndv(store)) = 30*6/(2*3)
        assert _first_est(plan, "Merge Join") == 30


# -- cost-based decisions ------------------------------------------------------


class TestCostBasedDecisions:
    def test_unselective_seek_prices_out_to_scan(self, db):
        db.execute("CREATE TABLE events (ev_id INT PRIMARY KEY, kind VARCHAR(10))")
        db.execute("CREATE INDEX ix_kind ON events (kind)")
        for i in range(100):
            kind = "hot" if i < 90 else f"cold{i % 5}"
            db.execute(f"INSERT INTO events VALUES ({i}, '{kind}')")
        db.execute("UPDATE STATISTICS events")
        # 90/100 rows match: bookmark lookups cost more than the scan
        hot = db.explain("SELECT * FROM events WHERE kind = 'hot'")
        assert "Index Seek" not in hot
        assert "Table Scan" in hot
        # 2/100 rows match: the seek wins
        cold = db.explain("SELECT * FROM events WHERE kind = 'cold0'")
        assert "Index Seek [events.ix_kind]" in cold
        assert db.query(
            "SELECT COUNT(*) FROM events WHERE kind = 'cold0'"
        ) == [(2,)]

    def test_maxdop_hint_still_forces_parallel(self, db):
        plan = db.explain(
            "SELECT store, COUNT(*) FROM orders GROUP BY store "
            "OPTION (MAXDOP 4)"
        )
        assert "Gather Streams" in plan


# -- EXPLAIN annotations and EXPLAIN ANALYZE ----------------------------------


class TestExplainAnnotations:
    def test_every_node_carries_estimates(self, db):
        plan = db.explain(
            "SELECT st_name, amount FROM orders "
            "JOIN stores ON (region = st_region AND store = st_store) "
            "WHERE region = 1"
        )
        for line in plan.splitlines():
            if line.lstrip().startswith("->"):
                assert "est. rows=" in line and "cost=" in line, line

    def test_explain_analyze_reports_actual_rows(self, db):
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT * FROM orders WHERE region = 1"
        )
        assert "actual rows=15" in plan
        assert "est. rows=" in plan

    def test_explain_analyze_via_explain_api(self, db):
        plan = db.explain(
            "EXPLAIN ANALYZE SELECT amount FROM orders "
            "WHERE region = 1 AND store = 1 AND order_id = 1"
        )
        seek_line = next(
            line
            for line in plan.splitlines()
            if "Clustered Index Seek" in line
        )
        assert "est. rows=1" in seek_line
        assert "actual rows=1" in seek_line

    def test_plain_explain_has_no_actuals(self, db):
        plan = db.explain("SELECT * FROM orders WHERE region = 1")
        assert "actual rows=" not in plan

    def test_estimates_match_actuals_after_analyze(self, db):
        db.execute("UPDATE STATISTICS orders")
        plan = db.execute(
            "EXPLAIN ANALYZE SELECT * FROM orders WHERE amount = 10"
        )
        filter_line = next(
            line for line in plan.splitlines() if "Filter" in line
        )
        est = int(re.search(r"est\. rows=(\d+)", filter_line).group(1))
        actual = int(
            re.search(r"actual rows=(\d+)", filter_line).group(1)
        )
        assert actual == 6
        assert est == actual


# -- golden plan shapes (Figures 9 and 10) ------------------------------------


class TestGoldenPlanShapes:
    """The paper's plan shapes, reduced to engine-level fixtures; the
    full-warehouse versions live in benchmarks/bench_queryplans.py."""

    @pytest.fixture
    def genomics_db(self):
        with Database() as database:
            database.execute(
                """
                CREATE TABLE [Read] (
                    r_e_id INT, r_sg_id INT, r_s_id INT, r_id INT,
                    short_read_seq VARCHAR(20),
                    PRIMARY KEY (r_e_id, r_sg_id, r_s_id, r_id)
                );
                CREATE TABLE Alignment (
                    a_e_id INT, a_sg_id INT, a_s_id INT, a_id INT,
                    a_pos INT,
                    PRIMARY KEY (a_e_id, a_sg_id, a_s_id, a_id)
                );
                """
            )
            for i in range(12):
                database.execute(
                    f"INSERT INTO [Read] VALUES (1, 1, 1, {i}, 'ACGT{i % 3}')"
                )
                database.execute(
                    f"INSERT INTO Alignment VALUES (1, 1, 1, {i}, {i * 7})"
                )
            yield database

    def test_figure9_parallel_aggregation_shape(self, genomics_db):
        plan = genomics_db.explain(
            """
            SELECT short_read_seq, COUNT(*) AS frequency FROM [Read]
            WHERE r_e_id = 1 AND r_sg_id = 1 AND r_s_id = 1
            GROUP BY short_read_seq
            OPTION (MAXDOP 4)
            """
        )
        assert "Parallelism (Gather Streams" in plan
        assert "Hash Match (Partial Aggregate: COUNT(*)) [DOP=4" in plan
        assert "Clustered Index Seek [Read]" in plan

    def test_unhinted_query1_plans_serial(self, genomics_db):
        """The decision PR 21 took from the benchmark: on a par with the
        serial plan is not worth a second copy of the process, so
        Query 1 runs on workers only where it is asked to."""
        sql = (
            "SELECT short_read_seq, COUNT(*) AS frequency FROM [Read] "
            "WHERE r_e_id = 1 AND r_sg_id = 1 AND r_s_id = 1 "
            "AND CHARINDEX('N', short_read_seq) = 0 "
            "GROUP BY short_read_seq"
        )
        assert "Gather Streams" not in genomics_db.explain(sql)
        assert "Gather Streams" in genomics_db.explain(
            sql + " OPTION (MAXDOP 2)"
        )

    def test_figure10_merge_join_shape(self, genomics_db):
        plan = genomics_db.explain(
            """
            SELECT a_id, short_read_seq FROM Alignment
            JOIN [Read] ON (a_e_id = r_e_id AND a_sg_id = r_sg_id
                            AND a_s_id = r_s_id AND a_id = r_id)
            WHERE a_e_id = 1 AND a_sg_id = 1 AND a_s_id = 1
            """
        )
        assert "Merge Join" in plan
        assert "Clustered Index Seek [Alignment]" in plan
        assert "Sort" not in plan
