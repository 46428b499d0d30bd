"""Planner: access paths, join selection, aggregation strategy."""

import pytest

from repro.engine import Database
from repro.engine.errors import TypeMismatchError
from repro.engine.executor import ClusteredIndexSeek, SecondaryIndexSeek
from repro.engine.optimizer.cost import CostModel
from repro.engine.udf import UserDefinedAggregate


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


class TestAccessPaths:
    def test_full_scan_without_predicate(self, db):
        assert "Table Scan [orders]" in db.explain("SELECT * FROM orders")

    def test_pk_prefix_becomes_seek(self, db):
        plan = db.explain("SELECT * FROM orders WHERE region = 1")
        assert "Clustered Index Seek" in plan
        assert "Filter" not in plan  # fully consumed by the seek

    def test_partial_prefix_seek_with_residual(self, db):
        plan = db.explain(
            "SELECT * FROM orders WHERE region = 1 AND amount > 20"
        )
        assert "Clustered Index Seek" in plan
        assert "Filter" in plan

    def test_non_prefix_predicate_stays_filter(self, db):
        plan = db.explain("SELECT * FROM orders WHERE store = 1")
        assert "Table Scan" in plan and "Filter" in plan

    def test_prefix_seek_is_estimated_from_the_btree(self, db):
        orders = db.table("orders")
        before = orders.io_report()
        plan = db.plan("SELECT * FROM orders WHERE region = 1 AND store = 2")
        (seek,) = [
            node for node in plan.nodes() if not node.children()
        ]
        assert seek.node_label.startswith("Clustered Index Seek [orders]")
        assert seek.est_rows == 5
        # the count charges no seek, node visit or page read
        assert orders.io_report() == before

    def test_equality_seek_bounds_are_one_tuple(self, db):
        # an exchange pickles a shared bound once: what a worker is sent
        # for an equality seek holds its key once
        plan = db.plan("SELECT * FROM orders WHERE region = 1 AND store = 2")
        (seek,) = [node for node in plan.nodes() if not node.children()]
        assert seek.lo is seek.hi

    @pytest.mark.parametrize(
        "lo, hi, hi_inclusive, rows",
        [
            ((1,), (1,), True, 15),            # an equality prefix
            ((1, 0), (1, 2), False, 10),       # a range, its end excluded
        ],
    )
    def test_a_seek_prices_its_own_range(self, db, lo, hi, hi_inclusive, rows):
        """A clustered seek built and annotated outside the planner
        counts its range in the B+tree."""
        orders = db.table("orders")
        seek = ClusteredIndexSeek(orders, lo, hi, hi_inclusive=hi_inclusive)
        cost = CostModel()
        cost.annotate(seek)
        assert seek.est_rows == len(list(seek)) == rows
        assert seek.est_cost == cost.seek_cost(rows)

    def test_seek_results_correct(self, db):
        rows = db.query(
            "SELECT order_id FROM orders WHERE region = 1 AND store = 2"
        )
        assert sorted(r[0] for r in rows) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "where, keep, rows",
        [
            ("region = 1 AND store BETWEEN 1 AND 2",
             lambda r, s: r == 1 and 1 <= s <= 2, 10),
            ("region = 1 AND store > 0 AND store < 2",
             lambda r, s: r == 1 and 0 < s < 2, 5),
            ("region = 0 AND 1 <= store", lambda r, s: r == 0 and s >= 1, 10),
            ("region >= 1", lambda r, s: r >= 1, 15),
            ("region < 1.5", lambda r, s: r < 1.5, 30),
            ("region BETWEEN 1 AND 0", lambda r, s: False, 1),
            # both bounds are the whole key, and one end excludes it
            ("region = 1 AND store = 2 AND order_id > 3 AND order_id <= 3",
             lambda r, s: False, 1),
        ],
    )
    def test_key_range_becomes_an_exactly_counted_seek(
        self, db, where, keep, rows
    ):
        """An equality prefix plus a range on the next key column: one
        seek, no Filter left, estimated by counting the range."""
        sql = f"SELECT region, store, order_id FROM orders WHERE {where}"
        plan = db.plan(sql)
        (seek,) = [node for node in plan.nodes() if not node.children()]
        assert seek.node_label.startswith("Clustered Index Seek [orders]")
        assert "Filter" not in db.explain(sql)
        assert seek.est_rows == rows
        expected = sorted(
            row[:3] for row in db.table("orders").scan() if keep(*row[:2])
        )
        assert sorted(db.query(sql)) == expected

    @pytest.mark.parametrize(
        "where",
        [
            "region BETWEEN NULL AND 1",    # a NULL bound matches nothing
            "region < NULL",
            "region < 'x'",                 # not the key's order family
            "store BETWEEN 1 AND 2",        # no equality on region first
            "store > 1",
        ],
    )
    def test_ineligible_range_stays_a_filter(self, db, where):
        plan = db.explain(f"SELECT * FROM orders WHERE {where}")
        assert "Seek" not in plan
        assert "Filter" in plan

    @pytest.mark.parametrize(
        "key_type, options, stored, where, seeks",
        [
            # a text literal never orders against BINARY(4) bytes
            ("BINARY(4)", "", [b"ab"], "c_key >= 'a'", False),
            # ROW compression keeps an undeclared-width CHAR's trailing
            # spaces, so the B+tree key is the value a scan compares
            ("CHAR(MAX)", " WITH (DATA_COMPRESSION = ROW)", ["a ", "a"],
             "c_key <= 'a'", True),
            ("CHAR(MAX)", " WITH (DATA_COMPRESSION = ROW)", ["a ", "a"],
             "c_key > 'a'", True),
            # an equality seek is the range from a key to itself, and
            # 'a ' never equals 'a'
            ("CHAR(MAX)", " WITH (DATA_COMPRESSION = ROW)", ["a ", "a"],
             "c_key = 'a '", True),
            ("CHAR(MAX)", " WITH (DATA_COMPRESSION = ROW)", ["a ", "a"],
             "c_key = 'a'", True),
        ],
    )
    def test_range_seek_needs_a_key_that_round_trips(
        self, db, key_type, options, stored, where, seeks
    ):
        """Every key round-trips: the validated value is the one the page
        decodes. So a range of the key's order family seeks and returns
        what a scan of a twin with no primary key returns, which compares
        exactly."""
        for name, key in (("codes", " PRIMARY KEY"), ("twin", "")):
            db.execute(
                f"CREATE TABLE {name} (c_key {key_type}{key}, c_n INT)"
                f"{options}"
            )
            db.table(name).insert_many(
                [(value, n) for n, value in enumerate(stored)]
            )
        sql = "SELECT c_key, c_n FROM {} WHERE " + where
        assert ("Seek" in db.explain(sql.format("codes"))) == seeks
        if seeks:
            assert sorted(db.query(sql.format("codes"))) == sorted(
                db.query(sql.format("twin"))
            )

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE ints (k INT PRIMARY KEY, v INT)",
            "CREATE TABLE ints (id INT PRIMARY KEY, k INT, v INT);"
            "CREATE INDEX ix_k ON ints (k)",
        ],
    )
    def test_key_of_another_order_family_is_no_seek(self, db, ddl):
        db.execute(ddl)
        columns = len(db.table("ints").schema.columns)
        db.table("ints").insert_many(
            [tuple(range(n, n + columns)) for n in range(50)]
        )
        # an INT key is never searched for a string: the conjunct stays
        # in the Filter, which finds no equal value, as a scan does
        sql = "SELECT v FROM ints WHERE k = 'x'"
        assert "Seek" not in db.explain(sql)
        assert db.query(sql) == []
        assert "Seek" not in db.explain(
            "SELECT v FROM ints WHERE k > 'a' AND k < 'z'"
        )
        assert "Seek" in db.explain("SELECT v FROM ints WHERE k = 7")

    @pytest.mark.parametrize("column", ["k", "v"])  # the key, and not
    @pytest.mark.parametrize(
        "where", ["{} > 'a'", "'a' <= {}", "{} BETWEEN 1 AND 'a'"]
    )
    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE ints (k INT PRIMARY KEY, v INT)",
            "CREATE TABLE ints (k INT, v INT) WITH (STORAGE = 'COLUMN')",
        ],
    )
    def test_range_across_order_families_is_a_conversion_error(
        self, db, ddl, column, where
    ):
        db.execute(ddl)
        db.execute("INSERT INTO ints VALUES (1, 10), (2, 20)")
        sql = f"SELECT v FROM ints WHERE {where.format(column)}"
        for _ in range(2):  # compiled, then from the plan cache
            with pytest.raises(TypeMismatchError, match=f"'{column}'.*'a'"):
                db.query(sql)
        # the cached plan names this execution's literal
        with pytest.raises(TypeMismatchError, match="'b'"):
            db.query(sql.replace("'a'", "'b'"))
        # equality across families stays a comparison that finds nothing
        assert db.query(f"SELECT v FROM ints WHERE {column} = 'a'") == []

    @pytest.mark.parametrize("column", ["k", "v"])
    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE TABLE ints (k INT PRIMARY KEY, v INT)",
            "CREATE TABLE ints (k INT, v INT) WITH (STORAGE = 'COLUMN')",
        ],
    )
    def test_update_and_delete_raise_the_same_conversion_error(
        self, db, ddl, column
    ):
        db.execute(ddl)
        db.execute("INSERT INTO ints VALUES (1, 10), (2, 20)")
        for sql in (
            f"UPDATE ints SET v = 0 WHERE {column} > 'a'",
            f"DELETE FROM ints WHERE 'a' <= {column}",
            f"DELETE FROM ints WHERE {column} BETWEEN 1 AND 'a'",
        ):
            with pytest.raises(TypeMismatchError, match=f"'{column}'.*'a'"):
                db.execute(sql)
        assert db.query("SELECT k, v FROM ints") == [(1, 10), (2, 20)]
        assert db.execute(f"DELETE FROM ints WHERE {column} = 'a'") == 0


class TestJoinSelection:
    def test_merge_join_when_both_clustered(self, db):
        plan = db.explain(
            """
            SELECT st_name, amount FROM orders
            JOIN stores ON (region = st_region AND store = st_store)
            """
        )
        assert "Merge Join" in plan
        assert "Clustered Index Scan" in plan

    def test_hash_join_when_no_order(self, db):
        db.execute(
            "CREATE TABLE lookup (code INT PRIMARY KEY, amt INT);"
            "INSERT INTO lookup VALUES (0, 0), (10, 1);"
        )
        plan = db.explain(
            "SELECT * FROM orders JOIN lookup ON (amount = amt)"
        )
        assert "Hash Match (Inner Join)" in plan

    def test_join_results_identical_between_algorithms(self, db):
        merge_rows = db.query(
            """
            SELECT st_name, amount FROM orders
            JOIN stores ON (region = st_region AND store = st_store)
            """
        )
        # force hash join by breaking order on one side via subquery
        hash_rows = db.query(
            """
            SELECT st_name, amount FROM orders
            JOIN (SELECT st_region AS r2, st_store AS s2, st_name FROM stores) AS s
            ON (region = r2 AND store = s2)
            """
        )
        assert sorted(merge_rows) == sorted(hash_rows)

    def test_join_residual_is_a_filter_above_the_join(self, db):
        db.execute(
            "CREATE TABLE lhs (lid INT PRIMARY KEY, lk INT, lv INT);"
            "CREATE TABLE rhs (rid INT PRIMARY KEY, rk INT, rv INT);"
            "INSERT INTO lhs VALUES (0, 1, 10), (1, 1, 20);"
            "INSERT INTO rhs VALUES (0, 1, 15);"
        )
        sql = "SELECT lv, rv FROM lhs JOIN rhs ON (lk = rk AND lv > rv)"
        lines = [line.strip() for line in db.explain(sql).splitlines()]
        assert lines[1].startswith("-> Filter (join residual: (lv > rv))")
        assert lines[2].startswith("-> Hash Match (Inner Join)")
        assert db.query(sql) == [(20, 15)]

    def test_key_lookup_join_seeks_the_inner_clustered_key(self, db):
        db.execute(
            "CREATE TABLE sites (s_region INT, s_store INT, s_name "
            "VARCHAR(8), PRIMARY KEY (s_region, s_store));"
            "CREATE TABLE visits (v_id INT PRIMARY KEY, v_region INT, "
            "v_store INT);"
            "INSERT INTO visits VALUES (0, 1, 2), (1, NULL, 0), (2, 0, 1),"
            " (3, 1, 99), (4, 1, 2);"
        )
        db.execute(
            "INSERT INTO sites VALUES "
            + ", ".join(
                f"({r}, {s}, 's{r}{s}')" for r in range(10) for s in range(10)
            )
        )
        sql = (
            "SELECT v_id, s_name FROM visits "
            "JOIN sites ON (v_store = s_store AND v_region = s_region) "
            "WHERE v_id IN (4, 1, 0, 2, 3)"
        )
        plan = db.plan(sql)
        assert plan.explain().splitlines()[1].strip().startswith(
            "-> Nested Loops (Inner Join, Key Lookup [sites])"
        )
        # the NULL and the missing key never match; visit order survives
        assert db.query(sql) == [(0, "s12"), (2, "s01"), (4, "s12")]
        seeks = db.table("sites").io_report()["index_seeks"]
        assert db.query(sql + " AND s_name <> 's01'") == [
            (0, "s12"),
            (4, "s12"),
        ]
        # one lookup per distinct outer key of the batch: (1, 2) once
        assert db.table("sites").io_report()["index_seeks"] == seeks + 3
        # the exchange never ships it: a hinted aggregate over it runs
        # serially, and says so
        grouped = (
            "SELECT s_name, COUNT(*) FROM visits "
            "JOIN sites ON (v_store = s_store AND v_region = s_region) "
            "WHERE v_id IN (4, 1, 0, 2, 3) GROUP BY s_name"
        )
        hinted = db.explain(grouped + " OPTION (MAXDOP 2)")
        assert "Key Lookup [sites]" in hinted and "note:" in hinted
        assert sorted(db.query(grouped + " OPTION (MAXDOP 2)")) == [
            ("s01", 1),
            ("s12", 2),
        ]

    def test_the_cheapest_join_candidate_is_kept(self, db):
        """Merge, hash and key lookup are priced alike and the cheapest
        is kept: a merge join cheaper than the hash join still loses to
        one lookup per outer row."""
        db.execute(
            "CREATE TABLE few (k INT PRIMARY KEY, fv INT);"
            "CREATE TABLE many (mk INT PRIMARY KEY, mv INT);"
            "INSERT INTO few VALUES " + ", ".join(
                f"({i}, {i})" for i in range(50)
            ) + ";"
            "INSERT INTO many VALUES " + ", ".join(
                f"({i}, {2 * i})" for i in range(500)
            )
        )
        sql = "SELECT fv, mv FROM few JOIN many ON k = mk WHERE k = 5"
        plan = db.plan(sql)
        (join,) = [
            node for node in plan.nodes() if "Join" in node.node_label
        ]
        assert join.node_label.startswith(
            "Nested Loops (Inner Join, Key Lookup [many])"
        )
        # a merge join would read all of many in key order
        assert join.est_cost < 500 * CostModel.ordered_scan_row_cost
        assert db.query(sql) == [(5, 10)]

    def test_a_join_key_on_the_lookup_inner_side_has_its_distinct_count(
        self, db
    ):
        """A key lookup passes its inner table's columns on: a later
        join on one of them is estimated from its distinct count."""
        db.execute(
            "CREATE TABLE probe (p_id INT PRIMARY KEY, g_id INT);"
            "CREATE TABLE gene (g_id INT PRIMARY KEY, f_id INT);"
            "CREATE TABLE fam (f_key INT, fname VARCHAR(8));"
            "INSERT INTO probe VALUES " + ", ".join(
                f"({i}, {i % 20})" for i in range(100)
            ) + ";"
            "INSERT INTO gene VALUES " + ", ".join(
                f"({i}, {i % 4})" for i in range(20)
            ) + ";"
            "INSERT INTO fam VALUES " + ", ".join(
                f"({i % 4}, 'f{i}')" for i in range(40)
            ) + ";"
            "UPDATE STATISTICS probe; UPDATE STATISTICS gene"
        )
        sql = (
            "SELECT p.p_id, f.fname FROM probe p "
            "JOIN gene g ON p.g_id = g.g_id "
            "JOIN fam f ON g.f_id = f.f_key WHERE p.p_id = 3"
        )
        plan = db.plan(sql)
        joins = [
            node for node in plan.nodes() if "Join" in node.node_label
        ]
        assert [j.node_label.split(" (")[0] for j in joins] == [
            "Hash Match", "Nested Loops",
        ]
        # fam has no statistics; gene.f_id has 4 values: 1 * 40 / 4
        assert joins[0].est_rows == 10
        assert len(db.query(sql)) == 10

    def test_key_lookup_join_needs_the_whole_key(self, db):
        db.execute(
            "CREATE TABLE visits (v_id INT PRIMARY KEY, v_region INT);"
            "INSERT INTO visits VALUES (0, 1), (1, 0);"
        )
        sql = (
            "SELECT v_id, st_name FROM visits "
            "JOIN stores ON (v_region = st_region) WHERE v_id = 0"
        )
        assert "Hash Match (Inner Join)" in db.explain(sql)
        assert len(db.query(sql)) == 3

    def test_key_lookup_join_needs_keys_that_compare(self, db):
        db.execute(
            "CREATE TABLE tags (t_id INT PRIMARY KEY, t_code VARCHAR(4));"
            "CREATE TABLE codes (c_id INT PRIMARY KEY, c_name VARCHAR(4));"
            "INSERT INTO tags VALUES (0, 'a'), (1, '1');"
            "INSERT INTO codes VALUES (1, 'one');"
        )
        # a text outer key never equals an integer inner key; a B+tree
        # search for one would raise comparing them instead
        sql = "SELECT c_name FROM tags JOIN codes ON t_code = c_id WHERE t_id = 1"
        assert "Hash Match (Inner Join)" in db.explain(sql)
        assert db.query(sql) == []

    @pytest.mark.parametrize(
        "key_type, options, stored, probe",
        [
            # a short BINARY(4) value is padded with 0x00 when validated,
            # so the B+tree key is the value on the page
            ("BINARY(4)", "", [b"ab"], b"ab\x00"),
            # ROW compression keeps an undeclared-width CHAR's trailing
            # spaces, and 'a ' never equals 'a'
            ("CHAR(MAX)", " WITH (DATA_COMPRESSION = ROW)", ["a ", "a"],
             "a "),
        ],
    )
    def test_key_lookup_join_needs_keys_that_round_trip(
        self, db, key_type, options, stored, probe
    ):
        """Every key round-trips, so the key lookup is planned and
        returns what the hash join returns."""
        db.execute(
            f"CREATE TABLE codes (c_key {key_type} PRIMARY KEY, c_n INT)"
            f"{options};"
            f"CREATE TABLE uses (u_id INT PRIMARY KEY, u_key {key_type})"
            f"{options};"
        )
        db.table("codes").insert_many(
            [(value, n) for n, value in enumerate(stored)]
        )
        db.table("uses").insert((1, probe))
        sql = (
            "SELECT u_id, c_n FROM uses JOIN codes ON u_key = c_key "
            "WHERE u_id = 1"
        )
        assert "Key Lookup [codes]" in db.explain(sql)
        # a derived table is no table scan, so it is hash-joined
        hashed = sql.replace(
            "JOIN codes", "JOIN (SELECT c_key, c_n FROM codes) AS k"
        )
        assert "Hash Match (Inner Join)" in db.explain(hashed)
        assert db.query(sql) == db.query(hashed) == [(1, 0)]

    def test_join_requires_equality(self, db):
        from repro.engine.errors import BindError

        with pytest.raises(BindError):
            db.explain(
                "SELECT * FROM orders JOIN stores ON (region > st_region)"
            )


class TestAggregationStrategy:
    def test_small_input_uses_serial_hash(self, db):
        plan = db.explain(
            "SELECT store, COUNT(*) FROM orders GROUP BY store"
        )
        assert "Hash Match (Aggregate" in plan
        assert "Parallelism" not in plan

    def test_maxdop_one_disables_parallelism(self, db):
        plan = db.explain(
            "SELECT store, COUNT(*) FROM orders GROUP BY store OPTION (MAXDOP 1)"
        )
        assert "Gather Streams" not in plan

    @pytest.mark.parametrize("storage", ["heap", "column"])
    @pytest.mark.parametrize("maxdop", [None, 0, 1, 2, 4])
    def test_only_a_maxdop_hint_above_one_asks_for_the_exchange(
        self, db, storage, maxdop
    ):
        # the one rule: the exchange exactly when the hint is > 1; a
        # column table's eligible aggregate stays encoded otherwise
        if storage == "column":
            db.execute(
                "CREATE TABLE colorders (store INT, amount INT) "
                "WITH (STORAGE = 'COLUMN');"
                "INSERT INTO colorders SELECT store, amount FROM orders"
            )
        table = "orders" if storage == "heap" else "colorders"
        hint = "" if maxdop is None else f" OPTION (MAXDOP {maxdop})"
        plan = db.explain(
            f"SELECT store, COUNT(*) FROM {table} GROUP BY store{hint}"
        )
        parallel = maxdop is not None and maxdop > 1
        assert ("Gather Streams" in plan) == parallel
        if storage == "column":
            assert ("Columnstore Aggregate" in plan) == (not parallel)

    def test_cost_constants_are_not_settable_per_instance(self):
        with pytest.raises(TypeError):
            CostModel(scan_row_cost=2)

    def test_group_on_clustered_prefix_streams(self, db):
        plan = db.explain(
            "SELECT region, COUNT(*) FROM orders GROUP BY region"
        )
        assert "Stream Aggregate" in plan
        assert "Sort" not in plan

    def test_ordered_uda_gets_stream_aggregate_without_sort(self, db):
        class OrderedConcat(UserDefinedAggregate):
            name = "OrderedConcat"
            arity = 1
            parallel_safe = False
            requires_ordered_input = True

            def init(self):
                self.parts = []

            def accumulate(self, value):
                self.parts.append(str(value))

            def merge(self, other):  # pragma: no cover
                raise AssertionError

            def terminate(self):
                return ",".join(self.parts)

        db.register_uda(OrderedConcat)
        plan = db.explain(
            """
            SELECT store, OrderedConcat(order_id) FROM orders
            WHERE region = 1 GROUP BY store
            """
        )
        assert "Stream Aggregate" in plan
        assert "Sort" not in plan
        rows = db.query(
            """
            SELECT store, OrderedConcat(order_id) FROM orders
            WHERE region = 1 GROUP BY store
            """
        )
        assert sorted(rows) == [
            (0, "0,1,2,3,4"),
            (1, "0,1,2,3,4"),
            (2, "0,1,2,3,4"),
        ]

    def test_ordered_uda_gets_sort_when_input_unordered(self, db):
        class OrderedSum(UserDefinedAggregate):
            name = "OrderedSum"
            arity = 1
            parallel_safe = False
            requires_ordered_input = True

            def init(self):
                self.total = 0

            def accumulate(self, value):
                self.total += value

            def merge(self, other):  # pragma: no cover
                raise AssertionError

            def terminate(self):
                return self.total

        db.register_uda(OrderedSum)
        plan = db.explain(
            "SELECT amount, OrderedSum(order_id) FROM orders GROUP BY amount"
        )
        assert "Sort" in plan and "Stream Aggregate" in plan


class TestOrderPreservation:
    def test_equality_bound_prefix_allows_stream_on_later_column(self, db):
        # group on `store` after binding `region`: ordering survives
        plan = db.explain(
            "SELECT store, SUM(amount) FROM orders WHERE region = 0 GROUP BY store"
        )
        assert "Stream Aggregate" in plan

    def test_range_seek_keeps_its_equality_prefix_bound(self, db):
        # a range on `store` after binding `region`: the seek delivers
        # store order, so the aggregate streams without a sort
        plan = db.explain(
            "SELECT store, SUM(amount) FROM orders "
            "WHERE region = 1 AND store >= 1 GROUP BY store"
        )
        assert "Clustered Index Seek" in plan
        assert "Stream Aggregate" in plan and "Sort" not in plan

    def test_hash_join_preserves_probe_order(self, db):
        from repro.engine.executor import HashJoin

        op = db.plan(
            """
            SELECT st_name, amount FROM orders
            JOIN (SELECT st_region r, st_store s, st_name FROM stores) x
            ON (region = r AND store = s)
            """
        )
        # find the join in the tree
        def find(node):
            if isinstance(node, HashJoin):
                return node
            for child in node.children():
                hit = find(child)
                if hit is not None:
                    return hit
            return None

        join = find(op)
        assert join is not None
        assert join.ordering == join.left.ordering


class TestSubqueryPlanning:
    def test_nested_aggregation(self, db):
        rows = db.query(
            """
            SELECT MAX(total) FROM
            (SELECT store, SUM(amount) AS total FROM orders GROUP BY store) AS t
            """
        )
        assert rows == [(200,)]

    @pytest.mark.parametrize("head", ["DISTINCT", "TOP 100"])
    def test_a_derived_table_names_its_columns_in_select_order(self, db, head):
        inner = f"SELECT {head} store, amount FROM orders"
        expected = sorted((a, s) for s, a in db.query(inner))
        rows = db.query(f"SELECT x.amount, x.store FROM ({inner}) AS x")
        assert sorted(rows) == expected
        assert len(set(expected)) > 1

    def test_cross_apply_plan(self, db):
        from repro.engine.schema import Column
        from repro.engine.types import int_type
        from repro.engine.udf import SimpleTvf

        db.register_tvf(
            SimpleTvf(
                name="Repeat",
                columns=(Column("i", int_type()),),
                factory=lambda n: ((i,) for i in range(n)),
            )
        )
        plan = db.explain(
            "SELECT order_id, i FROM orders CROSS APPLY Repeat(store)"
        )
        assert "Cross Apply" in plan
        rows = db.query(
            "SELECT COUNT(*) FROM orders CROSS APPLY Repeat(store)"
        )
        # sum over stores: region*[0+1+2 repeats]*5 orders*2 regions
        assert rows == [(30,)]


class TestSecondaryIndexAccess:
    @pytest.fixture
    def indexed_db(self):
        with Database() as database:
            database.execute(
                """
                CREATE TABLE events (
                    ev_id INT PRIMARY KEY,
                    kind VARCHAR(20),
                    region INT,
                    payload VARCHAR(50)
                );
                CREATE INDEX ix_kind ON events (kind, region);
                """
            )
            for i in range(60):
                database.execute(
                    f"INSERT INTO events VALUES "
                    f"({i}, 'k{i % 3}', {i % 5}, 'p{i}')"
                )
            yield database

    def test_equality_on_indexed_column_uses_index(self, indexed_db):
        plan = indexed_db.explain(
            "SELECT ev_id FROM events WHERE kind = 'k1'"
        )
        assert "Index Seek" in plan
        assert "ix_kind" in plan

    def test_two_column_prefix(self, indexed_db):
        plan = indexed_db.explain(
            "SELECT ev_id FROM events WHERE kind = 'k1' AND region = 2"
        )
        assert "Index Seek" in plan
        assert "Filter" not in plan  # fully consumed

    def test_a_secondary_seek_prices_its_own_prefix(self, indexed_db):
        """A secondary seek built and annotated outside the planner
        estimates its prefix from column statistics."""
        indexed_db.execute("UPDATE STATISTICS events")
        events = indexed_db.table("events")
        seek = SecondaryIndexSeek(events, "ix_kind", ("k1",), ("k1",))
        cost = CostModel()
        cost.annotate(seek)
        # kind holds three values evenly over 60 rows
        assert seek.est_rows == cost.seek_rows(events, [("kind", "k1")]) == 20
        assert seek.est_cost == cost.seek_cost(20, secondary=True)
        assert len(list(seek)) == 20

    def test_results_match_scan(self, indexed_db):
        via_index = sorted(
            indexed_db.query("SELECT ev_id FROM events WHERE kind = 'k2'")
        )
        expected = sorted((i,) for i in range(60) if i % 3 == 2)
        assert via_index == expected

    def test_pk_preferred_over_secondary(self, indexed_db):
        plan = indexed_db.explain(
            "SELECT payload FROM events WHERE ev_id = 5 AND kind = 'k2'"
        )
        assert "Clustered Index Seek" in plan

    def test_non_leading_column_not_seekable(self, indexed_db):
        plan = indexed_db.explain(
            "SELECT ev_id FROM events WHERE region = 1"
        )
        assert "Index Seek" not in plan
        assert "Table Scan" in plan

    def test_residual_predicate_stays(self, indexed_db):
        plan = indexed_db.explain(
            "SELECT ev_id FROM events WHERE kind = 'k0' AND ev_id > 30"
        )
        assert "Index Seek" in plan and "Filter" in plan
        rows = indexed_db.query(
            "SELECT ev_id FROM events WHERE kind = 'k0' AND ev_id > 30"
        )
        assert sorted(rows) == sorted(
            (i,) for i in range(31, 60) if i % 3 == 0
        )


class TestTopAndDistinctLowerOnce:
    """``TOP`` and ``DISTINCT`` each lower to one physical operator,
    above the projection, and nowhere else."""

    @staticmethod
    def operator_names(plan):
        return [type(node).__name__ for node in plan.nodes()]

    def test_one_top_node(self, db):
        names = self.operator_names(db.plan("SELECT TOP 2 amount FROM orders"))
        assert names == ["Top", "Project", "TableScan"]

    def test_one_distinct_node(self, db):
        names = self.operator_names(
            db.plan("SELECT DISTINCT region FROM orders")
        )
        assert names == ["Distinct", "Project", "TableScan"]
        assert db.explain("SELECT DISTINCT region FROM orders").count(
            "Hash Match (Distinct)"
        ) == 1

    def test_distinct_top_order(self, db):
        sql = "SELECT DISTINCT TOP 2 store FROM orders ORDER BY store DESC"
        assert self.operator_names(db.plan(sql)) == [
            "Top", "Distinct", "Project", "Sort", "TableScan"
        ]
        assert db.query(sql) == [(2,), (1,)]


class TestOperatorReachability:
    """Every concrete operator ``repro.engine.executor`` exports is one
    the planner builds from SQL: the golden plan corpus plus a few
    statements for the shapes the corpus has no table for. An operator
    that loses (or never had) a planner path fails here instead of
    living on as exported, sanitized, unit-tested dead code."""

    #: shapes the sales/figure corpus lacks, against the ``db`` fixture
    EXTRA_SQL = (
        "SELECT 1 + 1",  # constant one-row input
        "SELECT order_id, i FROM orders CROSS APPLY Repeat(store)",
        "SELECT i FROM Repeat(3)",
        "SELECT order_id FROM orders WHERE amount = 20",  # via ix_amount
        "SELECT DISTINCT TOP 2 region FROM orders",
        "SELECT order_id, ROW_NUMBER() OVER (ORDER BY amount DESC) "
        "FROM orders",
        # merge join, stream aggregates (grouped and scalar), a system view
        "SELECT order_id, st_name FROM orders "
        "JOIN stores ON (region = st_region AND store = st_store)",
        "SELECT region, COUNT(*) FROM orders GROUP BY region",
        "SELECT COUNT(*), MAX(amount) FROM orders WHERE amount < 0",
        "SELECT COUNT(*) FROM sys_dm_exec_query_stats",
        # a key-lookup join: the join keys are the stores' clustered key
        "SELECT region, st_name FROM orders "
        "JOIN stores ON (region = st_region AND order_id = st_store) "
        "WHERE amount = 20 AND store = 1",
    )

    @pytest.fixture
    def reach_db(self, db):
        from repro.engine.schema import Column
        from repro.engine.types import int_type
        from repro.engine.udf import SimpleTvf

        db.register_tvf(
            SimpleTvf(
                name="Repeat",
                columns=(Column("i", int_type()),),
                factory=lambda n: ((i,) for i in range(n)),
            )
        )
        db.execute("CREATE INDEX ix_amount ON orders (amount)")
        return db

    @staticmethod
    def exported_operators():
        import inspect

        from repro.engine import executor

        return {
            cls
            for cls in (getattr(executor, name) for name in executor.__all__)
            if inspect.isclass(cls)
            and issubclass(cls, executor.PhysicalOperator)
            and cls is not executor.PhysicalOperator
        }

    def test_every_exported_operator_is_planned(self, reach_db):
        from repro.engine.verify.plan_corpus import corpus_plans

        exported = self.exported_operators()
        planned = set()
        for _description, plan, _database in corpus_plans():
            planned.update(type(node) for node in plan.nodes())
        for sql in self.EXTRA_SQL:
            planned.update(
                type(node) for node in reach_db.plan(sql).nodes()
            )
        unreachable = sorted(cls.__name__ for cls in exported - planned)
        assert unreachable == [], (
            f"exported operators no SQL statement plans: {unreachable}"
        )

    def test_every_operator_yields_non_empty_row_batches(
        self, reach_db, monkeypatch
    ):
        """The one protocol, observed: over the corpus and the extra
        statements, whatever any operator's ``iter_batches()`` yields is
        a non-empty ``RowBatch``, the rows it yielded are the rows the
        operator accounts for, and every exported operator was pulled
        from."""
        from collections import Counter

        from repro.engine.executor import PhysicalOperator, RowBatch
        from repro.engine.executor.vector import collect_rows
        from repro.engine.verify.plan_corpus import corpus_plans

        pulled = Counter()  # operator -> rows its iter_batches() yielded
        accounted = PhysicalOperator.iter_batches

        def checked(op):
            pulled[op] += 0
            for batch in accounted(op):
                assert type(batch) is RowBatch and batch, type(op).__name__
                pulled[op] += len(batch)
                yield batch

        monkeypatch.setattr(PhysicalOperator, "iter_batches", checked)
        plans = [plan for _description, plan, _database in corpus_plans()]
        assert len(plans) == 108  # 36 statements x MAXDOP 1 / 2 / 4
        plans += [reach_db.plan(sql) for sql in self.EXTRA_SQL]
        kinds = set()  # operator classes pulled from
        for plan in plans:
            rows = collect_rows(plan)
            assert pulled[plan] == len(rows) == plan.rows_out
            for node in plan.nodes():
                # (a node the exchange's workers ran, or whose parent
                # reads segment views, was never pulled from here)
                if node in pulled:
                    assert pulled[node] == node.rows_out, _path
                    kinds.add(type(node))
            pulled.clear()
        assert self.exported_operators() <= kinds

    def test_operators_define_one_execution_method(self):
        import repro.engine.planner  # noqa: F401 - defines _Relabel
        from repro.engine.executor import PhysicalOperator

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        operators = [
            cls
            for cls in subclasses(PhysicalOperator)
            if cls.__module__.startswith("repro.engine")
        ]
        assert len(operators) >= 20
        for cls in operators:
            assert cls.execute is not PhysicalOperator.execute, cls
            # no second execute*() variant, no private accounting loop
            assert {n for n in vars(cls) if n.startswith("execute")} <= {
                "execute"
            }, cls
            assert not {"__iter__", "iter_batches"} & set(vars(cls)), cls
