"""Statistical/string UDAs, incl. their parallel merge behaviour."""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.engine import Database
from repro.engine.errors import UdfError
from repro.engine.executor.aggregates import (
    AggregateSpec,
    make_batch_accumulator,
)
from repro.engine.uda_library import (
    GeoMeanUda,
    MedianUda,
    StdevUda,
    StringAggUda,
    VarUda,
    register_statistics,
)


def test_legacy_statistics_shim_removed():
    """repro.engine.statistics was a deprecation alias for this module;
    the name now belongs exclusively to the optimizer's table statistics
    (repro.engine.optimizer.statistics)."""
    import importlib

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.statistics")


@pytest.fixture
def db():
    with Database() as database:
        register_statistics(database)
        database.execute(
            """
            CREATE TABLE m (id INT PRIMARY KEY, grp VARCHAR(5), v FLOAT);
            INSERT INTO m VALUES
                (1, 'a', 2.0), (2, 'a', 4.0), (3, 'a', 6.0),
                (4, 'b', 10.0), (5, 'b', NULL);
            """
        )
        yield database


class TestSql:
    def test_stdev(self, db):
        rows = dict(db.query("SELECT grp, STDEV(v) FROM m GROUP BY grp"))
        assert rows["a"] == pytest.approx(statistics.stdev([2, 4, 6]))
        assert rows["b"] is None  # a single value has no sample stdev

    def test_var(self, db):
        value = db.scalar("SELECT VAR(v) FROM m WHERE grp = 'a'")
        assert value == pytest.approx(statistics.variance([2, 4, 6]))

    def test_median(self, db):
        assert db.scalar("SELECT MEDIAN(v) FROM m") == pytest.approx(5.0)

    def test_string_agg_ordered(self, db):
        value = db.scalar(
            "SELECT STRING_AGG(grp) FROM m WHERE v IS NOT NULL"
        )
        assert value == "a,a,a,b"

    def test_geomean(self, db):
        value = db.scalar("SELECT GEOMEAN(v) FROM m WHERE grp = 'a'")
        assert value == pytest.approx((2 * 4 * 6) ** (1 / 3))

    def test_empty_group_semantics(self, db):
        assert db.scalar("SELECT MEDIAN(v) FROM m WHERE id > 99") is None
        assert db.scalar("SELECT STDEV(v) FROM m WHERE id > 99") is None
        assert db.scalar("SELECT STRING_AGG(grp) FROM m WHERE id > 99") is None
        assert db.scalar("SELECT GEOMEAN(v) FROM m WHERE id > 99") is None


class TestMerge:
    """Partial-state merging must equal single-pass evaluation."""

    @staticmethod
    def run_split(uda_class, values, split):
        left, right = uda_class(), uda_class()
        left.init()
        right.init()
        for value in values[:split]:
            left.accumulate(value)
        for value in values[split:]:
            right.accumulate(value)
        left.merge(right)
        return left.terminate()

    @staticmethod
    def run_single(uda_class, values):
        uda = uda_class()
        uda.init()
        for value in values:
            uda.accumulate(value)
        return uda.terminate()

    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=60
        ),
        st.integers(0, 60),
    )
    def test_var_merge_property(self, values, split_raw):
        split = split_raw % (len(values) + 1)
        merged = self.run_split(VarUda, values, split)
        single = self.run_single(VarUda, values)
        assert merged == pytest.approx(single, rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.floats(0.001, 1e4), min_size=1, max_size=40),
        st.integers(0, 40),
    )
    def test_geomean_merge_property(self, values, split_raw):
        split = split_raw % (len(values) + 1)
        merged = self.run_split(GeoMeanUda, values, split)
        single = self.run_single(GeoMeanUda, values)
        assert merged == pytest.approx(single, rel=1e-9)

    def test_median_merge(self):
        assert self.run_split(MedianUda, [5, 1, 9, 3], 2) == 4.0

    def test_stdev_merge_with_empty_side(self):
        assert self.run_split(StdevUda, [1.0, 2.0, 3.0], 0) == (
            pytest.approx(1.0)
        )

    def test_geomean_rejects_nonpositive(self):
        uda = GeoMeanUda()
        uda.init()
        with pytest.raises(ValueError):
            uda.accumulate(-1.0)

    def test_order_sensitive_uda_refuses_to_merge(self):
        spec = AggregateSpec(
            "STRING_AGG", [lambda row: row[0]], uda_class=StringAggUda
        )
        left = make_batch_accumulator(spec)
        right = make_batch_accumulator(spec)
        left.add_vector(["a"], [["x"]])
        right.add_vector(["a"], [["y"]])
        with pytest.raises(UdfError, match="not parallel-safe"):
            left.merge(right)


class RowCount(StringAggUda):
    """A UDA of no arguments: one ``accumulate()`` per row."""

    name = "ROWCOUNT"
    arity = 0

    def accumulate(self) -> None:
        self._parts.append("x")

    def terminate(self):
        return len(self._parts)


class TestBatchContract:
    """The aggregates hand a UDA each group's rows of a batch in one
    ``accumulate_batch`` call, in input order, however the keys
    interleave."""

    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 99)), max_size=40),
        st.lists(st.integers(0, 40), max_size=4),
    )
    def test_any_interleaving_and_batch_cut(self, rows, cuts):
        spec = AggregateSpec("STRING_AGG", [lambda b: b], uda_class=StringAggUda)
        accumulator = make_batch_accumulator(spec)
        bounds = sorted(cut for cut in cuts if cut <= len(rows))
        for lo, hi in zip([0, *bounds], [*bounds, len(rows)]):
            batch = rows[lo:hi]
            accumulator.add_vector(
                [key for key, _v in batch], [[value for _k, value in batch]]
            )
        for key in "abc":
            values = [str(value) for k, value in rows if k == key]
            assert accumulator.result(key) == (",".join(values) or None)

    def test_no_argument_uda_sees_one_call_per_row(self):
        spec = AggregateSpec("ROWCOUNT", [], uda_class=RowCount)
        accumulator = make_batch_accumulator(spec)
        accumulator.add_vector(["a", "b", "a", "a"], [])
        accumulator.add_vector([], [])
        assert (accumulator.result("a"), accumulator.result("b")) == (3, 1)


class TestParallelPlanIntegration:
    def test_stdev_parallelises(self, db):
        # an explicit MAXDOP hint opts into the parallel plan regardless
        # of the cost model's cardinality estimate
        plan = db.explain(
            "SELECT grp, STDEV(v) FROM m GROUP BY grp OPTION (MAXDOP 4)"
        )
        assert "Gather Streams" in plan
        rows = dict(
            db.query(
                "SELECT grp, STDEV(v) FROM m GROUP BY grp OPTION (MAXDOP 4)"
            )
        )
        assert rows["a"] == pytest.approx(statistics.stdev([2, 4, 6]))

    def test_string_agg_never_parallelises(self, db):
        plan = db.explain(
            "SELECT grp, STRING_AGG(v) FROM m GROUP BY grp OPTION (MAXDOP 4)"
        )
        assert "Gather Streams" not in plan
        assert "Stream Aggregate" in plan


class TestScalarOrderedUda:
    def test_scalar_string_agg_plans_no_sort(self, db):
        # a scalar aggregate has one group: its input in arrival order
        sql = "SELECT STRING_AGG(grp) FROM m"
        plan = db.explain(sql)
        assert "Sort" not in plan
        assert "Stream Aggregate" in plan
        assert db.query(sql) == [("a,a,a,b,b",)]

    def test_grouped_string_agg_keeps_its_sort(self, db):
        sql = "SELECT grp, STRING_AGG(v) FROM m GROUP BY grp"
        assert "for ordered UDA" in db.explain(sql)
        assert db.query(sql) == [("a", "2.0,4.0,6.0"), ("b", "10.0")]

    def test_grouped_string_agg_estimates_its_groups_through_the_sort(self, db):
        # the group key resolves through the Sort to grp's statistics
        db.execute("UPDATE STATISTICS m")
        plan = db.plan("SELECT grp, STRING_AGG(v) FROM m GROUP BY grp")
        rows = {type(node).__name__: node.est_rows for node in plan.nodes()}
        assert rows["Sort"] == 5
        assert rows["StreamAggregate"] == 2
