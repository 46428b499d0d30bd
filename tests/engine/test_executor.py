"""Physical operators, exercised directly (no SQL front end)."""

import random

import pytest

from repro.engine.executor import (
    AggregateSpec,
    CrossApply,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    MaterializedResult,
    MergeJoin,
    Project,
    RowNumberWindow,
    Sort,
    StreamAggregate,
    Top,
    TvfScan,
)
from repro.engine.schema import Column
from repro.engine.types import int_type, varchar_type
from repro.engine.udf import SimpleTvf


def rows_op(columns, rows):
    return MaterializedResult(columns, rows)


def c(i):
    return lambda row: row[i]


class TestScanFilterProject:
    def test_filter_keeps_only_true(self):
        op = Filter(
            rows_op(["x"], [(1,), (None,), (3,)]),
            lambda batch: [None if x is None else x > 1 for (x,) in batch],
        )
        assert list(op) == [(3,)]

    def test_project(self):
        op = Project(
            rows_op(["x"], [(2,), (3,)]),
            [lambda batch: [x * 10 for (x,) in batch]],
            ["y"],
        )
        assert list(op) == [(20,), (30,)]
        assert op.columns == ["y"]

    def test_rows_out_counted(self):
        op = Filter(
            rows_op(["x"], [(i,) for i in range(10)]),
            lambda batch: [x % 2 == 0 for (x,) in batch],
        )
        list(op)
        assert op.rows_out == 5

    def test_top(self):
        op = Top(rows_op(["x"], [(i,) for i in range(100)]), 3)
        assert list(op) == [(0,), (1,), (2,)]

    def test_distinct(self):
        op = Distinct(rows_op(["x"], [(1,), (2,), (1,), (2,), (3,)]))
        assert sorted(list(op)) == [(1,), (2,), (3,)]


class TestSort:
    def test_multi_key_sort(self):
        rows = [(2, "b"), (1, "b"), (2, "a"), (1, "a")]
        op = Sort(rows_op(["x", "y"], rows), [c(0), c(1)], [False, True])
        assert list(op) == [(1, "b"), (1, "a"), (2, "b"), (2, "a")]

    def test_nulls_sort_first(self):
        op = Sort(rows_op(["x"], [(2,), (None,), (1,)]), [c(0)], [False])
        assert list(op) == [(None,), (1,), (2,)]


class TestJoins:
    LEFT = [(1, "a"), (2, "b"), (2, "bb"), (3, "c"), (None, "n")]
    RIGHT = [(2, "X"), (2, "Y"), (3, "Z"), (4, "W"), (None, "NN")]

    def expected_inner(self):
        out = []
        for l in self.LEFT:
            for r in self.RIGHT:
                if l[0] is not None and l[0] == r[0]:
                    out.append(l + r)
        return sorted(out, key=lambda t: (t[0], t[1], t[3]))

    def test_hash_join_matches_reference(self):
        op = HashJoin(
            rows_op(["lk", "lv"], self.LEFT),
            rows_op(["rk", "rv"], self.RIGHT),
            [c(0)],
            [c(0)],
        )
        assert sorted(list(op), key=lambda t: (t[0], t[1], t[3])) == self.expected_inner()

    def test_merge_join_matches_reference(self):
        left_sorted = sorted(
            [r for r in self.LEFT if r[0] is not None], key=lambda t: t[0]
        )
        right_sorted = sorted(
            [r for r in self.RIGHT if r[0] is not None], key=lambda t: t[0]
        )
        op = MergeJoin(
            rows_op(["lk", "lv"], left_sorted),
            rows_op(["rk", "rv"], right_sorted),
            [c(0)],
            [c(0)],
        )
        assert sorted(list(op), key=lambda t: (t[0], t[1], t[3])) == self.expected_inner()

    def test_merge_join_handles_duplicates_both_sides(self):
        left = [(1, "l1"), (1, "l2"), (2, "l3")]
        right = [(1, "r1"), (1, "r2"), (2, "r3")]
        op = MergeJoin(
            rows_op(["lk", "lv"], left),
            rows_op(["rk", "rv"], right),
            [c(0)],
            [c(0)],
        )
        assert len(list(op)) == 5  # 2*2 + 1

    def test_hash_vs_merge_random_equivalence(self):
        rng = random.Random(11)
        left = sorted(
            ((rng.randint(0, 30), i) for i in range(200)), key=lambda t: t[0]
        )
        right = sorted(
            ((rng.randint(0, 30), i) for i in range(150)), key=lambda t: t[0]
        )
        hash_result = sorted(
            HashJoin(
                rows_op(["lk", "li"], left),
                rows_op(["rk", "ri"], right),
                [c(0)],
                [c(0)],
            )
        )
        merge_result = sorted(
            MergeJoin(
                rows_op(["lk", "li"], left),
                rows_op(["rk", "ri"], right),
                [c(0)],
                [c(0)],
            )
        )
        assert hash_result == merge_result and hash_result

    @pytest.mark.parametrize("repeated", [False, True])  # a build key twice
    @pytest.mark.parametrize("positional", [True, False])
    def test_hash_join_null_in_any_key_column_never_matches(
        self, positional, repeated
    ):
        class ClaimsNull:
            """A UDT value that answers True when compared with None and
            hashes like it: equal to NULL, yet no NULL."""

            def __eq__(self, other):
                return other is None or other is self

            def __hash__(self):
                return hash(None)

        udt = ClaimsNull()
        right = [(1, None, "r0"), (None, 2, "r1"), (3, udt, "r2"), (4, 4, "r3")]
        right += [(4, 4, "r4")] if repeated else []
        left = [
            (1, None, "l0"),  # NULL on both sides
            (None, 2, "l1"),
            (3, None, "l2"),  # NULL probing the UDT value
            (3, udt, "l3"),  # the UDT value itself is a key
            (None, 4, "l4"),  # NULL probing a NULL-free key
            (4, 4, "l5"),
        ]
        keys = dict(left_key_indexes=(0, 1), right_key_indexes=(0, 1))
        op = HashJoin(
            rows_op(["la", "lb", "lv"], left),
            rows_op(["ra", "rb", "rv"], right),
            [c(0), c(1)],
            [c(0), c(1)],
            **(keys if positional else {}),
        )
        assert [(row[2], row[5]) for row in op] == [
            ("l3", "r2"), ("l5", "r3")
        ] + ([("l5", "r4")] if repeated else [])


class TestAggregation:
    DATA = [("a", 1), ("b", 2), ("a", 3), ("b", None), ("a", 5), ("c", None)]

    def specs(self):
        return (
            [
                AggregateSpec("count", [], star=True),
                AggregateSpec("count", [c(1)]),
                AggregateSpec("sum", [c(1)]),
                AggregateSpec("min", [c(1)]),
                AggregateSpec("max", [c(1)]),
                AggregateSpec("avg", [c(1)]),
            ],
            ["n", "nv", "s", "mn", "mx", "av"],
        )

    def expected(self):
        return {
            ("a",): (3, 3, 9, 1, 5, 3.0),
            ("b",): (2, 1, 2, 2, 2, 2.0),
            ("c",): (1, 0, None, None, None, None),
        }

    def test_hash_aggregate(self):
        specs, names = self.specs()
        op = HashAggregate(
            rows_op(["g", "v"], self.DATA), [c(0)], ["g"], specs, names
        )
        result = {(row[0],): row[1:] for row in op}
        assert result == self.expected()

    def test_stream_aggregate_on_sorted_input(self):
        specs, names = self.specs()
        data = sorted(self.DATA, key=lambda t: t[0])
        op = StreamAggregate(
            rows_op(["g", "v"], data), [c(0)], ["g"], specs, names
        )
        result = {(row[0],): row[1:] for row in op}
        assert result == self.expected()

    def test_scalar_aggregate_no_group(self):
        op = StreamAggregate(
            rows_op(["g", "v"], self.DATA),
            [],
            [],
            [AggregateSpec("count", [], star=True)],
            ["n"],
        )
        assert list(op) == [(6,)]

    def test_scalar_aggregate_empty_input(self):
        op = StreamAggregate(
            rows_op(["v"], []),
            [],
            [],
            [AggregateSpec("sum", [c(0)])],
            ["s"],
        )
        assert list(op) == [(None,)]

    def test_count_distinct(self):
        op = HashAggregate(
            rows_op(["g", "v"], [("a", 1), ("a", 1), ("a", 2)]),
            [c(0)],
            ["g"],
            [AggregateSpec("count", [c(1)], distinct=True)],
            ["d"],
        )
        assert list(op) == [("a", 2)]

    def test_unknown_aggregate_rejected(self):
        from repro.engine.errors import BindError

        with pytest.raises(BindError):
            AggregateSpec("median", [c(0)])


class TestWindow:
    def test_row_number_orders_and_numbers(self):
        op = RowNumberWindow(
            rows_op(["v"], [(30,), (10,), (20,)]), [c(0)], [True]
        )
        assert list(op) == [(30, 1), (20, 2), (10, 3)]
        assert op.columns == ["v", "row_number"]


class TestTvfExecution:
    def make_tvf(self):
        return SimpleTvf(
            name="Numbers",
            columns=(Column("n", int_type()), Column("sq", int_type())),
            factory=lambda count: ((i, i * i) for i in range(count)),
        )

    def test_tvf_scan(self):
        op = TvfScan(self.make_tvf(), [4])
        assert list(op) == [(0, 0), (1, 1), (2, 4), (3, 9)]
        assert op.columns == ["Numbers.n", "Numbers.sq"]

    def test_cross_apply_fans_out(self):
        outer = rows_op(["k"], [(2,), (3,)])
        op = CrossApply(outer, self.make_tvf(), [c(0)])
        result = list(op)
        assert (2, 0, 0) in result and (3, 2, 4) in result
        assert len(result) == 5

    def test_cross_apply_empty_inner(self):
        outer = rows_op(["k"], [(0,), (1,)])
        op = CrossApply(outer, self.make_tvf(), [c(0)])
        assert list(op) == [(1, 0, 0)]

    def test_fill_row_invoked(self):
        calls = []

        class CountingTvf(SimpleTvf):
            def fill_row(self, obj):
                calls.append(obj)
                return tuple(obj)

        tvf = CountingTvf(
            name="N",
            columns=(Column("n", int_type()),),
            factory=lambda k: ((i,) for i in range(k)),
        )
        list(TvfScan(tvf, [3]))
        assert len(calls) == 3


class TestExplain:
    def test_tree_rendering(self):
        inner = Filter(rows_op(["x"], [(1,)]), lambda batch: [True], label="pred")
        op = Top(inner, 1)
        text = op.explain()
        assert "Top" in text and "Filter" in text
        assert text.index("Top") < text.index("Filter")
