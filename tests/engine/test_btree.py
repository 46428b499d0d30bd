"""B+tree: ordering, range scans, uniqueness, NULL handling."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import DuplicateKeyError
from repro.engine.index.btree import BPlusTree


class TestBasics:
    def test_insert_get(self):
        tree = BPlusTree()
        tree.insert((5,), "five")
        assert tree.get((5,)) == "five"

    def test_missing_key_raises(self):
        tree = BPlusTree()
        with pytest.raises(KeyError):
            tree.get((1,))

    def test_duplicate_rejected_when_unique(self):
        tree = BPlusTree(unique=True)
        tree.insert((1,), "a")
        with pytest.raises(DuplicateKeyError):
            tree.insert((1,), "b")

    def test_non_unique_accumulates(self):
        tree = BPlusTree(unique=False)
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert sorted(tree.get((1,))) == ["a", "b"]
        assert len(tree) == 2

    def test_len_counts_pairs(self):
        tree = BPlusTree()
        for i in range(1000):
            tree.insert((i,), i)
        assert len(tree) == 1000


class TestOrdering:
    def test_items_sorted_after_random_inserts(self):
        tree = BPlusTree(order=8)
        keys = list(range(2000))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert((key,), key * 10)
        result = [key[0] for key, _payload in tree.items()]
        assert result == sorted(result)
        assert len(result) == 2000

    def test_composite_keys_sorted_lexicographically(self):
        tree = BPlusTree()
        keys = [(2, 1), (1, 9), (1, 1), (2, 0), (1, 5)]
        for key in keys:
            tree.insert(key, None)
        assert [k for k, _ in tree.items()] == sorted(keys)

    def test_nulls_sort_first(self):
        tree = BPlusTree()
        tree.insert((5,), "five")
        tree.insert((None,), "null")
        tree.insert((1,), "one")
        assert [k for k, _ in tree.items()] == [(None,), (1,), (5,)]

    def test_depth_grows_logarithmically(self):
        tree = BPlusTree(order=8)
        for i in range(5000):
            tree.insert((i,), i)
        assert tree.depth() <= 6


class TestRange:
    def make_tree(self):
        tree = BPlusTree(order=8)
        for i in range(100):
            tree.insert((i,), i)
        return tree

    def test_closed_range(self):
        tree = self.make_tree()
        result = [k[0] for k, _ in tree.range((10,), (20,))]
        assert result == list(range(10, 21))

    def test_open_ended_ranges(self):
        tree = self.make_tree()
        assert [k[0] for k, _ in tree.range(None, (5,))] == list(range(6))
        assert [k[0] for k, _ in tree.range((95,), None)] == list(range(95, 100))
        assert len(list(tree.range(None, None))) == 100

    def test_exclusive_bounds(self):
        tree = self.make_tree()
        result = [
            k[0]
            for k, _ in tree.range((10,), (20,), lo_inclusive=False, hi_inclusive=False)
        ]
        assert result == list(range(11, 20))

    def test_prefix_range_on_composite_key(self):
        tree = BPlusTree()
        for a in range(5):
            for b in range(5):
                tree.insert((a, b), (a, b))
        result = [k for k, _ in tree.range((2,), (2,))]
        assert result == [(2, b) for b in range(5)]

    def test_empty_range(self):
        tree = self.make_tree()
        assert list(tree.range((200,), (300,))) == []


class TestDelete:
    def test_delete_unique(self):
        tree = BPlusTree()
        tree.insert((1,), "a")
        assert tree.delete((1,))
        with pytest.raises(KeyError):
            tree.get((1,))
        assert len(tree) == 0

    def test_delete_missing_returns_false(self):
        tree = BPlusTree()
        assert not tree.delete((1,))

    def test_delete_specific_payload_non_unique(self):
        tree = BPlusTree(unique=False)
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert tree.delete((1,), payload="a")
        assert tree.get((1,)) == ["b"]

    def test_delete_whole_key_non_unique(self):
        tree = BPlusTree(unique=False)
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert tree.delete((1,))
        with pytest.raises(KeyError):
            tree.get((1,))

    def test_lookups_stay_correct_after_many_deletes(self):
        tree = BPlusTree(order=8)
        for i in range(500):
            tree.insert((i,), i)
        for i in range(0, 500, 2):
            assert tree.delete((i,))
        survivors = [k[0] for k, _ in tree.items()]
        assert survivors == list(range(1, 500, 2))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), unique=True, max_size=200))
    def test_matches_sorted_reference(self, keys):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert((key,), key)
        assert [k[0] for k, _ in tree.items()] == sorted(keys)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 100), unique=True, min_size=1, max_size=100),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    def test_range_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert((key,), key)
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert [k[0] for k, _ in tree.range((lo,), (hi,))] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(max_size=8), unique=True, max_size=100))
    def test_string_keys(self, keys):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert((key,), key)
        assert [k[0] for k, _ in tree.items()] == sorted(keys)


# ---------------------------------------------------------------------------
# the leaf-slice walk against the per-key definition of a range
# ---------------------------------------------------------------------------

_component = st.one_of(st.none(), st.integers(0, 6))
_bound = st.one_of(
    st.none(),
    st.tuples(_component),
    st.tuples(_component, _component),
)


def nested(key):
    """A key's components as ``(0,)`` for NULL and ``(1, value)``
    otherwise: the definition of key order, kept apart from the tree's
    own flat form."""
    return [(0,) if value is None else (1, value) for value in key]


def reference_range(pairs, lo, hi, lo_inclusive, hi_inclusive):
    """Every pair whose key prefix lies within the bounds, in key order:
    what a range is, one key at a time, on a sorted list."""
    out = []
    for key, payload in sorted(pairs, key=lambda kv: nested(kv[0])):
        if lo is not None:
            prefix, bound = nested(key[: len(lo)]), nested(lo)
            if prefix < bound or (prefix == bound and not lo_inclusive):
                continue
        if hi is not None:
            prefix, bound = nested(key[: len(hi)]), nested(hi)
            if prefix > bound or (prefix == bound and not hi_inclusive):
                continue
        out.append((key, payload))
    return out


class TestLeafSliceWalk:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(_component, _component), max_size=60),
        _bound,
        _bound,
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["one by one", "one batch", "sorted batch"]),
    )
    def test_range_and_payload_runs_match_definition(
        self, keys, lo, hi, lo_inclusive, hi_inclusive, unique, load
    ):
        if unique:
            keys = list(dict.fromkeys(keys))
        tree = BPlusTree(unique=unique, order=4)
        pairs = [(key, n) for n, key in enumerate(keys)]
        if load == "one by one":
            for key, payload in pairs:
                tree.insert(key, payload)
        elif load == "one batch":
            # a NULL-free batch takes its orderable forms column-wise
            tree.insert_many(keys, list(range(len(keys))), tree.admit(keys))
        else:
            tree.insert_sorted(keys, list(range(len(keys))))
        expected = reference_range(pairs, lo, hi, lo_inclusive, hi_inclusive)
        assert list(tree.range(lo, hi, lo_inclusive, hi_inclusive)) == expected
        runs = list(
            tree.payload_runs(lo, hi, None, lo_inclusive, hi_inclusive)
        )
        assert all(runs)  # no empty run is ever yielded
        assert [p for run in runs for p in run] == [p for _k, p in expected]
        # counted, not walked: no descent is charged to the IO counters
        before = dict(tree.io)
        count = tree.count(lo, hi, lo_inclusive, hi_inclusive)
        assert count == len({key for key, _p in expected})
        assert dict(tree.io) == before

    def test_hi_inside_a_leaf_and_on_a_leaf_boundary(self):
        tree = BPlusTree(order=4)
        for i in range(40):
            tree.insert((i,), i)
        leaf = tree._first_leaf
        last_of_first_leaf = leaf.values[-1][0]
        first_of_second_leaf = leaf.next_leaf.values[0][0]
        inside = leaf.next_leaf.values[1][0]
        for hi in (last_of_first_leaf, first_of_second_leaf, inside):
            got = [p for run in tree.payload_runs((0,), hi) for p in run]
            assert got == list(range(hi[0] + 1))

    def test_one_run_per_leaf(self):
        tree = BPlusTree(order=4)
        for i in range(40):
            tree.insert((i,), i)
        leaves = 0
        leaf = tree._first_leaf
        while leaf is not None:
            leaves += 1
            leaf = leaf.next_leaf
        assert len(list(tree.payload_runs())) == leaves

    def test_runs_skip_leaves_emptied_by_deletes(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert((i,), i)
        for key, _stored in list(tree._first_leaf.next_leaf.values):
            tree.delete(key)
        survivors = [k[0] for k, _ in tree.items()]
        assert [p for run in tree.payload_runs() for p in run] == survivors
        assert all(tree.payload_runs())


# ---------------------------------------------------------------------------
# rightmost appends and ordinary descents, interleaved, against a sorted list
# ---------------------------------------------------------------------------


def leaves(tree):
    out, leaf = [], tree._first_leaf
    while leaf is not None:
        out.append(leaf)
        leaf = leaf.next_leaf
    return out


def leaf_depths(node, depth=1):
    if node.is_leaf:
        return {depth}
    return set().union(*(leaf_depths(c, depth + 1) for c in node.children))


def assert_matches_oracle(tree, oracle):
    """``oracle``: key -> payload list (insertion order), any key order."""
    pairs = [
        ((key,), payload)
        for key in sorted(oracle)
        for payload in oracle[key]
    ]
    assert len(tree) == len(pairs)
    assert list(tree.range()) == pairs
    assert [p for run in tree.payload_runs() for p in run] == [
        p for _key, p in pairs
    ]
    lo, hi = (10,), (40,)
    assert list(tree.range(lo, hi)) == [
        pair for pair in pairs if lo <= pair[0] <= hi
    ]
    for key, payloads in oracle.items():
        assert tree.get((key,)) == (payloads[0] if tree.unique else payloads)
    with pytest.raises(KeyError):
        tree.get((-1,))
    # balanced, chained in key order, and the rightmost leaf is known
    assert leaf_depths(tree._root) == {tree.depth()}
    chain = leaves(tree)
    assert chain[-1] is tree._last_leaf
    flat = [okey for leaf in chain for okey in leaf.keys]
    assert flat == sorted(flat)


_operation = st.one_of(
    st.tuples(st.just("ascending run"), st.integers(1, 12)),
    st.tuples(st.just("insert"), st.integers(0, 60)),
    st.tuples(st.just("batch"), st.lists(st.integers(0, 80), max_size=8)),
    st.tuples(st.just("delete"), st.integers(0, 60)),
    st.tuples(st.just("delete last leaf"), st.none()),
)


class TestRightmostAppend:
    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.lists(_operation, max_size=25))
    def test_any_interleaving_matches_a_sorted_list(self, unique, operations):
        tree = BPlusTree(unique=unique, order=4)
        oracle = {}
        serial = iter(range(10_000))

        def insert(key):
            payload = next(serial)
            if unique and key in oracle:
                # rejected on the rightmost and on the descent path alike
                with pytest.raises(DuplicateKeyError):
                    tree.insert((key,), payload)
            else:
                tree.insert((key,), payload)
                oracle.setdefault(key, []).append(payload)

        for action, argument in operations:
            if action == "ascending run":
                top = max(oracle, default=0)
                for key in range(top + 1, top + 1 + argument):
                    insert(key)
                insert(max(oracle))  # the maximum itself, again
            elif action == "insert":
                insert(argument)
            elif action == "batch":
                keys = [(key,) for key in argument]
                payloads = [next(serial) for _ in keys]
                duplicate = unique and (
                    len(set(argument)) < len(argument)
                    or any(key in oracle for key in argument)
                )
                before = list(tree.range())
                if duplicate:
                    with pytest.raises(DuplicateKeyError):
                        tree.admit(keys)
                    assert list(tree.range()) == before  # nothing inserted
                else:
                    tree.insert_many(keys, payloads, tree.admit(keys))
                    for key, payload in zip(argument, payloads):
                        oracle.setdefault(key, []).append(payload)
            elif action == "delete":
                assert tree.delete((argument,)) == (argument in oracle)
                oracle.pop(argument, None)
            else:  # empty the whole rightmost leaf, then append past it
                for key, _stored in list(tree._last_leaf.values):
                    assert tree.delete(key)
                    del oracle[key[0]]
                assert not tree._last_leaf.keys
                insert(max(oracle, default=0) + 1)
            assert_matches_oracle(tree, oracle)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 640, 1000])
    def test_an_ascending_load_fills_its_leaves(self, n):
        from repro.engine.index.btree import ORDER

        one_by_one, batch = BPlusTree(), BPlusTree()
        for i in range(n):
            one_by_one.insert((i,), i)
        keys = [(i,) for i in range(n)]
        batch.insert_many(keys, list(range(n)), batch.admit(keys))
        for tree in (one_by_one, batch):
            sizes = [len(leaf.keys) for leaf in leaves(tree)]
            assert len(sizes) == -(-n // ORDER)  # ceil(n / ORDER)
            assert all(size == ORDER for size in sizes[:-1])
            assert tree.io["node_visits"] == 0  # nothing descended
            assert list(tree.range()) == [((i,), i) for i in range(n)]

    def test_insert_sorted_builds_full_leaves_from_any_order(self):
        tree = BPlusTree(unique=False, order=4)
        keys = [((i * 7) % 10,) for i in range(40)]
        tree.insert_sorted(keys, list(range(40)))
        assert [len(leaf.keys) for leaf in leaves(tree)] == [4, 4, 2]
        # equal keys keep the order their payloads came in
        assert tree.get((0,)) == [0, 10, 20, 30]
