"""In-memory B+tree used for clustered and secondary indexes.

Keys are tuples of SQL values compared lexicographically (``None`` sorts
first, as SQL Server sorts NULLs). Leaves are linked for ordered range
scans — the property the planner exploits to drive merge joins and the
sliding-window consensus aggregate without sorting.

The tree supports unique keys (primary-key enforcement) and non-unique
keys (secondary indexes), where each key maps to a list of payloads.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import DuplicateKeyError, StorageError
from ..metrics import Counters

#: maximum keys per node before a split
ORDER = 64

_NONE_SENTINEL = (0,)
_VALUE_WRAP = (1,)
#: sorts after every orderable key component (``(0,)`` and ``(1, v)``)
_TOP = (2,)


def _orderable(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Make a key tuple totally orderable despite NULLs and mixed types.

    Each component becomes ``(0,)`` for NULL or ``(1, value)`` otherwise,
    so NULL < any value and comparisons never hit ``None < int``.
    """
    return tuple(
        _NONE_SENTINEL if v is None else (1, v) for v in key
    )


class _Node:
    __slots__ = ("is_leaf", "keys", "children", "values", "next_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[Tuple[Any, ...]] = []  # orderable forms
        self.children: List["_Node"] = []      # internal nodes only
        self.values: List[Any] = []            # leaves only
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """A B+tree mapping key tuples to payloads.

    Parameters
    ----------
    unique:
        Reject duplicate keys (raises :class:`DuplicateKeyError`).
        Non-unique trees store a list of payloads per key.
    """

    def __init__(self, unique: bool = True, order: int = ORDER):
        if order < 4:
            raise StorageError("btree order must be >= 4")
        self._order = order
        self.unique = unique
        self._root = _Node(is_leaf=True)
        self._first_leaf = self._root
        self._count = 0  # number of (key, payload) pairs
        #: always-on IO counters: seeks, node_visits, inserts
        self.io = Counters()

    # -- public API ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def insert(self, key: Tuple[Any, ...], payload: Any) -> None:
        okey = _orderable(key)
        self.io.incr("inserts")
        split = self._insert(self._root, okey, key, payload)
        if split is not None:
            sep, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root

    def get(self, key: Tuple[Any, ...]) -> Any:
        """Payload for ``key`` (the payload list when non-unique);
        raises ``KeyError`` when absent."""
        okey = _orderable(key)
        node = self._leaf_for(okey)
        i = bisect.bisect_left(node.keys, okey)
        if i < len(node.keys) and node.keys[i] == okey:
            return node.values[i][1]
        raise KeyError(key)

    def contains(self, key: Tuple[Any, ...]) -> bool:
        try:
            self.get(key)
            return True
        except KeyError:
            return False

    def delete(self, key: Tuple[Any, ...], payload: Any = None) -> bool:
        """Remove ``key`` (or one matching payload from a non-unique
        key's list). Returns True when something was removed. The tree is
        not rebalanced — deletes are rare in this workload and lookups
        stay correct."""
        okey = _orderable(key)
        node = self._leaf_for(okey)
        i = bisect.bisect_left(node.keys, okey)
        if i >= len(node.keys) or node.keys[i] != okey:
            return False
        if self.unique:
            del node.keys[i]
            del node.values[i]
            self._count -= 1
            return True
        payloads = node.values[i][1]
        if payload is None:
            removed = len(payloads)
            del node.keys[i]
            del node.values[i]
            self._count -= removed
            return True
        try:
            payloads.remove(payload)
        except ValueError:
            return False
        self._count -= 1
        if not payloads:
            del node.keys[i]
            del node.values[i]
        return True

    def items(self) -> Iterator[Tuple[Tuple[Any, ...], Any]]:
        """All ``(key, payload)`` pairs in key order. Non-unique trees
        yield each payload separately."""
        return self.range()

    def range(
        self,
        lo: Optional[Tuple[Any, ...]] = None,
        hi: Optional[Tuple[Any, ...]] = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[Tuple[Tuple[Any, ...], Any]]:
        """Ordered scan of keys in ``[lo, hi]`` (open-ended when None).

        Bounds may be shorter than the full key — a prefix bound matches
        every key extending it (as a composite-index seek would).
        """
        unique = self.unique
        for entries in self._leaf_slices(lo, hi, lo_inclusive, hi_inclusive):
            if unique:
                yield from entries
            else:
                for key, stored in entries:
                    for payload in stored:
                        yield key, payload

    def payload_runs(
        self,
        lo: Optional[Tuple[Any, ...]] = None,
        hi: Optional[Tuple[Any, ...]] = None,
    ) -> Iterator[List[Any]]:
        """The payloads of the keys in ``[lo, hi]`` in key order, one
        non-empty list per leaf: :meth:`range` without the keys and
        without a generator resumption per entry."""
        unique = self.unique
        for entries in self._leaf_slices(lo, hi, True, True):
            if unique:
                yield [stored for _key, stored in entries]
            else:
                yield [
                    payload for _key, stored in entries for payload in stored
                ]

    # -- internals ------------------------------------------------------------------

    def _leaf_slices(
        self,
        lo: Optional[Tuple[Any, ...]],
        hi: Optional[Tuple[Any, ...]],
        lo_inclusive: bool,
        hi_inclusive: bool,
    ) -> Iterator[List[Tuple[Tuple[Any, ...], Any]]]:
        """The one range walk: the stored ``(key, payloads)`` entries of
        every key in the range, one non-empty list per leaf.

        Both ends are bisected. A prefix bound sorts before every key
        extending it and the same bound with :data:`_TOP` appended sorts
        after all of them, so an inclusive and an exclusive end differ
        only in which of the two is searched for."""
        if lo is None:
            leaf, i = self._first_leaf, 0
        else:
            start = _orderable(lo)
            if not lo_inclusive:
                start += (_TOP,)
            leaf = self._leaf_for(start)
            i = bisect.bisect_left(leaf.keys, start)
        stop = None
        if hi is not None:
            stop = _orderable(hi)
            if hi_inclusive:
                stop += (_TOP,)
        while leaf is not None:
            keys = leaf.keys
            if stop is not None and keys and keys[-1] >= stop:
                j = bisect.bisect_left(keys, stop, i)
                if j > i:
                    yield leaf.values[i:j]
                return
            if i < len(keys):
                yield leaf.values[i:]
            leaf = leaf.next_leaf
            i = 0

    def _leaf_for(self, okey: Tuple[Any, ...]) -> _Node:
        node = self._root
        visited = 1
        while not node.is_leaf:
            i = bisect.bisect_right(node.keys, okey)
            node = node.children[i]
            visited += 1
        io = self.io
        io.incr("seeks")
        io.incr("node_visits", visited)
        return node

    def _insert(
        self,
        node: _Node,
        okey: Tuple[Any, ...],
        key: Tuple[Any, ...],
        payload: Any,
    ) -> Optional[Tuple[Tuple[Any, ...], _Node]]:
        if node.is_leaf:
            i = bisect.bisect_left(node.keys, okey)
            if i < len(node.keys) and node.keys[i] == okey:
                if self.unique:
                    raise DuplicateKeyError(f"duplicate key {key!r}")
                node.values[i][1].append(payload)
                self._count += 1
                return None
            node.keys.insert(i, okey)
            stored = payload if self.unique else [payload]
            node.values.insert(i, (key, stored))
            self._count += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        i = bisect.bisect_right(node.keys, okey)
        split = self._insert(node.children[i], okey, key, payload)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.keys) > self._order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[Tuple[Any, ...], _Node]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> Tuple[Tuple[Any, ...], _Node]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- diagnostics ----------------------------------------------------------------

    def depth(self) -> int:
        node, depth = self._root, 1
        while not node.is_leaf:
            node = node.children[0]
            depth += 1
        return depth
