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
from itertools import repeat
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..errors import DuplicateKeyError, StorageError
from ..metrics import Counters
from ..storage.base import part_of

#: maximum keys per node before a split
ORDER = 64

_NONE_SENTINEL = (0,)
_ONES = repeat(1)
_VALUE_WRAP = (1,)
#: sorts after every orderable key component (``(0,)`` and ``(1, v)``)
_TOP = (2,)


def _orderable(key: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Make a key tuple totally orderable despite NULLs and mixed types.

    Each component becomes ``(0,)`` for NULL or ``(1, value)`` otherwise,
    so NULL < any value and comparisons never hit ``None < int``.
    """
    if None in key:
        return tuple([_NONE_SENTINEL if v is None else (1, v) for v in key])
    return tuple(zip(_ONES, key))


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
        #: the rightmost leaf: a key above its last key is above every
        #: key in the tree and is appended without a descent
        self._last_leaf = self._root
        self._count = 0  # number of (key, payload) pairs
        #: always-on IO counters: seeks, node_visits, inserts
        self.io = Counters()

    # -- public API ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def insert(self, key: Tuple[Any, ...], payload: Any) -> None:
        self.insert_many((key,), (payload,))

    def insert_many(
        self,
        keys: Sequence[Tuple[Any, ...]],
        payloads: Sequence[Any],
        okeys: Optional[Sequence[Tuple[Any, ...]]] = None,
    ) -> None:
        """Insert ``keys[i] -> payloads[i]`` in order (``okeys``: their
        orderable forms when :meth:`admit` already built them).

        A key above the tree's maximum is appended to the rightmost
        leaf, which fills to the tree's order before a new leaf opens at
        the right edge, so an ascending load leaves every leaf full and
        descends nothing. Any other key takes the ordinary descent and
        mid-point split. A unique tree raises
        :class:`DuplicateKeyError` at the first duplicate, with the keys
        before it inserted; :meth:`admit` decides a batch beforehand."""
        if okeys is None:
            okeys = [_orderable(key) for key in keys]
        order = self._order
        unique = self.unique
        done = 0
        try:
            for okey, key, payload in zip(okeys, keys, payloads):
                leaf = self._last_leaf
                last_keys = leaf.keys
                if last_keys and okey > last_keys[-1]:
                    if len(last_keys) < order:
                        last_keys.append(okey)
                        leaf.values.append(
                            (key, payload if unique else [payload])
                        )
                    else:
                        self._open_right_leaf(okey, key, payload)
                elif last_keys and not unique and okey == last_keys[-1]:
                    leaf.values[-1][1].append(payload)
                else:
                    split = self._insert(self._root, okey, key, payload)
                    if split is not None:
                        self._grow_root(*split)
                done += 1
        finally:
            self._count += done
            self.io.incr("inserts", done)

    def insert_sorted(
        self, keys: Sequence[Tuple[Any, ...]], payloads: Sequence[Any]
    ) -> None:
        """:meth:`insert_many` in key order (a stable sort, so the
        payloads of equal keys keep their order): on an empty tree every
        insert is a rightmost append and the leaves come out full."""
        okeys = [_orderable(key) for key in keys]
        order = sorted(range(len(okeys)), key=okeys.__getitem__)
        self.insert_many(
            [keys[i] for i in order],
            [payloads[i] for i in order],
            [okeys[i] for i in order],
        )

    def admit(self, keys: Sequence[Tuple[Any, ...]]) -> List[Tuple[Any, ...]]:
        """The orderable forms of ``keys``, after checking that a unique
        tree can take every one of them: raises
        :class:`DuplicateKeyError` when two are equal or one is already
        stored, and inserts nothing. A key above both the tree's maximum
        and the keys before it needs no lookup; any other key is hashed
        against the batch and costs one lookup descent."""
        okeys = [_orderable(key) for key in keys]
        if not self.unique:
            return okeys
        last_keys = self._last_leaf.keys
        top = last_keys[-1] if last_keys else self._max_key()
        seen = None  # the batch so far, hashed once a key is out of order
        for n, okey in enumerate(okeys):
            if okey > top:
                top = okey
                if seen is not None:
                    seen.add(okey)
                continue
            if seen is None:
                seen = set(okeys[:n])
            duplicate = okey in seen
            if not duplicate:
                stored = self._leaf_for(okey).keys
                i = bisect.bisect_left(stored, okey)
                duplicate = i < len(stored) and stored[i] == okey
            if duplicate:
                raise DuplicateKeyError(f"duplicate key {keys[n]!r}")
            seen.add(okey)
        return okeys

    def get(self, key: Tuple[Any, ...]) -> Any:
        """Payload for ``key`` (the payload list when non-unique);
        raises ``KeyError`` when absent."""
        okey = _orderable(key)
        node = self._leaf_for(okey)
        i = bisect.bisect_left(node.keys, okey)
        if i < len(node.keys) and node.keys[i] == okey:
            return node.values[i][1]
        raise KeyError(key)

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
        part: Optional[Tuple[int, int]] = None,
    ) -> Iterator[List[Any]]:
        """The payloads of the keys in ``[lo, hi]`` in key order, one
        non-empty list per leaf: :meth:`range` without the keys and
        without a generator resumption per entry. ``part = (i, n)``
        keeps the ``i``-th of ``n`` contiguous shares of those leaf
        runs (an exchange worker's slice of the key range)."""
        unique = self.unique
        slices = self._leaf_slices(lo, hi, True, True)
        if part is not None:
            slices = part_of(list(slices), part)
        for entries in slices:
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

    def _max_key(self) -> Tuple[Any, ...]:
        """Orderable form of the largest key when the rightmost leaf
        does not hold it (the tree is empty, or deletes, which never
        rebalance, emptied that leaf); ``()``, which sorts below every
        key, for an empty tree."""
        top: Tuple[Any, ...] = ()
        leaf = self._first_leaf
        while leaf is not None:
            if leaf.keys:
                top = leaf.keys[-1]
            leaf = leaf.next_leaf
        return top

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
                return None
            node.keys.insert(i, okey)
            stored = payload if self.unique else [payload]
            node.values.insert(i, (key, stored))
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
        if node is self._last_leaf:
            self._last_leaf = right
        return right.keys[0], right

    def _open_right_leaf(
        self, okey: Tuple[Any, ...], key: Tuple[Any, ...], payload: Any
    ) -> None:
        """The rightmost leaf is full and ``okey`` is above it: start a
        new rightmost leaf with it (the split at the right edge) and add
        the separator along the right spine."""
        leaf = _Node(is_leaf=True)
        leaf.keys = [okey]
        leaf.values = [(key, payload if self.unique else [payload])]
        self._last_leaf.next_leaf = leaf
        self._last_leaf = leaf
        spine = []
        node = self._root
        while not node.is_leaf:
            spine.append(node)
            node = node.children[-1]
        sep, right = okey, leaf
        while spine:
            parent = spine.pop()
            parent.keys.append(sep)
            parent.children.append(right)
            if len(parent.keys) <= self._order:
                return
            sep, right = self._split_internal(parent)
        self._grow_root(sep, right)

    def _grow_root(self, sep: Tuple[Any, ...], right: _Node) -> None:
        new_root = _Node(is_leaf=False)
        new_root.keys = [sep]
        new_root.children = [self._root, right]
        self._root = new_root

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
