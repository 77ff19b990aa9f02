"""B+-tree indexes.

The paper's file system lists B+-trees among its main services
(Section 5.1).  The division experiments themselves never probe an
index -- every algorithm scans its inputs sequentially -- but the
index semi-join mentioned for the aggregation strategies
(Section 2.2.1) needs one.  The index is built once and then only
probed, so the tree supports insertion and range scans.

This is a classic order-``n`` B+-tree: interior nodes hold separator
keys and children; leaves hold (key, value) pairs and are chained for
range scans.  Keys are arbitrary orderable tuples, values are opaque
(typically :class:`~repro.storage.heapfile.RecordId`).  Duplicate keys
are rejected -- :class:`~repro.storage.index.SecondaryIndex` appends
the RID to the key to make it unique.

Every key comparison can be metered into a
:class:`~repro.metering.CpuCounters` so index costs are visible in the
same units as everything else.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.errors import BTreeError
from repro.metering import CpuCounters

DEFAULT_ORDER = 64
"""Default maximum children per interior node."""


class _Node:
    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys: list[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__()
        self.values: list[Any] = []
        self.next: "_Leaf | None" = None


class _Interior(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[_Node] = []


class BPlusTree:
    """An in-memory B+-tree with chained leaves.

    Args:
        order: Maximum number of children of an interior node (also the
            maximum number of entries in a leaf).  Must be at least 3.
        cpu: Optional counters; every key comparison performed while
            descending or splitting is charged as one ``Comp``.
    """

    def __init__(self, order: int = DEFAULT_ORDER, cpu: CpuCounters | None = None) -> None:
        if order < 3:
            raise BTreeError(f"order must be >= 3, got {order}")
        self.order = order
        self.cpu = cpu
        self._root: _Node = _Leaf()
        self._size = 0
        self._height = 1

    # -- observers --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels in the tree (1 = a single leaf)."""
        return self._height

    # -- search ------------------------------------------------------------

    def _charge(self, comparisons: int) -> None:
        if self.cpu is not None:
            self.cpu.comparisons += comparisons

    def _bisect_cost(self, length: int) -> int:
        return max(1, length.bit_length())

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            self._charge(self._bisect_cost(len(node.keys)))
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node  # type: ignore[return-value]

    def range(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Iterate ``(key, value)`` for ``low <= key <= high`` in order.

        ``None`` bounds are open.
        """
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            index = 0
        else:
            leaf = self._find_leaf(low)
            self._charge(self._bisect_cost(len(leaf.keys)))
            index = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high is not None and key > high:
                    return
                yield key, leaf.values[index]
                index += 1
            leaf = leaf.next
            index = 0

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Interior):
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insertion -------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a unique key.

        Raises:
            BTreeError: when ``key`` is already present.
        """
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Interior()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert(self, node: _Node, key: Any, value: Any) -> tuple[Any, _Node] | None:
        if isinstance(node, _Leaf):
            self._charge(self._bisect_cost(len(node.keys)))
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                raise BTreeError(f"duplicate key {key!r}")
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) <= self.order:
                return None
            return self._split_leaf(node)
        assert isinstance(node, _Interior)
        self._charge(self._bisect_cost(len(node.keys)))
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.children) <= self.order:
            return None
        return self._split_interior(node)

    def _split_leaf(self, leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_interior(self, node: _Interior) -> tuple[Any, _Interior]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Interior()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right
