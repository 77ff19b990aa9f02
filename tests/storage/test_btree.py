"""Tests for the B+-tree."""

import random

import pytest

from repro.errors import BTreeError
from repro.metering import CpuCounters
from repro.storage.btree import BPlusTree


def point(tree, key):
    """Values stored under exactly ``key`` (a closed point range)."""
    return [value for _, value in tree.range(key, key)]


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree(order=4)
        assert len(tree) == 0
        assert point(tree, (1,)) == []
        assert list(tree.range()) == []
        assert tree.height == 1

    def test_insert_and_point_lookup(self):
        tree = BPlusTree(order=4)
        tree.insert((5,), "five")
        tree.insert((3,), "three")
        assert point(tree, (5,)) == ["five"]
        assert point(tree, (3,)) == ["three"]
        assert point(tree, (4,)) == []

    def test_duplicate_key_rejected(self):
        tree = BPlusTree(order=4)
        tree.insert((1,), "a")
        with pytest.raises(BTreeError):
            tree.insert((1,), "b")

    def test_order_must_be_at_least_three(self):
        with pytest.raises(BTreeError):
            BPlusTree(order=2)

    def test_rejected_duplicate_leaves_tree_unchanged(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert((key,), key)
        with pytest.raises(BTreeError):
            tree.insert((5,), "again")
        assert len(tree) == 10
        assert point(tree, (5,)) == [5]
        assert [v for _, v in tree.range()] == list(range(10))

    def test_composite_keys_order_lexicographically(self):
        tree = BPlusTree(order=4)
        for key in [(2, 1), (1, 9), (1, 2), (2, 0)]:
            tree.insert(key, key)
        assert [k for k, _ in tree.range()] == [(1, 2), (1, 9), (2, 0), (2, 1)]


class TestOrderingAndRange:
    def test_full_range_sorted(self):
        tree = BPlusTree(order=4)
        keys = list(range(50))
        random.Random(1).shuffle(keys)
        for key in keys:
            tree.insert((key,), key)
        assert [key for key, _ in tree.range()] == [(i,) for i in range(50)]

    def test_range_with_bounds(self):
        tree = BPlusTree(order=4)
        for key in range(20):
            tree.insert((key,), key)
        assert [v for _, v in tree.range((5,), (8,))] == [5, 6, 7, 8]

    def test_range_open_bounds(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert((key,), key)
        assert [v for _, v in tree.range(low=(7,))] == [7, 8, 9]
        assert [v for _, v in tree.range(high=(2,))] == [0, 1, 2]

    def test_range_on_empty_tree(self):
        tree = BPlusTree(order=4)
        assert list(tree.range((1,), (5,))) == []

    def test_inverted_bounds_yield_nothing(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert((key,), key)
        assert list(tree.range((6,), (3,))) == []

    def test_range_crosses_leaf_chain(self):
        tree = BPlusTree(order=3)
        for key in range(30):
            tree.insert((key,), key)
        assert tree.height >= 3
        assert [v for _, v in tree.range((4,), (25,))] == list(range(4, 26))

    def test_range_between_keys(self):
        tree = BPlusTree(order=4)
        for key in (0, 10, 20):
            tree.insert((key,), key)
        assert [v for _, v in tree.range((5,), (15,))] == [10]


class TestSplitsAndHeight:
    @pytest.mark.parametrize("order", [3, 4, 5, 64])
    def test_random_insertions_stay_sorted(self, order):
        tree = BPlusTree(order=order)
        keys = list(range(200))
        random.Random(order).shuffle(keys)
        for key in keys:
            tree.insert((key,), -key)
        assert list(tree.range()) == [((i,), -i) for i in range(200)]
        assert all(point(tree, (i,)) == [-i] for i in range(200))

    def test_single_leaf_until_first_split(self):
        tree = BPlusTree(order=4)
        for key in range(4):
            tree.insert((key,), key)
        assert tree.height == 1
        tree.insert((4,), 4)
        assert tree.height == 2

    def test_height_grows_with_size(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert((key,), key)
        assert tree.height >= 3
        assert len(tree) == 100

    def test_descending_insertions(self):
        tree = BPlusTree(order=4)
        for key in reversed(range(64)):
            tree.insert((key,), key)
        assert [key for key, _ in tree.range()] == [(i,) for i in range(64)]


class TestMetering:
    def test_comparisons_charged(self):
        cpu = CpuCounters()
        tree = BPlusTree(order=4, cpu=cpu)
        for key in range(32):
            tree.insert((key,), key)
        assert cpu.comparisons > 0
        before = cpu.comparisons
        point(tree, (16,))
        assert cpu.comparisons > before

    def test_bounded_range_charges_its_descent(self):
        cpu = CpuCounters()
        tree = BPlusTree(order=4, cpu=cpu)
        for key in range(32):
            tree.insert((key,), key)
        before = cpu.comparisons
        list(tree.range((10,), (12,)))
        assert cpu.comparisons > before

    def test_unmetered_tree_needs_no_counters(self):
        tree = BPlusTree(order=4)
        for key in range(32):
            tree.insert((key,), key)
        assert tree.cpu is None
        assert point(tree, (31,)) == [31]
