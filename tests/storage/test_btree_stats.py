"""Structural-maintenance and access counters on the B+-tree."""

from repro.storage.btree import BPlusTree


def loaded_tree(order: int = 4, keys: int = 50) -> BPlusTree:
    tree = BPlusTree(order=order)
    for key in range(keys):
        tree.insert(key, key * 10)
    return tree


class TestBTreeStats:
    def test_fresh_tree_has_zeroed_stats(self):
        tree = BPlusTree(order=4)
        stats = tree.stats
        assert stats.searches == 0
        assert stats.inserts == 0
        assert stats.deletes == 0
        assert stats.leaf_splits == 0
        assert stats.interior_splits == 0
        assert stats.leaf_scans == 0
        assert stats.leaves_visited == 0

    def test_inserts_and_splits_are_counted(self):
        tree = loaded_tree(order=4, keys=50)
        assert tree.stats.inserts == 50
        # Order 4 over 50 keys forces many leaf splits and at least one
        # interior split (the tree is 3+ levels tall).
        assert tree.stats.leaf_splits > 0
        assert tree.stats.interior_splits > 0
        assert tree.height >= 3

    def test_searches_are_counted_hit_or_miss(self):
        tree = loaded_tree()
        assert tree.search(7) == 70
        assert tree.search(999) is None
        assert tree.stats.searches == 2

    def test_contains_does_not_inflate_search_count(self):
        # ``in`` goes through search(); either way the count moves in
        # lock-step with the number of probes issued.
        tree = loaded_tree()
        before = tree.stats.searches
        assert 3 in tree
        assert tree.stats.searches == before + 1

    def test_range_counts_scans_and_leaves(self):
        tree = loaded_tree(order=4, keys=50)
        drained = list(tree.range(10, 30))
        assert len(drained) == 21
        assert tree.stats.leaf_scans == 1
        assert tree.stats.leaves_visited >= 1
        # A full scan touches every leaf; a bounded one touches fewer.
        bounded = tree.stats.leaves_visited
        list(tree.items())
        assert tree.stats.leaf_scans == 2
        assert tree.stats.leaves_visited > bounded

    def test_deletes_are_counted(self):
        tree = loaded_tree(order=4, keys=20)
        for key in range(5):
            tree.delete(key)
        assert tree.stats.deletes == 5
        assert len(tree) == 15
