"""Tests for declustering helpers."""

import pytest

from repro.errors import PartitioningError
from repro.parallel.partitioning import round_robin


class TestRoundRobin:
    def test_even_distribution(self):
        rows = [(i, 0) for i in range(10)]
        clusters = round_robin(rows, 3)
        assert [len(c) for c in clusters] == [4, 3, 3]

    def test_invalid_count(self):
        with pytest.raises(PartitioningError):
            round_robin([], 0)

    def test_negative_count(self):
        with pytest.raises(PartitioningError):
            round_robin([(1,)], -2)

    def test_single_partition_keeps_everything_in_order(self):
        rows = [(i,) for i in range(5)]
        assert round_robin(rows, 1) == [rows]

    def test_more_partitions_than_rows(self):
        clusters = round_robin([(1,), (2,)], 4)
        assert clusters == [[(1,)], [(2,)], [], []]

    def test_clusters_cover_input_and_keep_relative_order(self):
        rows = [(i, i * 2) for i in range(23)]
        clusters = round_robin(rows, 4)
        assert sorted(row for cluster in clusters for row in cluster) == rows
        for node, cluster in enumerate(clusters):
            assert cluster == rows[node::4]
