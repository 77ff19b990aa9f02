"""Declustering helper: round-robin placement of base relations.

The Section 6 strategies hash-partition inline as they ship tuples
(:mod:`repro.parallel.division`); only the initial round-robin
declustering of the inputs lives here.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PartitioningError
from repro.relalg.tuples import Row


def round_robin(rows: Sequence[Row], partitions: int) -> list[list[Row]]:
    """Decluster rows round-robin -- the initial placement of base
    relations in the shared-nothing simulation."""
    if partitions <= 0:
        raise PartitioningError(f"partitions must be positive, got {partitions}")
    clusters: list[list[Row]] = [[] for _ in range(partitions)]
    for index, row in enumerate(rows):
        clusters[index % partitions].append(row)
    return clusters
