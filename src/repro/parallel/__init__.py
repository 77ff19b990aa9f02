"""Shared-nothing multiprocessor hash-division (Section 6).

The paper argues -- qualitatively -- that hash-division parallelizes
well under both partitioning strategies and that bit-vector filtering
can cut network traffic for the dividend.  This package makes those
claims quantitative with a deterministic simulation:

* :mod:`repro.parallel.network` -- an interconnect cost model counting
  tuples/bytes/messages shipped,
* :mod:`repro.parallel.processor` -- per-processor execution contexts
  whose CPU meters price local work,
* :mod:`repro.parallel.partitioning` -- round-robin declustering of
  the base relations,
* :mod:`repro.parallel.bitvector` -- Babb-style bit-vector filters,
* :mod:`repro.parallel.division` -- the parallel hash-division driver
  for both strategies (divisor replication with quotient partitioning,
  and divisor partitioning with a collection phase).

Substitution note (DESIGN.md): the paper had GAMMA in mind but ran no
multiprocessor experiment; here "elapsed time" is the maximum
per-processor model time plus interconnect model time, which exposes
exactly the effects Section 6 discusses (speedup, the collection-site
bottleneck, bit-vector savings).
"""

from repro.parallel.bitvector import BitVectorFilter
from repro.parallel.network import Interconnect, NetworkWeights
from repro.parallel.division import ParallelDivisionResult, parallel_hash_division

__all__ = [
    "BitVectorFilter",
    "Interconnect",
    "NetworkWeights",
    "ParallelDivisionResult",
    "parallel_hash_division",
]
