"""Simulated record-oriented file system (the paper's Section 5.1 substrate).

The original experiments ran "on top of a record-oriented file system
developed at the Oregon Graduate Center using experiences from WiSS and
GAMMA. It simulates a disk using a UNIX file or main memory."  This
package rebuilds those services, with main memory as the one backing:

* :mod:`repro.storage.disk` -- a page-addressed simulated disk that
  counts seeks, transfers, and bytes moved,
* :mod:`repro.storage.stats` -- the Table 3 cost weights that convert
  those counts to model milliseconds,
* :mod:`repro.storage.buffer` -- a fix/unfix buffer manager with LRU
  replacement and dynamic growth,
* :mod:`repro.storage.page` -- slotted pages,
* :mod:`repro.storage.heapfile` -- extent-based, append-only record
  files with record identifiers and sequential scans,
* :mod:`repro.storage.btree` -- the B+-tree behind secondary indexes,
* :mod:`repro.storage.memory` -- the main-memory pool that hash tables,
  bit maps, and chain elements are charged against,
* :mod:`repro.storage.catalog` -- a name -> (file, schema) registry
  plus helpers to load :class:`~repro.relalg.relation.Relation` objects
  into files and back.
"""

from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import DeviceCounters, IoStatistics, IoWeights
from repro.storage.page import SlottedPage
from repro.storage.buffer import BufferPool
from repro.storage.memory import MemoryPool
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.btree import BPlusTree
from repro.storage.index import SecondaryIndex
from repro.storage.catalog import Catalog, StoredRelation

__all__ = [
    "StorageConfig",
    "SimulatedDisk",
    "IoWeights",
    "IoStatistics",
    "DeviceCounters",
    "SlottedPage",
    "BufferPool",
    "MemoryPool",
    "HeapFile",
    "RecordId",
    "BPlusTree",
    "SecondaryIndex",
    "Catalog",
    "StoredRelation",
]
