"""``PagedDiskBase``: the name the layer probe of ``perfbench`` times.

It is :class:`repro.storage.disk.SimulatedDisk` itself, not a base
class or a wrapper, so patching ``PagedDiskBase.read_page`` patches the
method every device runs.
"""

from repro.storage.disk import SimulatedDisk as PagedDiskBase

__all__ = ["PagedDiskBase"]
