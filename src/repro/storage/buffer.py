"""The buffer manager.

Models the paper's buffer pool (Section 5.1):

* pages are *fixed* in the pool and accessed by memory address (here, a
  ``memoryview``); copying is avoided,
* in the paper an *unfix* call indicates whether the page can be
  replaced immediately or should be inserted into an LRU list; no
  operator here asks for immediate replacement, so every unfixed page
  joins the LRU list,
* the pool "grows dynamically until the main memory pool is exhausted,
  and shrinks as buffer slots are unfixed": fixing more pages than the
  configured buffer size is allowed up to ``memory_limit``; once pages
  are unfixed, the pool evicts back down to its configured size.

Physical I/O happens only on a buffer miss (read) and on eviction or
flush of a dirty page (write), which is how the experimental runs where
"the entire dividend relation fits into the buffer" (Section 5.2)
naturally incur no sort I/O in the Table 4 reproduction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import BufferPoolError, StorageError
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk

PageKey = tuple[str, int]
"""(device name, page number)"""


@dataclass
class _Frame:
    data: bytearray
    fix_count: int = 0
    dirty: bool = False


@dataclass
class BufferPoolStats:
    """Logical access statistics (hits/misses), for reporting only.

    ``fixes`` counts :meth:`BufferPool.fix` / :meth:`BufferPool.fix_new`
    calls, not record accesses: record files fix a page once per page
    filled or scanned, however many records it holds.  So ``hits`` and
    ``hit_ratio`` describe page visits; ``misses``, ``evictions`` and
    ``writebacks`` are the physical transfers the Table 3 meters see.
    """

    fixes: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        """Fixes served from the pool without physical I/O."""
        return self.fixes - self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of fixes served without physical I/O."""
        return 0.0 if self.fixes == 0 else 1.0 - self.misses / self.fixes


class BufferPool:
    """Fix/unfix buffer manager over one or more simulated devices.

    Args:
        config: Sizes and growth limits.
    """

    def __init__(self, config: StorageConfig | None = None) -> None:
        self.config = config or StorageConfig()
        self.stats = BufferPoolStats()
        self._disks: dict[str, SimulatedDisk] = {}
        self._frames: dict[PageKey, _Frame] = {}
        self._lru: OrderedDict[PageKey, None] = OrderedDict()
        self._bytes_in_use = 0

    # -- device registry -----------------------------------------------

    def register_device(self, disk: SimulatedDisk) -> SimulatedDisk:
        """Attach a simulated disk so its pages can be buffered."""
        if disk.name in self._disks:
            raise StorageError(f"device name {disk.name!r} already registered")
        self._disks[disk.name] = disk
        return disk

    def page_size_of(self, device: str) -> int:
        """Page size of a registered device."""
        if device in self._disks:
            return self._disks[device].page_size
        raise StorageError(f"unknown device {device!r}")

    # -- memory accounting -----------------------------------------------

    @property
    def bytes_in_use(self) -> int:
        """Bytes of pool memory currently holding page frames."""
        return self._bytes_in_use

    def fixed_page_count(self) -> int:
        """Frames with a non-zero fix count."""
        return sum(1 for f in self._frames.values() if f.fix_count > 0)

    # -- page lifecycle --------------------------------------------------

    def fix_new(self, device: str, page_no: int) -> memoryview:
        """Fix a freshly allocated disk page without reading it.

        The caller guarantees ``page_no`` was just allocated (its disk
        contents are zeroed), so installing a zeroed frame is
        equivalent to -- and cheaper than -- a physical read.
        """
        key = (device, page_no)
        if key in self._frames:
            return self.fix(device, page_no)
        self.stats.fixes += 1
        frame = self._install(device, page_no, bytearray(self.page_size_of(device)))
        frame.fix_count = 1
        return memoryview(frame.data)

    def fix(self, device: str, page_no: int) -> memoryview:
        """Fix a page in the pool, reading it from disk on a miss.

        Returns a writable view of the frame.  Call :meth:`unfix`
        exactly once per successful fix.
        """
        key = (device, page_no)
        self.stats.fixes += 1
        frame = self._frames.get(key)
        if frame is not None:
            frame.fix_count += 1
            if key in self._lru:
                del self._lru[key]
            return memoryview(frame.data)
        self.stats.misses += 1
        if device not in self._disks:
            raise StorageError(f"unknown device {device!r}")
        data = self._disks[device].read_page(page_no)
        frame = self._install(device, page_no, data)
        frame.fix_count = 1
        return memoryview(frame.data)

    def unfix(self, device: str, page_no: int, dirty: bool = False) -> None:
        """Release one fix on a page.

        Args:
            device: Device name.
            page_no: Page number.
            dirty: Mark the frame modified so eviction writes it back.
        """
        key = (device, page_no)
        frame = self._frames.get(key)
        if frame is None:
            raise BufferPoolError(f"page ({device!r}, {page_no}) is not fixed")
        if frame.fix_count <= 0:
            # The frame is resident but fully released: an unbalanced
            # fix/unfix in the caller, distinct from unfixing a page
            # that was never brought in at all.
            raise BufferPoolError(
                f"double unfix of page ({device!r}, {page_no}): "
                "frame is resident but its fix count is already zero"
            )
        if dirty:
            frame.dirty = True
        frame.fix_count -= 1
        if frame.fix_count > 0:
            return
        self._lru[key] = None
        self._shrink_to_target()

    # -- maintenance ---------------------------------------------------------

    def flush_device(self, device: str) -> None:
        """Write back every dirty frame of a device (keeps frames)."""
        disk = self._disks[device]
        for (dev, page_no), frame in self._frames.items():
            if dev == device and frame.dirty:
                disk.write_page(page_no, frame.data)
                frame.dirty = False
                self.stats.writebacks += 1

    def forget_page(self, device: str, page_no: int) -> None:
        """Drop one unfixed frame without write-back (dead data).

        Used when a file page is freed: its contents are dead, so a
        dirty frame must not be charged as a disk write.  A frame that
        is still fixed raises; an absent frame is a no-op.
        """
        key = (device, page_no)
        frame = self._frames.get(key)
        if frame is None:
            return
        if frame.fix_count > 0:
            raise BufferPoolError(f"page ({device!r}, {page_no}) is still fixed")
        self._frames.pop(key)
        self._lru.pop(key, None)
        self._bytes_in_use -= len(frame.data)

    def drop_device_pages(self, device: str) -> None:
        """Evict every unfixed frame of ``device`` (a cache drop).

        Dirty frames are written back first so no data is lost -- this
        is how experiments cool the cache between setup and
        measurement.  Dead data of a destroyed file is released page by
        page with :meth:`forget_page` instead.
        """
        victims = [
            key
            for key, frame in self._frames.items()
            if key[0] == device and frame.fix_count == 0
        ]
        for key in victims:
            frame = self._frames.pop(key)
            self._lru.pop(key, None)
            self._bytes_in_use -= len(frame.data)
            if frame.dirty:
                self._disks[device].write_page(key[1], frame.data)
                self.stats.writebacks += 1

    # -- internals ------------------------------------------------------------

    def _install(self, device: str, page_no: int, data: bytearray) -> _Frame:
        page_size = len(data)
        self._make_room(page_size)
        frame = _Frame(data=data)
        self._frames[(device, page_no)] = frame
        self._bytes_in_use += page_size
        return frame

    def _make_room(self, needed: int) -> None:
        limit = self.config.memory_limit
        while self._bytes_in_use + needed > limit and self._lru:
            self._evict_one()
        if self._bytes_in_use + needed > limit:
            raise BufferPoolError(
                f"buffer pool exhausted: {self._bytes_in_use} bytes fixed, "
                f"{needed} more requested, limit {limit}"
            )

    def _shrink_to_target(self) -> None:
        target = self.config.buffer_size
        while self._bytes_in_use > target and self._lru:
            self._evict_one()

    def _evict_one(self) -> None:
        # Write the LRU head back before taking it off the list: if the
        # write faults, the frame stays resident, dirty and evictable.
        key = next(iter(self._lru))
        frame = self._frames[key]
        if frame.dirty:
            device, page_no = key
            self._disks[device].write_page(page_no, frame.data)
            self.stats.writebacks += 1
        del self._lru[key]
        del self._frames[key]
        self._bytes_in_use -= len(frame.data)
        self.stats.evictions += 1
