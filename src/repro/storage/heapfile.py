"""Extent-based record files with record identifiers and scans.

A :class:`HeapFile` is an append-only sequence of slotted pages on one
device: records are never updated or deleted in place, and a whole file
is dropped at once with :meth:`HeapFile.destroy`.  Pages are allocated
in physically contiguous *extents* (the paper's file system is
"extent-based", Section 5.1), so a full sequential scan pays one seek
per extent rather than one per page -- the property that lets
hash-based algorithms benefit from "efficient read-ahead of physically
clustered or contiguous files" (Section 3.3).

Records are addressed by :class:`RecordId` (page number, slot).  All
page access goes through the buffer pool; a scan fixes one page at a
time and hands out record bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import PageError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage

#: Pages allocated per extent.  Eight pages balances contiguity against
#: space waste for the paper's small divisor files.
DEFAULT_EXTENT_PAGES = 8


@dataclass(frozen=True, order=True)
class RecordId:
    """Stable address of one record: (page number, slot number)."""

    page_no: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_no}.{self.slot})"


class HeapFile:
    """An append-only record file on one buffered device.

    Args:
        pool: Buffer pool all page access goes through.
        disk: Backing device (its ``stats`` collector sees the I/O).
        name: File name, for diagnostics.
        extent_pages: Pages per allocation extent.
    """

    def __init__(
        self,
        pool: BufferPool,
        disk: SimulatedDisk,
        name: str = "heap",
        extent_pages: int = DEFAULT_EXTENT_PAGES,
    ) -> None:
        if extent_pages <= 0:
            raise StorageError("extent_pages must be positive")
        self.pool = pool
        self.disk = disk
        self.name = name
        self.extent_pages = extent_pages
        self._pages: list[int] = []
        self._unused_extent_pages: list[int] = []
        self._record_count = 0
        self._destroyed = False

    # -- size ------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Records in the file."""
        return self._record_count

    @property
    def page_count(self) -> int:
        """Pages holding data (allocated-but-unused extent tail excluded)."""
        return len(self._pages)

    def __len__(self) -> int:
        return self._record_count

    # -- writes -----------------------------------------------------------

    def append(self, record: bytes) -> RecordId:
        """Append one record, returning its identifier."""
        self._check_live()
        if self._pages:
            last = self._pages[-1]
            view = self.pool.fix(self.disk.name, last)
            try:
                page = SlottedPage(view)
                if page.fits(len(record)):
                    slot = page.insert(record)
                    self.pool.unfix(self.disk.name, last, dirty=True)
                    self._record_count += 1
                    return RecordId(last, slot)
            except PageError:
                pass
            self.pool.unfix(self.disk.name, last)
        page_no = self._next_data_page()
        # Track the page as data *before* touching it again: if the fix
        # or insert below faults, destroy() must still find (and free)
        # the page or it leaks on the device.
        self._pages.append(page_no)
        view = self.pool.fix(self.disk.name, page_no)
        page = SlottedPage.format(view)
        slot = page.insert(record)
        self.pool.unfix(self.disk.name, page_no, dirty=True)
        self._record_count += 1
        return RecordId(page_no, slot)

    def append_many(self, records: Iterable[bytes]) -> int:
        """Append several records; returns how many were written."""
        count = 0
        for record in records:
            self.append(record)
            count += 1
        return count

    # -- reads ----------------------------------------------------------------

    def scan(self) -> Iterator[tuple[RecordId, bytes]]:
        """Sequential scan yielding ``(rid, record_bytes)``.

        Pages are fixed one at a time in physical order, so a cold scan
        is charged as sequential I/O.
        """
        self._check_live()
        for page_no in self._pages:
            view = self.pool.fix(self.disk.name, page_no)
            try:
                page = SlottedPage(view)
                records = [(slot, bytes(record)) for slot, record in page.records()]
            finally:
                self.pool.unfix(self.disk.name, page_no)
            for slot, record in records:
                yield RecordId(page_no, slot), record

    # -- lifecycle --------------------------------------------------------------

    def destroy(self) -> None:
        """Delete the file: forget buffered pages, free disk pages.

        Dirty buffered pages are dropped *without* write-back -- a
        deleted temp file must not be charged disk writes for data
        nobody will read (this mirrors the paper's observation that
        short-lived temp pages often "remain in the buffer pool from
        run creation to merging and deletion", Section 5.2).
        """
        if self._destroyed:
            return
        trace = self.disk.stats.trace
        if trace.enabled:
            trace.forget_pages(
                self.disk.name, self._pages + self._unused_extent_pages
            )
        for page_no in self._pages + self._unused_extent_pages:
            self.pool.forget_page(self.disk.name, page_no)
            self.disk.free_page(page_no)
        self._pages.clear()
        self._unused_extent_pages.clear()
        self._record_count = 0
        self._destroyed = True

    # -- internals ----------------------------------------------------------------

    def _next_data_page(self) -> int:
        """Take the next page of the current extent, or allocate a new
        extent; the page is zero-filled and must be formatted."""
        if not self._unused_extent_pages:
            self._unused_extent_pages = self.disk.allocate_extent(self.extent_pages)
            # File attribution for page-level I/O tracing: register the
            # extent's pages as ours (a no-op on the null sink).
            trace = self.disk.stats.trace
            if trace.enabled:
                trace.register_pages(
                    self.disk.name, self._unused_extent_pages, self.name
                )
        # Peek, don't pop: fix_new may evict a dirty victim frame whose
        # write-back faults, and a page popped before that point would
        # belong to neither list -- invisible to destroy() and leaked
        # on the device (found by the chaos suite under injected
        # temp-device write faults).
        page_no = self._unused_extent_pages[0]
        # Install a zeroed frame for the fresh page so formatting does
        # not require reading garbage from disk.
        view = self.pool.fix_new(self.disk.name, page_no)
        self.pool.unfix(self.disk.name, page_no, dirty=True)
        self._unused_extent_pages.pop(0)
        return page_no

    def _check_live(self) -> None:
        if self._destroyed:
            raise StorageError(f"heap file {self.name!r} has been destroyed")

    def __repr__(self) -> str:
        return (
            f"<HeapFile {self.name!r} {self._record_count} records on "
            f"{len(self._pages)} pages of {self.disk.name!r}>"
        )
