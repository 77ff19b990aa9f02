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
page access goes through the buffer pool, one page per fix: an append
fixes the tail page once and fills it, and a scan fixes each page once
and hands out all of its record bytes together.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from repro.errors import PageError, StorageError
from repro.relalg.schema import RecordCodec
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SlottedPage, max_record_size

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
        #: Records on the tail page (the last of ``_pages``).
        self._tail_slots = 0
        self._max_record_size = max_record_size(disk.page_size)
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
        self.append_many((record,))
        return RecordId(self._pages[-1], self._tail_slots - 1)

    def append_many(self, records: Iterable[bytes]) -> int:
        """Append records in order; returns how many were written.

        The tail page is fixed once and filled until a record does not
        fit; that record starts the next page.  A record too long for
        an empty page raises :class:`PageError` before any page is
        allocated for it (the records before it stay written).
        """
        self._check_live()
        before = self._record_count
        records = iter(records)
        record = next(records, None)
        if record is not None and self._pages:
            record = self._fill(self._pages[-1], record, records)
        while record is not None:
            if len(record) > self._max_record_size:
                raise PageError(
                    f"record of {len(record)} bytes does not fit an empty "
                    f"{self.disk.page_size}-byte page"
                )
            page_no = self._next_data_page()
            # Track the page as data *before* touching it again: if the
            # fix below faults, destroy() must still find (and free) the
            # page or it leaks on the device.
            self._pages.append(page_no)
            self._tail_slots = 0
            record = self._fill(page_no, record, records)
        return self._record_count - before

    # -- reads ----------------------------------------------------------------

    def scan(self) -> Iterator[tuple[int, int, bytes]]:
        """Sequential scan yielding ``(page_no, slot_count, records)``
        per page, where ``records`` holds the page's records back to
        back in slot order (a record's slot is its position there).

        Pages are fixed one at a time in physical order, so a cold scan
        is charged as sequential I/O; each page is copied out and
        unfixed before it is yielded.
        """
        self._check_live()
        device = self.disk.name
        for page_no in self._pages:
            view = self.pool.fix(device, page_no)
            try:
                slot_count, region = SlottedPage(view).packed_records()
                records = bytes(region)
            finally:
                self.pool.unfix(device, page_no)
            yield page_no, slot_count, records

    def scan_pages(self, codec: RecordCodec) -> Iterator[list[tuple]]:
        """Sequential scan yielding each page's records decoded with
        ``codec``, one list per page (empty for a page with no
        records)."""
        decode_page = codec.decode_page
        return (
            decode_page(records, slot_count) for _, slot_count, records in self.scan()
        )

    def scan_rows(self, codec: RecordCodec) -> Iterator[tuple]:
        """Sequential scan decoding each page's records with ``codec``."""
        return chain.from_iterable(self.scan_pages(codec))

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

    def _fill(
        self, page_no: int, record: bytes, records: Iterator[bytes]
    ) -> bytes | None:
        """Fix one page, fill it from ``record`` and ``records``, and
        unfix it; returns the record that did not fit, if any.

        The record count follows the page header even when ``records``
        raises part-way.
        """
        device = self.disk.name
        page = SlottedPage(self.pool.fix(device, page_no))
        try:
            return page.fill(record, records)
        finally:
            slots = page.slot_count
            added = slots - self._tail_slots
            self._tail_slots = slots
            self._record_count += added
            self.pool.unfix(device, page_no, dirty=added > 0)

    def _next_data_page(self) -> int:
        """Take the next page of the current extent, or allocate a new
        extent, and format it as an empty slotted page."""
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
        # not require reading garbage from disk.  A page is formatted
        # before it joins the file, so every data page parses.
        view = self.pool.fix_new(self.disk.name, page_no)
        SlottedPage.format(view)
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
