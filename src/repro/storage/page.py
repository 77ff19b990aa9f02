"""Slotted data pages.

A slotted page stores variable-length records addressed by slot number,
so a record identifier is (page number, slot).  Record files are
append-only: a page only ever gains records.  Layout::

    +--------+---------------------+              +------------------+
    | header | record record ...   | free space   | slot dir (grows  |
    | 4 B    | (grows upward)      |              |  downward)       |
    +--------+---------------------+              +------------------+

Header: ``slot_count`` (u16) and ``free_offset`` (u16, start of free
space).  Each slot directory entry holds the record's ``offset`` and
``length`` (u16 each).  Records per page drive every Table 3 number,
so this layout is pinned by the test suite.  Because records are only
ever appended at ``free_offset``, a page's records lie back to back
between the header and ``free_offset`` in slot order; record files read
that region whole (:meth:`SlottedPage.packed_records`).

The page operates directly on a caller-supplied ``bytearray`` -- in
practice a buffer-pool frame -- so record accessors hand out
``memoryview`` slices of buffer memory without copying, matching the
paper's file system where "copying is avoided as scans give memory
addresses to records fixed in the buffer pool" (Section 5.1).
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.errors import PageError

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
#: Records must be shorter than this many bytes (the u16 length field).
_RECORD_LIMIT = 0xFFFF

HEADER_SIZE = _HEADER.size
SLOT_SIZE = _SLOT.size


def max_record_size(page_size: int) -> int:
    """Longest record an empty page of ``page_size`` bytes can hold."""
    return min(page_size - HEADER_SIZE - SLOT_SIZE, _RECORD_LIMIT - 1)


class SlottedPage:
    """A slotted-page view over a ``bytearray`` buffer.

    The constructor interprets existing bytes; use :meth:`format` to
    initialize a fresh page.
    """

    __slots__ = ("_buf", "page_size")

    def __init__(self, buf: bytearray | memoryview) -> None:
        self._buf = buf if isinstance(buf, memoryview) else memoryview(buf)
        self.page_size = len(self._buf)
        if self.page_size < HEADER_SIZE + SLOT_SIZE:
            raise PageError(f"page size {self.page_size} too small for slotted layout")

    # -- header access ---------------------------------------------------

    @classmethod
    def format(cls, buf: bytearray | memoryview) -> "SlottedPage":
        """Initialize ``buf`` as an empty slotted page and return it."""
        page = cls(buf)
        _HEADER.pack_into(page._buf, 0, 0, HEADER_SIZE)
        return page

    @property
    def slot_count(self) -> int:
        """Slots in the directory, one per record."""
        return _HEADER.unpack_from(self._buf, 0)[0]

    def _slot_position(self, slot: int) -> int:
        return self.page_size - (slot + 1) * SLOT_SIZE

    # -- capacity ------------------------------------------------------------

    def _gap(self) -> int:
        """Bytes between the last record and the slot directory."""
        slot_count, free_offset = _HEADER.unpack_from(self._buf, 0)
        return self.page_size - slot_count * SLOT_SIZE - free_offset

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        return max(0, self._gap() - SLOT_SIZE)

    def fits(self, record_size: int) -> bool:
        """True when a record of ``record_size`` bytes and its slot entry
        can be inserted (an empty record still needs its slot)."""
        return record_size + SLOT_SIZE <= self._gap()

    # -- record operations -----------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert ``record`` and return its slot number.

        Raises:
            PageError: when the record does not fit (callers check
                :meth:`fits` or handle the error by allocating a new
                page).
        """
        length = len(record)
        if length >= _RECORD_LIMIT:
            raise PageError(f"record of {length} bytes exceeds slotted-page limit")
        if not self.fits(length):
            raise PageError(
                f"record of {length} bytes does not fit ({self.free_space} free)"
            )
        slot = self.slot_count
        self.fill(record, iter(()))
        return slot

    def fill(self, record: bytes, records: Iterator[bytes]) -> bytes | None:
        """Insert ``record``, then records drawn from ``records``, until
        one does not fit or ``records`` is exhausted.

        Returns the record that did not fit (the caller places it on a
        fresh page, if :func:`max_record_size` allows), or ``None`` once
        ``records`` is exhausted.  Bytes and slots are laid out exactly
        as one :meth:`insert` per record would lay them out.  The
        header is written once, on the way out, so an exception raised
        by ``records`` leaves it describing exactly the records written.
        """
        buf = self._buf
        slot_count, free_offset = _HEADER.unpack_from(buf, 0)
        # Where the next slot entry goes; a record fits when it ends at
        # or before this position.
        slot_position = self.page_size - (slot_count + 1) * SLOT_SIZE
        pack_slot = _SLOT.pack_into
        try:
            while True:
                length = len(record)
                end = free_offset + length
                if end > slot_position or length >= _RECORD_LIMIT:
                    return record
                buf[free_offset:end] = record
                pack_slot(buf, slot_position, free_offset, length)
                slot_count += 1
                free_offset = end
                slot_position -= SLOT_SIZE
                record = next(records, None)
                if record is None:
                    return None
        finally:
            _HEADER.pack_into(buf, 0, slot_count, free_offset)

    def packed_records(self) -> tuple[int, memoryview]:
        """``(slot_count, region)``: the records in slot order, back to
        back, as one zero-copy view of the page buffer."""
        slot_count, free_offset = _HEADER.unpack_from(self._buf, 0)
        return slot_count, self._buf[HEADER_SIZE:free_offset]

    def records(self) -> Iterator[tuple[int, memoryview]]:
        """Iterate ``(slot, record_view)`` over the records in slot order.

        Each view is a zero-copy slice of the page buffer.
        """
        for slot in range(self.slot_count):
            offset, length = _SLOT.unpack_from(self._buf, self._slot_position(slot))
            yield slot, self._buf[offset : offset + length]

    def __repr__(self) -> str:
        return (
            f"<SlottedPage {self.slot_count} records, "
            f"{self.free_space} bytes free>"
        )
