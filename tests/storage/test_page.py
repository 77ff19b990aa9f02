"""Tests for slotted pages."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PageError
from repro.storage.page import SLOT_SIZE, SlottedPage


@pytest.fixture
def page():
    return SlottedPage.format(bytearray(256))


def _records(page):
    return [(slot, bytes(record)) for slot, record in page.records()]


class TestFormatAndCapacity:
    def test_fresh_page_is_empty(self, page):
        assert page.slot_count == 0
        assert _records(page) == []

    def test_free_space_accounts_for_slot_entry(self, page):
        initial = page.free_space
        page.insert(b"x" * 10)
        assert page.free_space == initial - 10 - SLOT_SIZE

    @pytest.mark.parametrize(
        "page_size, record_size, expected",
        [(8192, 8, 682), (8192, 16, 409), (1024, 8, 85), (1024, 16, 51)],
    )
    def test_records_per_page_layout_pin(self, page_size, record_size, expected):
        """Records per page drive every Table 3 number: a 4-byte header
        and 4-byte slot entries give exactly these counts."""
        page = SlottedPage.format(bytearray(page_size))
        while page.fits(record_size):
            page.insert(b"y" * record_size)
        assert page.slot_count == expected

    @given(
        page_size=st.integers(min_value=16, max_value=4096),
        record_size=st.integers(min_value=0, max_value=96),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_per_page_for_any_sizes(self, page_size, record_size):
        page = SlottedPage.format(bytearray(page_size))
        while page.fits(record_size):
            page.insert(b"r" * record_size)
        assert page.slot_count == max(0, (page_size - 4) // (record_size + 4))

    def test_header_and_slot_bytes(self):
        buffer = bytearray(64)
        page = SlottedPage.format(buffer)
        page.insert(b"abc")
        page.insert(b"de")
        # Header: slot_count, free_offset (u16 little-endian).
        assert struct.unpack_from("<HH", buffer, 0) == (2, 4 + 3 + 2)
        # Slot entries grow down from the page end: (offset, length).
        assert struct.unpack_from("<HH", buffer, 60) == (4, 3)
        assert struct.unpack_from("<HH", buffer, 56) == (7, 2)
        assert bytes(buffer[4:9]) == b"abcde"

    def test_too_small_page_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(2))


class TestInsertAndScan:
    def test_roundtrip(self, page):
        slot = page.insert(b"hello")
        assert _records(page) == [(slot, b"hello")]

    def test_slots_are_assigned_in_order(self, page):
        assert page.insert(b"a") == 0
        assert page.insert(b"bb") == 1
        assert _records(page) == [(0, b"a"), (1, b"bb")]

    def test_variable_length_records(self, page):
        for i in range(5):
            page.insert(bytes([i]) * (i + 1))
        assert _records(page) == [(i, bytes([i]) * (i + 1)) for i in range(5)]

    def test_overfull_insert_rejected(self, page):
        with pytest.raises(PageError):
            page.insert(b"z" * 300)

    def test_record_length_bound_is_checked(self):
        """The slot's u16 length field bounds a record even on a page
        large enough to hold it."""
        page = SlottedPage.format(bytearray(70_000))
        with pytest.raises(PageError, match="limit"):
            page.insert(bytes(0xFFFF))
        assert page.slot_count == 0


class TestScan:
    def test_records_are_views_into_the_buffer(self):
        buffer = bytearray(128)
        page = SlottedPage.format(buffer)
        page.insert(b"abc")
        [(_slot, view)] = page.records()
        assert isinstance(view, memoryview)
        # Mutating through the view mutates the page (zero copy).
        view[0] = ord("X")
        assert _records(page) == [(0, b"Xbc")]

    def test_format_discards_previous_contents(self):
        buffer = bytearray(128)
        SlottedPage.format(buffer).insert(b"stale")
        page = SlottedPage.format(buffer)
        assert _records(page) == []
        assert page.free_space == 128 - 4 - 4

    def test_reinterpreting_existing_bytes(self):
        buffer = bytearray(128)
        original = SlottedPage.format(buffer)
        original.insert(b"persisted")
        # A second view over the same bytes sees the same records.
        reopened = SlottedPage(buffer)
        assert [bytes(r) for _, r in reopened.records()] == [b"persisted"]
