"""Tests for the simulated disk."""

import pytest

from repro.errors import DiskError
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IoStatistics


@pytest.fixture
def disk():
    return SimulatedDisk("d", page_size=64, stats=IoStatistics())


class TestAllocation:
    def test_allocate_returns_consecutive_pages(self, disk):
        assert disk.allocate_page() == 0
        assert disk.allocate_page() == 1
        assert disk.page_count == 2

    def test_freed_pages_are_recycled(self, disk):
        first = disk.allocate_page()
        disk.free_page(first)
        assert disk.page_count == 0
        assert disk.allocate_page() == first

    def test_recycled_page_is_cleared(self, disk):
        page = disk.allocate_page()
        disk.write_page(page, b"\x07" * 64)
        disk.free_page(page)
        again = disk.allocate_page()
        assert again == page
        assert bytes(disk.read_page(again)) == b"\x00" * 64

    def test_page_count_tracks_extents_and_frees(self, disk):
        extent = disk.allocate_extent(3)
        disk.allocate_page()
        disk.free_page(extent[1])
        assert disk.page_count == 3

    def test_double_free_rejected(self, disk):
        page = disk.allocate_page()
        disk.free_page(page)
        with pytest.raises(DiskError):
            disk.free_page(page)

    def test_extent_is_contiguous_and_never_recycled(self, disk):
        a = disk.allocate_page()
        disk.free_page(a)
        extent = disk.allocate_extent(4)
        assert extent == list(range(extent[0], extent[0] + 4))
        assert a not in extent

    def test_extent_size_must_be_positive(self, disk):
        with pytest.raises(DiskError):
            disk.allocate_extent(0)

    def test_invalid_page_size(self):
        with pytest.raises(DiskError):
            SimulatedDisk("bad", page_size=0)


class TestTransfers:
    def test_write_read_roundtrip(self, disk):
        page = disk.allocate_page()
        payload = bytes(range(64))
        disk.write_page(page, payload)
        assert bytes(disk.read_page(page)) == payload

    def test_read_returns_copy(self, disk):
        page = disk.allocate_page()
        disk.write_page(page, b"\x01" * 64)
        copy = disk.read_page(page)
        copy[0] = 0xFF
        assert disk.read_page(page)[0] == 0x01

    def test_short_write_rejected(self, disk):
        page = disk.allocate_page()
        with pytest.raises(DiskError):
            disk.write_page(page, b"short")

    def test_long_write_rejected(self, disk):
        page = disk.allocate_page()
        with pytest.raises(DiskError, match="page size 64"):
            disk.write_page(page, bytes(65))

    def test_out_of_range_page_rejected(self, disk):
        with pytest.raises(DiskError):
            disk.read_page(5)

    def test_negative_page_rejected(self, disk):
        disk.allocate_extent(2)
        with pytest.raises(DiskError, match="out of range"):
            disk.read_page(-1)

    def test_freed_page_access_rejected(self, disk):
        page = disk.allocate_page()
        disk.free_page(page)
        with pytest.raises(DiskError):
            disk.read_page(page)
        with pytest.raises(DiskError):
            disk.write_page(page, bytes(64))

    def test_write_stores_a_copy(self, disk):
        page = disk.allocate_page()
        payload = bytearray(b"\x05" * 64)
        disk.write_page(page, payload)
        payload[0] = 0xFF
        assert bytes(disk.read_page(page)) == b"\x05" * 64

    def test_fresh_pages_are_zeroed(self, disk):
        page = disk.allocate_page()
        assert bytes(disk.read_page(page)) == b"\x00" * 64


class TestStatistics:
    def test_sequential_scan_charges_one_seek(self, disk):
        pages = disk.allocate_extent(5)
        for page in pages:
            disk.read_page(page)
        counters = disk.stats.counters("d")
        assert counters.reads == 5
        assert counters.seeks == 1

    def test_random_access_charges_a_seek_each(self, disk):
        pages = disk.allocate_extent(4)
        for page in reversed(pages):
            disk.read_page(page)
        assert disk.stats.counters("d").seeks == 4

    def test_write_then_sequential_read_counts_seek_on_direction_change(self, disk):
        pages = disk.allocate_extent(2)
        disk.write_page(pages[0], bytes(64))
        disk.write_page(pages[1], bytes(64))
        disk.read_page(pages[0])
        counters = disk.stats.counters("d")
        assert counters.writes == 2 and counters.reads == 1
        assert counters.seeks == 2  # one for the first write, one to go back


class TestLifecycle:
    def test_closed_disk_rejects_everything(self, disk):
        page = disk.allocate_page()
        disk.close()
        with pytest.raises(DiskError):
            disk.read_page(page)
        with pytest.raises(DiskError):
            disk.allocate_page()

    @pytest.mark.parametrize(
        "operation",
        [
            lambda disk, page: disk.write_page(page, bytes(64)),
            lambda disk, page: disk.free_page(page),
            lambda disk, page: disk.allocate_extent(2),
        ],
        ids=["write_page", "free_page", "allocate_extent"],
    )
    def test_closed_disk_rejects_writes_and_allocation(self, disk, operation):
        page = disk.allocate_page()
        disk.close()
        with pytest.raises(DiskError, match="closed"):
            operation(disk, page)

    def test_close_is_idempotent(self, disk):
        disk.close()
        disk.close()
        assert "closed" in repr(disk)


class TestLayerProbeName:
    def test_paged_disk_base_is_the_device_every_context_runs(self, monkeypatch):
        """The benchmark's layer probe times ``PagedDiskBase.read_page``;
        patching it must reach the devices an execution context builds."""
        from repro.executor.iterator import ExecContext
        from repro.storage.diskbase import PagedDiskBase

        calls = []
        original = PagedDiskBase.read_page

        def counted(self, page_no):
            calls.append((self.name, page_no))
            return original(self, page_no)

        monkeypatch.setattr(PagedDiskBase, "read_page", counted)
        ctx = ExecContext()
        page = ctx.temp_disk.allocate_page()
        ctx.temp_disk.read_page(page)
        assert calls == [("temp", page)]
