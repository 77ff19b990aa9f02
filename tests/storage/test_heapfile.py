"""Tests for extent-based heap files."""

import pytest

from repro.errors import DiskFaultError, PageError, StorageError
from repro.faults import FaultInjector, FaultRule
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile, RecordId
from repro.storage.page import SlottedPage
from repro.storage.stats import IoStatistics


def make_file(page_size=256, buffer_pages=4, extent_pages=2):
    config = StorageConfig(
        page_size=page_size,
        sort_run_page_size=page_size,
        buffer_size=buffer_pages * page_size,
        memory_limit=4 * buffer_pages * page_size,
        sort_buffer_size=page_size,
    )
    pool = BufferPool(config)
    disk = pool.register_device(SimulatedDisk("d", page_size, IoStatistics()))
    return HeapFile(pool, disk, name="f", extent_pages=extent_pages), pool, disk


def scanned(file):
    """``(rid, record)`` pairs of a file whose records share one size."""
    pairs = []
    for page_no, count, records in file.scan():
        size = len(records) // count
        assert len(records) == count * size
        pairs += [
            (RecordId(page_no, slot), records[slot * size : (slot + 1) * size])
            for slot in range(count)
        ]
    return pairs


class TestAppend:
    def test_append_returns_rid(self):
        file, _, _ = make_file()
        rid = file.append(b"hello")
        assert isinstance(rid, RecordId)
        assert scanned(file) == [(rid, b"hello")]
        assert file.record_count == 1

    def test_records_pack_onto_pages(self):
        file, _, _ = make_file(page_size=256)
        rids = [file.append(bytes([i]) * 16) for i in range(10)]
        assert file.page_count == 1
        assert len({rid.page_no for rid in rids}) == 1

    def test_new_page_allocated_when_full(self):
        file, _, _ = make_file(page_size=64)
        for i in range(8):
            file.append(bytes([i]) * 16)
        assert file.page_count > 1

    def test_append_after_a_cache_drop_refills_the_tail_page(self):
        file, pool, disk = make_file(page_size=256)
        file.append(b"a" * 16)
        pool.flush_device("d")
        pool.drop_device_pages("d")
        reads_before = disk.stats.counters("d").reads
        file.append(b"b" * 16)
        assert disk.stats.counters("d").reads == reads_before + 1
        assert file.page_count == 1
        assert [record for _, record in scanned(file)] == [b"a" * 16, b"b" * 16]

    def test_record_larger_than_a_page_rejected(self):
        file, _, _ = make_file(page_size=64)
        with pytest.raises(PageError):
            file.append(b"z" * 64)

    def test_pages_come_from_preallocated_extents(self):
        file, _, disk = make_file(page_size=64, extent_pages=4)
        for i in range(13):  # three 16-byte records per 64-byte page
            file.append(bytes([i]) * 16)
        assert file.page_count == 5
        # Two four-page extents hold the five data pages.
        assert disk.page_count == 8
        rids = [rid for rid, _ in scanned(file)]
        assert sorted({rid.page_no for rid in rids}) == list(range(5))

    def test_append_many(self):
        file, _, _ = make_file()
        count = file.append_many(bytes([i]) for i in range(5))
        assert count == 5
        assert file.record_count == 5


class TestScan:
    def test_scan_in_insertion_order(self):
        file, _, _ = make_file(page_size=64)
        payloads = [bytes([i]) * 8 for i in range(20)]
        for payload in payloads:
            file.append(payload)
        assert [record for _, record in scanned(file)] == payloads

    def test_cold_scan_is_sequential(self):
        file, pool, disk = make_file(page_size=64, buffer_pages=2, extent_pages=8)
        for i in range(30):
            file.append(bytes([i]) * 16)
        pool.flush_device("d")
        pool.drop_device_pages("d")
        disk.stats.reset()
        list(file.scan())
        counters = disk.stats.counters("d")
        assert counters.reads == file.page_count
        # Extent allocation keeps the file contiguous: one seek.
        assert counters.seeks == 1


class TestDestroy:
    def test_destroy_frees_pages_without_writeback(self):
        file, pool, disk = make_file()
        for i in range(5):
            file.append(bytes([i]) * 32)
        writes_before = disk.stats.counters("d").writes
        file.destroy()
        assert disk.stats.counters("d").writes == writes_before
        assert disk.page_count == 0

    def test_destroy_releases_buffered_frames(self):
        file, pool, _ = make_file()
        for i in range(5):
            file.append(bytes([i]) * 32)
        assert pool.bytes_in_use > 0
        file.destroy()
        assert pool.bytes_in_use == 0

    def test_destroyed_file_rejects_use(self):
        file, _, _ = make_file()
        file.destroy()
        with pytest.raises(StorageError):
            file.append(b"x")
        with pytest.raises(StorageError):
            list(file.scan())

    def test_destroy_is_idempotent(self):
        file, _, _ = make_file()
        file.append(b"x")
        file.destroy()
        file.destroy()

    def test_pages_recycled_after_destroy(self):
        file, pool, disk = make_file(extent_pages=2)
        file.append(b"x" * 32)
        file.destroy()
        replacement = HeapFile(pool, disk, name="g", extent_pages=2)
        replacement.append(b"y" * 32)
        # The replacement reuses the freed extent pages (via new extents).
        assert disk.page_count <= 4


class TestInvariants:
    def test_extent_pages_must_be_positive(self):
        _, pool, disk = make_file()
        with pytest.raises(StorageError):
            HeapFile(pool, disk, extent_pages=0)

    def test_roundtrip_survives_eviction(self):
        # Buffer of 2 pages, file of many pages: early pages are evicted
        # (written back) and re-read during the scan.
        file, pool, disk = make_file(page_size=64, buffer_pages=2)
        payloads = [bytes([i % 250]) * 16 for i in range(60)]
        for payload in payloads:
            file.append(payload)
        assert [record for _, record in scanned(file)] == payloads
        assert disk.stats.counters("d").writes > 0


class TestFailedBatches:
    """A batch that fails part-way keeps the file consistent: the
    record count equals what a scan returns, and no frame stays fixed."""

    def test_oversize_record_allocates_no_page(self):
        file, pool, disk = make_file(page_size=64, extent_pages=1)
        file.append(b"a" * 16)
        with pytest.raises(PageError):
            file.append_many([b"b" * 16, b"z" * 57])
        assert pool.fixed_page_count() == 0
        assert disk.page_count == 1
        assert file.page_count == 1
        assert [r for _, r in scanned(file)] == [b"a" * 16, b"b" * 16]
        assert file.record_count == 2

    def test_encode_error_mid_page_keeps_header_and_count_in_step(self):
        file, pool, _ = make_file(page_size=256)

        def records():
            yield from (bytes([i]) * 16 for i in range(3))
            raise ValueError("encode failed")

        with pytest.raises(ValueError):
            file.append_many(records())
        assert file.record_count == 3
        assert pool.fixed_page_count() == 0
        [(page_no, slot_count, region)] = file.scan()
        assert slot_count == 3 and len(region) == 48
        view = pool.fix("d", page_no)
        assert SlottedPage(view).slot_count == 3
        pool.unfix("d", page_no)
        # The next batch continues on the same page after record 3.
        file.append_many([b"x" * 16])
        assert file.page_count == 1
        assert [r for _, r in scanned(file)][-1] == b"x" * 16

    def test_write_fault_on_a_dirty_victim_mid_batch(self):
        # Two buffer frames: filling 64-byte pages evicts dirty pages,
        # and the fourth write-back fails permanently.
        file, pool, disk = make_file(page_size=64, buffer_pages=2, extent_pages=2)
        disk.attach_faults(
            FaultInjector(
                [FaultRule("permanent", op="write", every_nth=4, max_fires=1)], seed=0
            )
        )
        payloads = [bytes([i]) * 16 for i in range(60)]
        with pytest.raises(DiskFaultError):
            file.append_many(payloads)
        disk.attach_faults(None)
        assert pool.fixed_page_count() == 0
        records = [r for _, r in scanned(file)]
        assert 0 < file.record_count < len(payloads)
        assert records == payloads[: file.record_count]
        file.destroy()
        assert disk.page_count == 0
        assert pool.bytes_in_use == 0
