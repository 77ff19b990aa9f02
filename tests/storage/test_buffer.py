"""Tests for the buffer manager."""

import pytest

from repro.errors import BufferPoolError, DiskFaultError, StorageError
from repro.faults import FaultInjector, FaultRule
from repro.storage.buffer import BufferPool
from repro.storage.config import StorageConfig
from repro.storage.disk import SimulatedDisk
from repro.storage.stats import IoStatistics


def make_pool(pages: int = 4, page_size: int = 1024, limit_pages: int = 8):
    config = StorageConfig(
        page_size=page_size,
        sort_run_page_size=page_size,
        buffer_size=pages * page_size,
        memory_limit=limit_pages * page_size,
        sort_buffer_size=page_size,
    )
    pool = BufferPool(config)
    disk = pool.register_device(SimulatedDisk("d", page_size, IoStatistics()))
    return pool, disk


def fresh_page(pool: BufferPool, disk: SimulatedDisk) -> tuple[int, memoryview]:
    """Allocate and fix a fresh page the way heap files do."""
    page_no = disk.allocate_page()
    return page_no, pool.fix_new(disk.name, page_no)


class TestFixUnfix:
    def test_fix_new_is_fixed_and_zeroed(self):
        pool, disk = make_pool()
        page_no, view = fresh_page(pool, disk)
        assert bytes(view) == b"\x00" * 1024
        assert pool.fixed_page_count() == 1
        pool.unfix("d", page_no, dirty=True)
        assert pool.fixed_page_count() == 0
        assert disk.stats.counters("d").reads == 0

    def test_fix_new_of_a_resident_page_is_an_ordinary_fix(self):
        pool, disk = make_pool()
        page_no, view = fresh_page(pool, disk)
        view[0] = 0x3C
        again = pool.fix_new("d", page_no)
        assert again[0] == 0x3C
        assert pool.stats.fixes == 2
        pool.unfix("d", page_no, dirty=True)
        assert pool.fixed_page_count() == 1
        pool.unfix("d", page_no)
        assert pool.fixed_page_count() == 0

    def test_fix_hit_avoids_disk_read(self):
        pool, disk = make_pool()
        page_no, view = fresh_page(pool, disk)
        pool.unfix("d", page_no, dirty=True)
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        assert disk.stats.counters("d").reads == 0
        assert pool.stats.misses == 0

    def test_fix_miss_reads_from_disk(self):
        pool, disk = make_pool()
        page_no = disk.allocate_page()
        disk.write_page(page_no, b"\x07" * 1024)
        view = pool.fix("d", page_no)
        assert bytes(view[:1]) == b"\x07"
        pool.unfix("d", page_no)
        assert pool.stats.misses == 1

    def test_unfix_unfixed_page_rejected(self):
        pool, _ = make_pool()
        with pytest.raises(BufferPoolError, match=r"\('d', 0\) is not fixed"):
            pool.unfix("d", 0)

    def test_double_unfix_is_a_distinct_error_naming_the_page(self):
        """Unbalanced fix/unfix on a *resident* frame is its own error,
        distinct from unfixing a page that was never brought in."""
        pool, disk = make_pool()
        page_no, _ = fresh_page(pool, disk)
        pool.unfix("d", page_no)
        with pytest.raises(
            BufferPoolError,
            match=rf"double unfix of page \('d', {page_no}\).*already zero",
        ):
            pool.unfix("d", page_no)
        # The frame itself is unharmed: it can be fixed again.
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        assert pool.fixed_page_count() == 0

    def test_nested_fixes_require_matching_unfixes(self):
        pool, disk = make_pool()
        page_no, _ = fresh_page(pool, disk)
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        assert pool.fixed_page_count() == 1
        pool.unfix("d", page_no)
        assert pool.fixed_page_count() == 0

    def test_fix_new_on_unknown_device_rejected(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError, match="unknown device"):
            pool.fix_new("nope", 0)
        assert pool.bytes_in_use == 0

    def test_unknown_device_rejected(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError):
            pool.fix("nope", 0)

    def test_duplicate_device_name_rejected(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError):
            pool.register_device(SimulatedDisk("d", 1024))


class TestEvictionAndWriteback:
    def test_dirty_page_written_back_on_eviction(self):
        pool, disk = make_pool(pages=2, limit_pages=2)
        first, view = fresh_page(pool, disk)
        view[0] = 0xAB
        pool.unfix("d", first, dirty=True)
        # Fill the pool so the first page is evicted.
        for _ in range(3):
            page_no, _ = fresh_page(pool, disk)
            pool.unfix("d", page_no, dirty=True)
        assert disk.stats.counters("d").writes >= 1
        # Re-reading returns the written contents.
        assert bytes(pool.fix("d", first)[:1]) == b"\xab"
        pool.unfix("d", first)

    def test_pool_shrinks_back_to_buffer_size_after_unfix(self):
        pool, disk = make_pool(pages=2, limit_pages=6)
        pages = []
        for _ in range(5):
            page_no, _ = fresh_page(pool, disk)
            pages.append(page_no)
        assert pool.bytes_in_use == 5 * 1024  # grown past buffer_size
        for page_no in pages:
            pool.unfix("d", page_no, dirty=True)
        assert pool.bytes_in_use <= 2 * 1024

    def test_lru_evicts_the_least_recently_unfixed_page(self):
        pool, disk = make_pool(pages=2, limit_pages=2)
        first, _ = fresh_page(pool, disk)
        pool.unfix("d", first, dirty=True)
        second, _ = fresh_page(pool, disk)
        pool.unfix("d", second, dirty=True)
        pool.fix("d", first)  # a hit: first becomes most recently used
        pool.unfix("d", first)
        third, _ = fresh_page(pool, disk)
        pool.unfix("d", third, dirty=True)
        misses = pool.stats.misses
        pool.fix("d", first)
        pool.unfix("d", first)
        assert pool.stats.misses == misses  # still resident
        pool.fix("d", second)
        pool.unfix("d", second)
        assert pool.stats.misses == misses + 1  # second was the victim

    def test_exhausted_pool_raises(self):
        pool, disk = make_pool(pages=2, limit_pages=2)
        fresh_page(pool, disk)
        fresh_page(pool, disk)
        with pytest.raises(BufferPoolError):
            fresh_page(pool, disk)


    def test_faulted_writeback_leaves_the_victim_evictable(self):
        pool, disk = make_pool(pages=2, limit_pages=2)
        disk.attach_faults(
            FaultInjector(
                [FaultRule("permanent", op="write", every_nth=4, max_fires=1)]
            )
        )
        pages = []
        for marker in range(1, 6):
            page_no, view = fresh_page(pool, disk)
            view[0] = marker
            pool.unfix("d", page_no, dirty=True)
            pages.append(page_no)
        # The sixth page evicts the fourth, whose write-back (the 4th
        # write) faults.
        with pytest.raises(DiskFaultError):
            fresh_page(pool, disk)
        assert pool.stats.writebacks == 3
        # Both resident frames can still be evicted: two fresh pages
        # fixed at once need both frames, so the fourth page is written
        # back after all, and keeps its contents.
        first, _ = fresh_page(pool, disk)
        second, _ = fresh_page(pool, disk)
        assert pool.stats.writebacks == 5
        pool.unfix("d", first)
        pool.unfix("d", second)
        assert disk.read_page(pages[3])[0] == 4


class TestMaintenance:
    def test_flush_device_writes_dirty_frames(self):
        pool, disk = make_pool()
        page_no, view = fresh_page(pool, disk)
        view[0] = 0x55
        pool.unfix("d", page_no, dirty=True)
        pool.flush_device("d")
        assert disk.read_page(page_no)[0] == 0x55

    def test_drop_device_pages_writes_back_and_keeps_fixed_frames(self):
        pool, disk = make_pool()
        dropped, view = fresh_page(pool, disk)
        view[0] = 0x66
        pool.unfix("d", dropped, dirty=True)
        pinned, _ = fresh_page(pool, disk)
        pool.drop_device_pages("d")
        assert disk.read_page(dropped)[0] == 0x66
        assert pool.bytes_in_use == 1024  # only the fixed frame stays
        misses = pool.stats.misses
        pool.fix("d", pinned)
        assert pool.stats.misses == misses
        pool.unfix("d", pinned)
        pool.unfix("d", pinned)

    def test_drop_device_pages_leaves_other_devices_alone(self):
        pool, disk = make_pool()
        other = pool.register_device(SimulatedDisk("e", 1024, disk.stats))
        page_no, _ = fresh_page(pool, other)
        pool.unfix("e", page_no, dirty=True)
        pool.drop_device_pages("d")
        assert pool.bytes_in_use == 1024
        assert disk.stats.counters("e").writes == 0

    def test_flush_keeps_frames_resident_and_clean(self):
        pool, disk = make_pool()
        page_no, _ = fresh_page(pool, disk)
        pool.unfix("d", page_no, dirty=True)
        pool.flush_device("d")
        pool.flush_device("d")
        assert disk.stats.counters("d").writes == 1
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        assert pool.stats.misses == 0

    def test_forget_page_drops_without_writeback(self):
        pool, disk = make_pool()
        page_no, _ = fresh_page(pool, disk)
        pool.unfix("d", page_no, dirty=True)
        pool.forget_page("d", page_no)
        assert disk.stats.counters("d").writes == 0

    def test_forget_fixed_page_rejected(self):
        pool, disk = make_pool()
        page_no, _ = fresh_page(pool, disk)
        with pytest.raises(BufferPoolError):
            pool.forget_page("d", page_no)
        pool.unfix("d", page_no, dirty=True)

    def test_hit_ratio(self):
        pool, disk = make_pool()
        page_no = disk.allocate_page()
        disk.write_page(page_no, bytes(1024))
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        pool.fix("d", page_no)
        pool.unfix("d", page_no)
        assert pool.stats.hit_ratio == pytest.approx(0.5)


def churn(pool: BufferPool, disk: SimulatedDisk, pages: int = 8) -> list[int]:
    numbers = []
    for _ in range(pages):
        page_no, _buf = fresh_page(pool, disk)
        numbers.append(page_no)
        pool.unfix(disk.name, page_no, dirty=True)
    for page_no in numbers:  # re-fix: misses for the evicted ones
        pool.fix(disk.name, page_no)
        pool.unfix(disk.name, page_no)
    return numbers


class TestPoolStats:
    def test_hits_and_hit_ratio(self):
        pool, disk = make_pool(limit_pages=4)
        churn(pool, disk)
        stats = pool.stats
        assert stats.hits == stats.fixes - stats.misses
        assert stats.hit_ratio == pytest.approx(1.0 - stats.misses / stats.fixes)

    def test_eviction_pressure_is_counted(self):
        pool, disk = make_pool(limit_pages=4)
        churn(pool, disk, pages=10)
        # 10 one-KiB pages through 4 frames: evictions are inevitable.
        assert pool.stats.evictions > 0
        assert pool.stats.writebacks > 0
