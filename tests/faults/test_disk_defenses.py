"""Disk defenses under injected faults: checksums, retry, backoff."""

import pytest

from repro.errors import ChecksumError, DiskFaultError
from repro.faults import BackoffClock, FaultInjector, FaultRule, RetryPolicy
from repro.storage.disk import SimulatedDisk

PAGE = 64


@pytest.fixture
def make_disk():
    disks = []

    def factory():
        disk = SimulatedDisk("data", PAGE)
        disks.append(disk)
        return disk

    yield factory
    for disk in disks:
        disk.close()


def _page(disk, fill=0xAB):
    page_no = disk.allocate_page()
    disk.write_page(page_no, bytes([fill]) * PAGE)
    return page_no


class TestTransientFaults:
    def test_transient_read_fault_is_retried_to_success(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        clock = BackoffClock()
        disk.attach_faults(
            FaultInjector([FaultRule("transient", op="read", max_fires=2)], seed=0),
            backoff_clock=clock,
        )
        data = disk.read_page(page_no)
        assert bytes(data) == b"\xab" * PAGE
        assert disk.fault_stats.transient_faults == 2
        assert disk.fault_stats.retries == 2
        # Capped exponential backoff: 1 ms then 2 ms.
        assert clock.waits == 2
        assert clock.waited_ms == pytest.approx(1.0 + 2.0)
        assert disk.fault_stats.backoff_ms == pytest.approx(clock.waited_ms)

    def test_retried_transfers_are_fully_metered(self, make_disk):
        """A retry is a real transfer: the Table 3 meters must count the
        attempt that succeeded AND every accounted attempt before it --
        but never the attempts that failed before reaching the device."""
        disk = make_disk()
        page_no = _page(disk)
        before = disk.stats.devices["data"].reads
        disk.attach_faults(
            FaultInjector([FaultRule("transient", op="read", max_fires=2)], seed=0)
        )
        disk.read_page(page_no)
        # The two failed attempts raised *before* accounting; only the
        # successful third attempt reached the device.
        assert disk.stats.devices["data"].reads == before + 1

    def test_retry_budget_exhaustion_raises_typed_error(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        disk.attach_faults(
            FaultInjector([FaultRule("transient", op="read")], seed=0),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(DiskFaultError) as excinfo:
            disk.read_page(page_no)
        assert excinfo.value.transient
        assert disk.fault_stats.retries == 2  # attempts - 1

    def test_permanent_fault_propagates_without_retry(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        clock = BackoffClock()
        disk.attach_faults(
            FaultInjector([FaultRule("permanent", op="read")], seed=0),
            backoff_clock=clock,
        )
        with pytest.raises(DiskFaultError) as excinfo:
            disk.read_page(page_no)
        assert not excinfo.value.transient
        assert disk.fault_stats.retries == 0
        assert clock.waits == 0


class TestChecksums:
    def test_transient_corruption_is_healed_by_retry(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        disk.attach_faults(
            FaultInjector(
                [FaultRule("corrupt", op="read", max_fires=1, persistent=False)],
                seed=0,
            )
        )
        # First attempt reads a flipped copy -> ChecksumError -> retry
        # re-reads the intact stored image.
        assert bytes(disk.read_page(page_no)) == b"\xab" * PAGE
        assert disk.fault_stats.corruptions == 1
        assert disk.fault_stats.checksum_failures == 1
        assert disk.fault_stats.retries == 1

    def test_persistent_corruption_is_a_typed_error(self, make_disk):
        """A flipped *stored* image cannot be healed by re-reading: after
        the retry budget, the ChecksumError reaches the caller -- never
        silently corrupted data."""
        disk = make_disk()
        page_no = _page(disk)
        disk.attach_faults(
            FaultInjector(
                [FaultRule("corrupt", op="read", max_fires=1, persistent=True)],
                seed=0,
            )
        )
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            disk.read_page(page_no)

    def test_torn_write_detected_on_next_read(self, make_disk):
        disk = make_disk()
        page_no = disk.allocate_page()
        disk.attach_faults(
            FaultInjector([FaultRule("torn", op="write", max_fires=1)], seed=0)
        )
        disk.write_page(page_no, b"\xcd" * PAGE)
        assert disk.fault_stats.torn_writes == 1
        disk.attach_faults(None)  # the fault is durable; detection is not injected
        with pytest.raises(ChecksumError):
            disk.read_page(page_no)

    def test_silent_write_corruption_detected_on_read(self, make_disk):
        disk = make_disk()
        page_no = disk.allocate_page()
        disk.attach_faults(
            FaultInjector(
                [FaultRule("corrupt", op="write", max_fires=1, bit=13)], seed=0
            )
        )
        disk.write_page(page_no, b"\xee" * PAGE)
        disk.attach_faults(None)
        with pytest.raises(ChecksumError):
            disk.read_page(page_no)

    def test_rewrite_replaces_the_checksum(self, make_disk):
        disk = make_disk()
        page_no = _page(disk, fill=0x11)
        disk.write_page(page_no, b"\x22" * PAGE)
        assert bytes(disk.read_page(page_no)) == b"\x22" * PAGE

    def test_free_page_drops_the_checksum(self, make_disk):
        """free_page zeroes the image without accounting; a recycled page
        must not be checked against the dead file's CRC."""
        disk = make_disk()
        page_no = _page(disk)
        disk.free_page(page_no)
        recycled = disk.allocate_page()
        assert recycled == page_no
        assert bytes(disk.read_page(recycled)) == bytes(PAGE)


class TestLatencyAndCleanup:
    def test_latency_accumulates_off_the_cost_meters(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        cost_before = disk.stats.cost_ms("data")
        reads_before = disk.stats.devices["data"].reads
        disk.attach_faults(
            FaultInjector([FaultRule("latency", latency_ms=7.5)], seed=0)
        )
        disk.read_page(page_no)
        assert disk.fault_stats.latency_ms == pytest.approx(7.5)
        # The transfer itself is metered normally; the injected latency
        # is *not* smuggled into the Table 3 account.
        assert disk.stats.devices["data"].reads == reads_before + 1
        expected_delta = disk.stats.cost_ms("data") - cost_before
        assert expected_delta > 0

    def test_free_page_bypasses_fault_injection(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        injector = FaultInjector([FaultRule("permanent", op="write")], seed=0)
        disk.attach_faults(injector)
        disk.free_page(page_no)  # must not raise
        assert injector.operations_seen == 0


class TestDisabledHooksAreFree:
    def test_no_injector_means_injector_never_consulted(self, make_disk):
        """The pay-for-use contract: without an injector the fast path
        runs; nothing on the defense path fires or allocates."""
        disk = make_disk()
        page_no = _page(disk)
        for _ in range(5):
            disk.read_page(page_no)
        stats = disk.fault_stats
        assert stats.to_dict() == {
            "faults_injected": 0,
            "transient_faults": 0,
            "permanent_faults": 0,
            "corruptions": 0,
            "torn_writes": 0,
            "checksum_failures": 0,
            "retries": 0,
            "backoff_ms": 0.0,
            "latency_ms": 0.0,
        }
        assert disk.backoff_clock.waits == 0

    def test_attach_then_detach_restores_the_fast_path(self, make_disk):
        disk = make_disk()
        page_no = _page(disk)
        injector = FaultInjector([FaultRule("transient", op="read")], seed=0)
        disk.attach_faults(injector, retry_policy=RetryPolicy(max_attempts=2))
        with pytest.raises(DiskFaultError):
            disk.read_page(page_no)
        disk.attach_faults(None)
        ops_after_detach = injector.operations_seen
        assert bytes(disk.read_page(page_no)) == b"\xab" * PAGE
        assert injector.operations_seen == ops_after_detach
