"""Tests for I/O statistics and Table 3 costing."""

import pytest

from repro.storage.stats import DeviceCounters, IoStatistics, IoWeights


class TestRecording:
    def test_reads_and_writes_counted_separately(self):
        stats = IoStatistics()
        stats.record_transfer("d", 0, 1024, is_write=False)
        stats.record_transfer("d", 1, 1024, is_write=True)
        counters = stats.counters("d")
        assert counters.reads == 1 and counters.writes == 1
        assert counters.transfers == 2
        assert counters.bytes_total == 2048

    def test_devices_tracked_independently(self):
        stats = IoStatistics()
        stats.record_transfer("a", 0, 100, is_write=False)
        stats.record_transfer("b", 0, 100, is_write=False)
        assert stats.counters("a").reads == 1
        assert stats.counters("b").reads == 1
        assert stats.totals().reads == 2

    def test_sequentiality_is_per_device(self):
        stats = IoStatistics()
        stats.record_transfer("a", 0, 10, is_write=False)
        stats.record_transfer("b", 5, 10, is_write=False)
        stats.record_transfer("a", 1, 10, is_write=False)  # sequential on a
        assert stats.counters("a").seeks == 1
        assert stats.counters("b").seeks == 1


class TestDeviceCounters:
    def test_record_read_with_seek(self):
        counters = DeviceCounters()
        counters.record(4096, is_write=False, seek=True)
        assert counters == DeviceCounters(reads=1, seeks=1, bytes_read=4096)

    def test_record_sequential_write(self):
        counters = DeviceCounters()
        counters.record(512, is_write=True, seek=False)
        assert counters == DeviceCounters(writes=1, bytes_written=512)

    def test_merge_adds_every_field(self):
        counters = DeviceCounters(1, 2, 3, 4, 5)
        counters.merge(DeviceCounters(10, 20, 30, 40, 50))
        assert counters == DeviceCounters(11, 22, 33, 44, 55)

    def test_snapshot_is_independent(self):
        counters = DeviceCounters(1, 2, 3, 4, 5)
        copy = counters.snapshot()
        counters.record(100, is_write=True, seek=True)
        assert copy == DeviceCounters(1, 2, 3, 4, 5)

    def test_delta_since_subtracts_every_field(self):
        now = DeviceCounters(11, 22, 33, 44, 55)
        assert now.delta_since(DeviceCounters(1, 2, 3, 4, 5)) == DeviceCounters(
            10, 20, 30, 40, 50
        )
        assert now.delta_since(now.snapshot()) == DeviceCounters()


class TestIoWeights:
    def test_empty_counters_cost_nothing(self):
        assert IoWeights().cost_ms(DeviceCounters()) == 0.0

    def test_each_weight_prices_its_counter(self):
        counters = DeviceCounters(reads=2, writes=1, seeks=3, bytes_read=2048,
                                  bytes_written=1024)
        assert IoWeights(1, 0, 0, 0).cost_ms(counters) == 3.0  # seeks
        assert IoWeights(0, 1, 0, 0).cost_ms(counters) == 3.0  # transfers
        assert IoWeights(0, 0, 1, 0).cost_ms(counters) == 3.0  # KiB
        assert IoWeights(0, 0, 0, 1).cost_ms(counters) == 3.0  # transfers

    def test_aggregate_equals_sum_of_event_costs(self):
        weights = IoWeights()
        counters = DeviceCounters()
        events = [(8192, False, True), (8192, False, False), (1024, True, True)]
        for nbytes, is_write, seek in events:
            counters.record(nbytes, is_write, seek)
        per_event = sum(weights.event_cost_ms(n, seek) for n, _w, seek in events)
        assert weights.cost_ms(counters) == pytest.approx(per_event)


class TestCosting:
    def test_cost_matches_table3_weights(self):
        # One seek + one 8 KiB transfer:
        # 20 (seek) + 8 (latency) + 2 (cpu) + 8 * 0.5 (transfer) = 34 ms.
        stats = IoStatistics(IoWeights())
        stats.record_transfer("d", 0, 8192, is_write=False)
        assert stats.cost_ms() == pytest.approx(20 + 8 + 2 + 4)

    def test_sequential_pages_share_the_seek(self):
        stats = IoStatistics(IoWeights())
        for page in range(10):
            stats.record_transfer("d", page, 8192, is_write=False)
        # 1 seek + 10 * (8 + 2 + 4).
        assert stats.cost_ms() == pytest.approx(20 + 10 * 14)

    def test_custom_weights(self):
        weights = IoWeights(seek_ms=1, latency_ms_per_transfer=0,
                            transfer_ms_per_kib=0, cpu_ms_per_transfer=0)
        stats = IoStatistics(weights)
        stats.record_transfer("d", 3, 1024, is_write=True)
        assert stats.cost_ms() == 1.0

    def test_per_device_cost(self):
        stats = IoStatistics(IoWeights())
        stats.record_transfer("a", 0, 1024, is_write=False)
        stats.record_transfer("b", 0, 1024, is_write=False)
        assert stats.cost_ms("a") < stats.cost_ms()

    def test_cost_of_untouched_device_does_not_register_it(self):
        stats = IoStatistics()
        stats.record_transfer("d", 0, 1024, is_write=False)
        before = stats.snapshot()
        assert stats.cost_ms("nope") == 0.0
        assert stats.devices.keys() == {"d"}
        assert stats.snapshot() == before


class TestSnapshots:
    def test_cost_since_snapshot(self):
        stats = IoStatistics(IoWeights())
        stats.record_transfer("d", 0, 8192, is_write=False)
        snapshot = stats.snapshot()
        stats.record_transfer("d", 1, 8192, is_write=False)  # sequential
        assert stats.cost_since(snapshot) == pytest.approx(8 + 2 + 4)

    def test_cost_since_sees_new_devices(self):
        stats = IoStatistics(IoWeights())
        snapshot = stats.snapshot()
        stats.record_transfer("new", 0, 1024, is_write=False)
        assert stats.cost_since(snapshot) > 0

    def test_snapshot_does_not_alias_live_counters(self):
        stats = IoStatistics()
        stats.record_transfer("d", 0, 100, is_write=False)
        snapshot = stats.snapshot()
        stats.record_transfer("d", 7, 100, is_write=True)
        assert snapshot["d"] == DeviceCounters(reads=1, seeks=1, bytes_read=100)

    def test_totals_merges_devices_without_aliasing(self):
        stats = IoStatistics()
        stats.record_transfer("a", 0, 100, is_write=False)
        stats.record_transfer("b", 4, 200, is_write=True)
        totals = stats.totals()
        assert totals == DeviceCounters(1, 1, 2, 100, 200)
        totals.record(1, is_write=False, seek=True)
        assert stats.counters("a").reads == 1

    def test_cost_since_prices_each_device_delta(self):
        stats = IoStatistics(IoWeights())
        stats.record_transfer("a", 0, 8192, is_write=False)
        snapshot = stats.snapshot()
        stats.record_transfer("a", 9, 8192, is_write=True)
        stats.record_transfer("b", 0, 1024, is_write=False)
        expected = sum(
            stats.weights.cost_ms(now.delta_since(snapshot.get(name, DeviceCounters())))
            for name, now in stats.devices.items()
        )
        assert stats.cost_since(snapshot) == expected
        assert stats.cost_since(snapshot) == pytest.approx(34 + 20 + 8 + 2 + 0.5)

    def test_reset(self):
        stats = IoStatistics()
        stats.record_transfer("d", 0, 100, is_write=False)
        stats.reset()
        assert stats.totals() == DeviceCounters()
        # Sequentiality state resets too: the next access seeks again.
        stats.record_transfer("d", 1, 100, is_write=False)
        assert stats.counters("d").seeks == 1
