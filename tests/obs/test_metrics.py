"""Metrics registry: instruments, families, and CPU counter absorption."""

import pytest

from repro.metering import CpuCounters
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    absorb_cpu_counters,
)


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(MetricsError):
            Counter().inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram(boundaries=(1.0, 10.0))
        for value in (0.5, 5.0, 500.0):
            hist.observe(value)
        assert list(hist.buckets()) == [
            (1.0, 1),
            (10.0, 2),
            (float("inf"), 3),
        ]
        assert hist.count == 3
        assert hist.sum == 505.5

    def test_histogram_boundary_validation(self):
        with pytest.raises(MetricsError):
            Histogram(boundaries=())
        with pytest.raises(MetricsError):
            Histogram(boundaries=(2.0, 1.0))


class TestRegistry:
    def test_same_name_and_labels_is_the_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", strategy="naive").inc()
        registry.counter("repro_x_total", strategy="naive").inc()
        registry.counter("repro_x_total", strategy="hash").inc()
        assert registry.value("repro_x_total", strategy="naive") == 2
        assert registry.value("repro_x_total", strategy="hash") == 1
        assert len(registry) == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(MetricsError):
            registry.gauge("repro_x_total")

    def test_value_of_histogram_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_ms").observe(1.0)
        with pytest.raises(MetricsError):
            registry.value("repro_h_ms")

    def test_collect_is_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.gauge("repro_b")
        registry.counter("repro_a_total", z="2")
        registry.counter("repro_a_total", a="1")
        names = [(s.name, s.labels) for s in registry.collect()]
        assert names == sorted(names)

    def test_to_dict_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", kind="k").inc(4)
        registry.histogram("repro_h_ms", boundaries=(1.0,)).observe(0.5)
        snap = registry.to_dict()
        assert snap["repro_x_total"]["kind"] == "counter"
        assert snap["repro_x_total"]["samples"][0] == {
            "labels": {"kind": "k"},
            "value": 4.0,
        }
        hist = snap["repro_h_ms"]["samples"][0]["value"]
        assert hist["count"] == 1 and hist["buckets"][0] == [1.0, 1]


class TestAbsorption:
    def test_absorb_cpu_counters(self):
        registry = MetricsRegistry()
        counters = CpuCounters(comparisons=3, hashes=2, moves=1.5, bit_ops=7)
        absorb_cpu_counters(registry, counters, strategy="hash-division")
        assert registry.value(
            "repro_cpu_comparisons_total", strategy="hash-division"
        ) == 3
        assert registry.value("repro_cpu_hashes_total", strategy="hash-division") == 2
        assert registry.value("repro_cpu_moves_total", strategy="hash-division") == 1.5
        assert registry.value("repro_cpu_bit_ops_total", strategy="hash-division") == 7
