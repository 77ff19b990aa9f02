"""Tracer: clocks, metrics write-through, the null tracer's guarantees."""

import pytest

from repro.obs.span import (
    Clock,
    FakeClock,
    MonotonicClock,
    NULL_TRACER,
    NullTracer,
    Tracer,
)


class TestClocks:
    def test_monotonic_clock_advances(self):
        clock = MonotonicClock()
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_fake_clock_is_deterministic(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_fake_clock_auto_tick(self):
        clock = FakeClock(auto_tick=0.001)
        assert clock.now() == pytest.approx(0.001)
        assert clock.now() == pytest.approx(0.002)

    def test_fake_clock_rejects_going_backwards(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_both_satisfy_the_protocol(self):
        assert isinstance(MonotonicClock(), Clock)
        assert isinstance(FakeClock(), Clock)


class TestMetricsWriteThrough:
    def test_count_gauge_observe(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("repro_things_total", 2, kind="a")
        tracer.count("repro_things_total", kind="a")
        tracer.gauge("repro_level", 0.5)
        tracer.observe("repro_latency_ms", 3.0)
        assert tracer.metrics.value("repro_things_total", kind="a") == 3
        assert tracer.metrics.value("repro_level") == 0.5
        assert tracer.metrics.histogram("repro_latency_ms").count == 1


class TestOperatorAttribution:
    def test_no_operator_label_before_any_call(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current_operator_label() is None
        assert tracer.enabled is True

    def test_label_is_the_innermost_operator_class(self):
        from repro.executor.iterator import ExecContext
        from repro.executor.scan import RelationSource
        from repro.relalg.relation import Relation

        tracer = Tracer(clock=FakeClock())
        ctx = ExecContext(tracer=tracer)
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,)]))
        tracer.operator_enter(source, "open")
        assert tracer.current_operator_label() == "RelationSource"
        tracer.operator_exit(source, "open")
        assert tracer.current_operator_label() is None

    def test_metrics_registry_is_created_by_default(self):
        tracer = Tracer(clock=FakeClock())
        tracer.count("repro_rows_total", 4)
        assert tracer.metrics.value("repro_rows_total") == 4


class TestNullTracer:
    def test_disabled_and_metricless(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.metrics is None

    def test_all_operations_are_noops(self):
        tracer = NullTracer()
        tracer.count("repro_x_total")
        tracer.gauge("repro_x", 1.0)
        tracer.observe("repro_x_ms", 1.0)
        tracer.operator_enter(object(), "open")
        tracer.operator_exit(object(), "open")
        assert tracer.metrics is None

    def test_never_names_an_operator(self):
        tracer = NullTracer()
        tracer.operator_enter(object(), "next")
        assert tracer.current_operator_label() is None
