"""Unit tests for the fault injector: rules, triggers, schedules."""

import json

import pytest

from repro.errors import FaultConfigError, MemoryPoolError
from repro.faults import (
    FaultInjector,
    FaultRule,
    schedule_to_jsonl,
)


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown fault kind"):
            FaultRule("gremlin")

    def test_bad_op_rejected(self):
        with pytest.raises(FaultConfigError, match="op must be"):
            FaultRule("transient", op="append")

    def test_probability_out_of_range(self):
        with pytest.raises(FaultConfigError, match="probability"):
            FaultRule("transient", probability=1.5)

    def test_every_nth_must_be_positive(self):
        with pytest.raises(FaultConfigError, match="every_nth"):
            FaultRule("transient", every_nth=0)

    def test_max_fires_must_be_positive(self):
        with pytest.raises(FaultConfigError, match="max_fires"):
            FaultRule("transient", max_fires=0)

    def test_torn_read_is_contradictory(self):
        with pytest.raises(FaultConfigError, match="torn"):
            FaultRule("torn", op="read")

    def test_pressure_factor_bounds(self):
        with pytest.raises(FaultConfigError, match="pressure_factor"):
            FaultRule("pressure", pressure_factor=0.0)
        with pytest.raises(FaultConfigError, match="pressure_factor"):
            FaultRule("pressure", pressure_factor=1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(FaultConfigError, match="latency_ms"):
            FaultRule("latency", latency_ms=-1.0)

    def test_non_rule_rejected_by_injector(self):
        with pytest.raises(FaultConfigError, match="not a FaultRule"):
            FaultInjector([{"kind": "transient"}])


class TestScopeMatching:
    def test_device_and_page_range_scoping(self):
        rule = FaultRule("transient", device="temp", page_min=4, page_max=8)
        assert rule.matches_disk("temp", 4, "read")
        assert rule.matches_disk("temp", 8, "write")
        assert not rule.matches_disk("temp", 3, "read")
        assert not rule.matches_disk("temp", 9, "read")
        assert not rule.matches_disk("data", 5, "read")

    def test_op_scoping(self):
        rule = FaultRule("transient", op="write")
        assert rule.matches_disk("data", 0, "write")
        assert not rule.matches_disk("data", 0, "read")
        assert FaultRule("transient", op="any").matches_disk("data", 0, "read")

    def test_disk_rule_never_matches_other_scopes(self):
        rule = FaultRule("transient")
        assert not rule.matches_network(0, 1)
        assert not rule.matches_memory("divisor-table")

    def test_network_link_scoping(self):
        rule = FaultRule("drop", sender=1, receiver=2)
        assert rule.matches_network(1, 2)
        assert not rule.matches_network(2, 1)
        assert FaultRule("drop").matches_network(7, 3)

    def test_memory_tag_prefix_scoping(self):
        rule = FaultRule("exhaust", tag="divisor")
        assert rule.matches_memory("divisor-table#3")
        assert not rule.matches_memory("quotient-table")
        assert FaultRule("exhaust").matches_memory("anything")


class TestTriggers:
    def test_max_fires_caps_the_rule(self):
        injector = FaultInjector([FaultRule("transient", max_fires=2)], seed=0)
        fired = sum(
            injector.on_disk_op("data", n, "read", 64) is not None for n in range(10)
        )
        assert fired == 2
        assert injector.fires_of(0) == 2

    def test_every_nth_fires_periodically(self):
        injector = FaultInjector([FaultRule("transient", every_nth=3)], seed=0)
        verdicts = [
            injector.on_disk_op("data", n, "read", 64) is not None for n in range(9)
        ]
        assert verdicts == [False, False, True] * 3

    def test_probability_is_seed_deterministic(self):
        def fire_pattern(seed):
            injector = FaultInjector(
                [FaultRule("transient", probability=0.5)], seed=seed
            )
            return [
                injector.on_disk_op("data", n, "read", 64) is not None
                for n in range(64)
            ]

        assert fire_pattern(7) == fire_pattern(7)
        assert fire_pattern(7) != fire_pattern(8)  # astronomically unlikely to tie

    def test_first_matching_rule_wins(self):
        injector = FaultInjector(
            [FaultRule("latency", latency_ms=5.0), FaultRule("transient")], seed=0
        )
        fault = injector.on_disk_op("data", 0, "read", 64)
        assert fault.kind == "latency"
        assert injector.counters.by_kind == {"latency": 1}

    def test_corrupt_bit_choice_is_recorded(self):
        injector = FaultInjector([FaultRule("corrupt", op="read")], seed=3)
        fault = injector.on_disk_op("data", 0, "read", 64)
        assert 0 <= fault.bit < 64 * 8
        event = injector.schedule[0].to_dict()
        assert event["bit"] == fault.bit
        assert event["persistent"] is False

    def test_memory_exhaust_raises(self):
        injector = FaultInjector([FaultRule("exhaust")], seed=0)
        with pytest.raises(MemoryPoolError, match="injected"):
            injector.on_memory_allocate(None, 128, "divisor-table#1")

    def test_network_verdicts(self):
        injector = FaultInjector([FaultRule("duplicate", max_fires=1)], seed=0)
        assert injector.on_network_send(0, 1) == "duplicate"
        assert injector.on_network_send(0, 1) is None


class TestSchedule:
    def _schedule(self, seed):
        injector = FaultInjector(
            [
                FaultRule("transient", probability=0.3),
                FaultRule("corrupt", op="read", probability=0.2),
            ],
            seed=seed,
        )
        for n in range(40):
            try:
                injector.on_disk_op("data", n % 7, "read", 64)
            except Exception:  # pragma: no cover - no raising kinds here
                raise
        return injector

    def test_same_seed_same_jsonl_bytes(self):
        a = schedule_to_jsonl(self._schedule(5).schedule)
        b = schedule_to_jsonl(self._schedule(5).schedule)
        assert a == b
        assert a  # non-empty: the rules do fire at these probabilities

    def test_jsonl_lines_are_sorted_key_json(self):
        text = schedule_to_jsonl(self._schedule(5).schedule)
        for line in text.splitlines():
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True)
            assert parsed["scope"] == "disk"

    def test_memory_event_records_base_tag_only(self):
        """Process-global allocation-tag suffixes must not reach the
        schedule, or byte-identical cross-process replay breaks."""
        injector = FaultInjector([FaultRule("exhaust")], seed=0)
        with pytest.raises(MemoryPoolError):
            injector.on_memory_allocate(None, 64, "divisor-table#123")
        assert injector.schedule[0].to_dict()["tag"] == "divisor-table"

    def test_summary_shape(self):
        injector = self._schedule(5)
        summary = injector.summary()
        assert summary["enabled"] is True
        assert summary["seed"] == 5
        assert summary["operations_seen"] == 40
        assert sum(summary["faults_fired"].values()) == len(injector.schedule)
        assert all("kind" in rule for rule in summary["rules"])


class TestContextWiring:
    """``ExecContext`` threads one injector through all its devices."""

    @staticmethod
    def _disks(ctx):
        return (ctx.data_disk, ctx.temp_disk, ctx.run_disk)

    def test_attach_wires_every_device(self):
        from repro.executor.iterator import ExecContext
        from repro.faults import RetryPolicy

        injector = FaultInjector([], seed=0)
        policy = RetryPolicy(max_attempts=2)
        ctx = ExecContext()
        ctx.attach_fault_injector(injector, policy)
        for disk in self._disks(ctx):
            assert disk.injector is injector
            assert disk.retry_policy is policy
            assert disk.backoff_clock is ctx.backoff_clock
        assert ctx.memory.injector is injector

    def test_detach_keeps_policy_and_shared_clock(self):
        from repro.executor.iterator import ExecContext
        from repro.faults import RetryPolicy

        policy = RetryPolicy(max_attempts=3)
        ctx = ExecContext()
        ctx.attach_fault_injector(FaultInjector([], seed=0), policy)
        ctx.attach_fault_injector(None)
        for disk in self._disks(ctx):
            assert disk.injector is None
            assert disk.retry_policy is policy
            assert disk.backoff_clock is ctx.backoff_clock
        assert ctx.fault_injector is None
        assert ctx.memory.injector is None
