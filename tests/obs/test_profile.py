"""EXPLAIN ANALYZE profiles: exact attribution and null-tracer parity.

The two acceptance properties of the observability subsystem:

1. per-operator (exclusive) Comp/Hash/Move/Bit deltas sum *exactly* to
   the run's global ``CpuCounters`` -- nothing double-counted, nothing
   escaping -- and likewise the per-operator I/O model milliseconds,
2. the default null tracer changes no query results and adds no
   metrics entries.
"""

import pytest

from repro.executor.iterator import ExecContext
from repro.experiments.runner import STRATEGIES, run_strategy_on_relations
from repro.metering import CpuCounters
from repro.obs.profile import OperatorStats, QueryProfile, build_profile
from repro.obs.span import FakeClock, Tracer
from repro.query import ProfiledResult, Query
from repro.workloads.synthetic import make_exact_division
from repro.workloads.university import figure2_courses, figure2_transcript


def assert_cpu_equal(left: CpuCounters, right: CpuCounters) -> None:
    assert left.comparisons == right.comparisons
    assert left.hashes == right.hashes
    assert left.moves == pytest.approx(right.moves)
    assert left.bit_ops == right.bit_ops


class TestExactAttribution:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_operator_cpu_sums_to_global_on_figure2(self, strategy):
        tracer = Tracer()
        run = run_strategy_on_relations(
            strategy,
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            duplicate_free_inputs=False,
            tracer=tracer,
        )
        profile = run.profile
        assert profile is not None
        assert_cpu_equal(profile.operator_cpu_total(), profile.cpu)
        assert profile.operator_io_ms_total() == pytest.approx(profile.io_ms)

    def test_operator_cpu_sums_to_global_on_a_spilling_workload(self):
        dividend, divisor = make_exact_division(25, 25, seed=0)
        tracer = Tracer()
        run = run_strategy_on_relations(
            "sort-agg with join",
            dividend,
            divisor,
            expected_quotient=25,
            tracer=tracer,
        )
        profile = run.profile
        assert profile is not None
        assert_cpu_equal(profile.operator_cpu_total(), profile.cpu)
        assert profile.operator_io_ms_total() == pytest.approx(profile.io_ms)
        # A deep plan: division on top, scans at the leaves.
        labels = [stats.op_class for stats in profile.all_operators()]
        assert "StoredRelationScan" in labels
        assert len(labels) > 3

    def test_contains_query_explain_analyze_sums_exactly(self):
        query = Query(figure2_transcript()).contains(Query(figure2_courses()))
        profile = query.explain_analyze()
        assert isinstance(profile, QueryProfile)
        assert_cpu_equal(profile.operator_cpu_total(), profile.cpu)
        assert profile.roots, "expected at least one operator root"

    def test_exclusive_wall_sums_to_total_wall(self):
        clock = FakeClock(auto_tick=0.001)
        tracer = Tracer(clock=clock)
        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            clock=clock,
            tracer=tracer,
        )
        profile = run.profile
        exclusive = sum(s.wall_s for s in profile.all_operators())
        # Operator wall is a subset of the measured window (plan build,
        # profile assembly etc. happen outside any operator).
        assert 0 < exclusive <= run.wall_seconds


class TestNullTracerParity:
    def test_results_and_meters_identical_with_and_without_tracing(self):
        dividend, divisor = figure2_transcript(), figure2_courses()
        plain = run_strategy_on_relations(
            "hash-division", dividend, divisor, expected_quotient=1
        )
        traced = run_strategy_on_relations(
            "hash-division", dividend, divisor, expected_quotient=1, tracer=Tracer()
        )
        assert plain.quotient_tuples == traced.quotient_tuples
        assert plain.cpu_ms == pytest.approx(traced.cpu_ms)
        assert plain.io_ms == pytest.approx(traced.io_ms)
        assert plain.profile is None
        assert traced.profile is not None

    def test_null_traced_context_has_no_metrics(self):
        ctx = ExecContext()
        assert ctx.tracer.enabled is False
        assert ctx.tracer.metrics is None

    def test_divide_through_null_tracer_records_nothing(self):
        from repro import divide

        ctx = ExecContext()
        quotient = divide(figure2_transcript(), figure2_courses(), ctx=ctx)
        assert quotient.rows == [("Ann",)]
        assert ctx.tracer.metrics is None  # still the shared null tracer


class TestAlgorithmSpansAndMetrics:
    def test_hash_division_counts_dividend_and_candidates(self):
        tracer = Tracer()
        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=tracer,
        )
        by_label = {op.label: op for op in run.profile.all_operators()}
        assert by_label["StoredRelationScan(dividend)"].rows_out == 4
        assert tracer.metrics.value(
            "repro_division_quotient_candidates_total", algorithm="hash-division"
        ) == 2

    def test_division_metrics_recorded(self):
        tracer = Tracer()
        run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=tracer,
        )
        metrics = tracer.metrics
        assert metrics.value(
            "repro_division_divisor_tuples_total", algorithm="hash-division"
        ) == 2
        assert metrics.value(
            "repro_division_quotient_tuples_total", algorithm="hash-division"
        ) == 1
        # The runner absorbed the run's CPU meters, labelled by strategy.
        assert metrics.value(
            "repro_cpu_hashes_total", strategy="hash-division"
        ) > 0


class TestRendering:
    def test_render_shows_tree_and_totals(self):
        tracer = Tracer()
        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=tracer,
        )
        text = run.profile.render()
        assert "EXPLAIN ANALYZE" in text
        assert "HashDivision" in text
        assert "StoredRelationScan" in text
        assert "└─" in text
        assert str(run.profile) == text

    def test_to_dict_round_trips_the_totals(self):
        tracer = Tracer()
        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=tracer,
        )
        as_dict = run.profile.to_dict()
        assert as_dict["totals"]["total_model_ms"] == pytest.approx(
            run.profile.total_model_ms
        )
        assert as_dict["operators"][0]["operator"] == "HashDivision"
        children = as_dict["operators"][0]["children"]
        assert {child["operator"] for child in children} == {"StoredRelationScan"}


class TestQueryPipelineProfiling:
    def test_query_run_profile_returns_profiled_result(self):
        transcript = figure2_transcript()
        clock = FakeClock(auto_tick=0.001)
        result = Query(transcript).project("student").distinct().run(
            profile=True, clock=clock
        )
        assert isinstance(result, ProfiledResult)
        assert sorted(result.relation.rows) == [("Ann",), ("Barb",)]
        # The compiled pipeline profiles the physical streaming
        # operators, not the logical steps.
        labels = [stats.op_class for stats in result.profile.all_operators()]
        assert labels[0] == "HashDistinct" and "RelationSource" in labels
        assert result.profile.wall_s > 0

    def test_query_run_without_profile_returns_relation(self):
        relation = Query(figure2_transcript()).run()
        assert not isinstance(relation, ProfiledResult)

    def test_contains_query_keeps_last_profile(self):
        query = Query(figure2_transcript()).contains(Query(figure2_courses()))
        assert query.last_profile is None
        result = query.run(profile=True)
        assert isinstance(result, ProfiledResult)
        # Figure 2 violates referential integrity (Optics); the
        # planner's coverage check keeps no-join counting off the
        # table, so only Ann qualifies -- here we pin profiling.
        assert ("Ann",) in result.relation.rows
        assert query.last_profile is result.profile


class TestBuildProfileEdges:
    def test_build_profile_without_context(self):
        tracer = Tracer(clock=FakeClock())
        profile = build_profile(tracer)
        assert profile.roots == []
        assert profile.io_ms == 0.0
        assert profile.total_model_ms == 0.0

    def test_operator_stats_defaults(self):
        stats = OperatorStats(label="X()", op_class="X")
        assert stats.next_calls == 0
        assert stats.total_model_ms() == 0.0
