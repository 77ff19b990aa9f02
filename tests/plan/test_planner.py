"""Tests for the planner: statistics, decisions, and compiled trees."""

import pytest

from repro.costmodel.advisor import AdvisorChoice, DivisionEstimates, choose_strategy
from repro.errors import ExecutionError
from repro.plan.logical import (
    DistinctNode,
    DivideNode,
    FilterNode,
    LogicalNode,
    ProjectNode,
    SourceNode,
)
from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource
from repro.plan.planner import (
    DivisionDecision,
    Planner,
    collect_division_estimates,
    compile_plan,
    decide_division,
)
from repro.relalg import algebra
from repro.relalg.predicates import ComparisonPredicate
from repro.relalg.relation import Relation


def R(rows):
    return Relation.of_ints(("q", "d"), rows, name="R")


def S(rows):
    return Relation.of_ints(("d",), rows, name="S")


class TestCollectEstimates:
    def test_exact_statistics(self):
        dividend = SourceNode(R([(1, 0), (1, 1), (2, 0), (1, 0)]))
        divisor = SourceNode(S([(0,), (1,), (1,)]))
        estimates, quotient_names = collect_division_estimates(dividend, divisor)
        assert quotient_names == ("q",)
        assert estimates.dividend_tuples == 4
        assert estimates.divisor_tuples == 2  # distinct
        assert estimates.quotient_tuples == 2
        assert estimates.may_contain_duplicates  # both inputs have dups

    def test_statistics_respect_pipeline_steps(self):
        dividend = ProjectNode(
            FilterNode(
                SourceNode(R([(1, 0), (1, 5), (2, 0)])),
                ComparisonPredicate("d", "<", 5),
            ),
            ("q", "d"),
        )
        divisor = DistinctNode(SourceNode(S([(0,), (0,)])))
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert estimates.dividend_tuples == 2  # (1,5) filtered out
        assert estimates.divisor_tuples == 1
        assert not estimates.may_contain_duplicates

    def test_uncovered_divisor_reported_restricted(self):
        """No referential integrity: a dividend d-value missing from the
        divisor makes no-join counting incorrect, so the statistics pass
        flags the divisor restricted even without a Filter step."""
        dividend = SourceNode(R([(1, 0), (1, 99)]))
        divisor = SourceNode(S([(0,)]))
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert estimates.divisor_restricted

    def test_covered_divisor_not_restricted(self):
        dividend = SourceNode(R([(1, 0), (2, 0)]))
        divisor = SourceNode(S([(0,), (7,)]))  # superset is fine
        estimates, _ = collect_division_estimates(dividend, divisor)
        assert not estimates.divisor_restricted

    def test_syntactic_restriction_is_kept(self):
        dividend = SourceNode(R([(1, 0)]))
        divisor = SourceNode(S([(0,)]))
        estimates, _ = collect_division_estimates(
            dividend, divisor, divisor_restricted=True
        )
        assert estimates.divisor_restricted


def decision(strategy, may_contain_duplicates):
    estimates = DivisionEstimates(
        dividend_tuples=4,
        divisor_tuples=2,
        may_contain_duplicates=may_contain_duplicates,
    )
    return DivisionDecision(
        estimates, ("q",), AdvisorChoice(strategy, 1.0, "", ())
    )


class TestDivisionDecision:
    @pytest.mark.parametrize(
        "strategy",
        ["sort-agg no join", "sort-agg with join", "hash-agg no join",
         "hash-agg with join"],
    )
    def test_counting_strategies_eliminate_possible_duplicates(self, strategy):
        assert decision(strategy, may_contain_duplicates=True).eliminate_duplicates
        assert not decision(strategy, False).eliminate_duplicates

    @pytest.mark.parametrize("strategy", ["naive", "hash-division"])
    def test_duplicate_immune_strategies_skip_elimination(self, strategy):
        assert not decision(strategy, may_contain_duplicates=True).eliminate_duplicates

    def test_strategy_is_the_advisor_winner(self):
        assert decision("hash-division", False).strategy == "hash-division"

    def test_build_operator_divides_duplicate_inputs(self, ctx):
        dividend = R([(1, 0), (1, 1), (1, 0), (2, 0), (2, 0)])
        divisor = S([(0,), (1,), (1,)])
        operator = decision("hash-agg with join", True).build_operator(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor)
        )
        result = run_to_relation(operator)
        assert result.set_equal(algebra.divide_set_semantics(dividend, divisor))
        assert result.rows == [(1,)]


class TestDecideDivision:
    def test_matches_the_compiled_plan_decision(self):
        node = DivideNode(
            SourceNode(R([(q, d) for q in range(20) for d in range(4)])),
            SourceNode(S([(d,) for d in range(4)])),
        )
        decided = decide_division(node)
        compiled = compile_plan(node).decisions[0]
        assert decided.strategy == compiled.strategy
        assert decided.estimates == compiled.estimates
        assert decided.quotient_names == ("q",)

    def test_uncovered_divisor_gets_no_no_join_counting(self):
        node = DivideNode(SourceNode(R([(1, 0), (1, 99)])), SourceNode(S([(0,)])))
        decided = decide_division(node)
        assert decided.estimates.divisor_restricted
        assert "no join" not in decided.strategy


class TestPlanner:
    def test_records_one_decision_per_divide(self, ctx):
        node = DivideNode(SourceNode(R([(1, 0)])), SourceNode(S([(0,)])))
        planner = Planner(ctx)
        planner.compile(node)
        assert len(planner.decisions) == 1
        decision = planner.decisions[0]
        assert decision.strategy == choose_strategy(decision.estimates).strategy
        assert "Division strategy:" in decision.render()

    def test_restricted_divisor_never_gets_no_join_counting(self, ctx):
        node = DivideNode(
            SourceNode(R([(q, d) for q in range(50) for d in range(5)])),
            FilterNode(
                SourceNode(S([(d,) for d in range(5)])),
                ComparisonPredicate("d", "<", 5),
            ),
            divisor_restricted=True,
        )
        planner = Planner(ctx)
        planner.compile(node)
        assert "no join" not in planner.decisions[0].strategy

    def test_unknown_node_rejected(self, ctx):
        class Bogus(LogicalNode):
            pass

        with pytest.raises(ExecutionError):
            Planner(ctx).compile(Bogus())

    def test_table4_grid_choices_match_direct_advisor_call(self):
        """For every Table 2/Table 4 (|S|, |Q|) point, compiling the
        R = Q x S workload through the planner picks exactly the
        strategy a direct advisor call on the same statistics picks --
        the refactor moved the advisor to plan time without changing a
        single choice."""
        from repro.costmodel.scenarios import TABLE2_SIZES

        for divisor_tuples, quotient_tuples in TABLE2_SIZES:
            estimates = DivisionEstimates(
                dividend_tuples=divisor_tuples * quotient_tuples,
                divisor_tuples=divisor_tuples,
                quotient_tuples=quotient_tuples,
            )
            expected = choose_strategy(estimates).strategy
            dividend = Relation.of_ints(
                ("q", "d"),
                [
                    (q, d)
                    for q in range(quotient_tuples)
                    for d in range(divisor_tuples)
                ],
                name="R",
            )
            divisor = Relation.of_ints(
                ("d",), [(d,) for d in range(divisor_tuples)], name="S"
            )
            plan = compile_plan(
                DivideNode(SourceNode(dividend), SourceNode(divisor))
            )
            assert plan.decisions[0].strategy == expected, (
                divisor_tuples,
                quotient_tuples,
            )


class TestCompilePlan:
    def test_division_free_plan_has_no_decisions(self, ctx):
        node = ProjectNode(SourceNode(R([(1, 2)])), ("q",))
        plan = compile_plan(node, ctx)
        assert plan.decisions == []
        assert plan.dividend_input is None
        result = plan.execute()
        assert result.rows == [(1,)]

    def test_divide_root_exposes_overflow_inputs(self, ctx):
        node = DivideNode(SourceNode(R([(1, 0)])), SourceNode(S([(0,)])))
        plan = compile_plan(node, ctx)
        assert plan.dividend_input is not None
        assert plan.divisor_input is not None
