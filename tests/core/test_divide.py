"""Tests for the top-level divide() entry point."""

import re

import pytest

from repro import divide
from repro.costmodel.advisor import DivisionEstimates, rank_strategies
from repro.errors import DivisionError
from repro.core.aggregate_division import SortAggregateDivision
from repro.core.hash_division import HashDivision
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.experiments import runner
from repro.plan.physical import (
    DIVISION_OPERATOR_STRATEGIES,
    STRATEGIES,
    build_division_operator,
)
from repro.relalg.relation import Relation


@pytest.fixture
def inputs(transcript, courses):
    dividend = Relation.of_ints(("student_id", "course_no"), list(transcript.rows))
    return dividend, courses


class TestDispatch:
    def test_auto_uses_hash_division(self, inputs, expected_quotient):
        dividend, divisor = inputs
        result = divide(dividend, divisor)
        assert set(result.rows) == expected_quotient
        assert result.name == "quotient"

    def test_every_registered_algorithm_runs(self, inputs, expected_quotient):
        """Every strategy that needs no referential integrity (students 2
        and 4 took course 99, which is not in the divisor)."""
        dividend, divisor = inputs
        for name in DIVISION_OPERATOR_STRATEGIES:
            if "no join" in name:
                continue
            result = divide(dividend, divisor, algorithm=name)
            assert set(result.rows) == expected_quotient, name

    def test_unknown_algorithm_rejected(self, inputs):
        dividend, divisor = inputs
        for name in ("quantum", "advisor"):
            with pytest.raises(DivisionError) as error:
                divide(dividend, divisor, algorithm=name)
            _, accepted = str(error.value).split(";")
            assert re.findall(r"'([^']*)'", accepted) == [
                "auto", *DIVISION_OPERATOR_STRATEGIES
            ]

    def test_invalid_division_rejected_early(self):
        dividend = Relation.of_ints(("a",), [(1,)])
        divisor = Relation.of_ints(("b",), [(1,)])
        with pytest.raises(DivisionError):
            divide(dividend, divisor)

    def test_custom_name(self, inputs):
        dividend, divisor = inputs
        assert divide(dividend, divisor, name="winners").name == "winners"

    def test_ctx_threads_through(self, inputs):
        dividend, divisor = inputs
        ctx = ExecContext()
        divide(dividend, divisor, ctx=ctx)
        assert ctx.cpu.hashes > 0

    def test_early_output_variant_via_operator(self, ctx, inputs, expected_quotient):
        dividend, divisor = inputs
        operator = HashDivision(
            RelationSource(ctx, dividend), RelationSource(ctx, divisor),
            early_output=True,
        )
        assert set(run_to_relation(operator).rows) == expected_quotient


class TestStrategyVocabulary:
    """The planner's one strategy vocabulary, shared by every entry point."""

    def test_advisor_strategy_builds_its_operator(self, ctx, inputs):
        dividend, divisor = inputs
        operator = build_division_operator(
            "sort-agg with join",
            RelationSource(ctx, dividend),
            RelationSource(ctx, divisor),
        )
        assert isinstance(operator, SortAggregateDivision)
        assert operator.with_join

    def test_one_vocabulary(self):
        assert runner.STRATEGIES is STRATEGIES
        assert DIVISION_OPERATOR_STRATEGIES[: len(STRATEGIES)] == STRATEGIES

    def test_every_advisor_pick_is_a_divide_algorithm(self):
        picks = {
            ranked.strategy
            for restricted in (False, True)
            for duplicates in (False, True)
            for divisor_tuples in (0, 4)
            for ranked in rank_strategies(
                DivisionEstimates(
                    dividend_tuples=40,
                    divisor_tuples=divisor_tuples,
                    divisor_restricted=restricted,
                    may_contain_duplicates=duplicates,
                )
            )
        }
        assert picks == set(STRATEGIES)
