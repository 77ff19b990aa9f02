"""Every public division entry point agrees with the oracle.

The regression guard for uncovered divisors: when the dividend holds
divisor-attribute values that are missing from the divisor (no
referential integrity), the no-join counting strategies count tuples
that do not belong to the division.  Every public entry point must
still return the set-semantics quotient -- by picking a strategy that
is correct on such inputs, or by running one the caller named.  Naming
a no-join counting strategy stays wrong on purpose (the paper's
example, pinned in ``tests/core/test_figure2_example.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Query, divide, divide_with_advisor
from repro.plan.physical import DIVISION_OPERATOR_STRATEGIES
from repro.relalg import algebra
from repro.relalg.relation import Relation

#: Named strategies that need no referential integrity.
CORRECT_WITHOUT_INTEGRITY = tuple(
    strategy for strategy in DIVISION_OPERATOR_STRATEGIES
    if "no join" not in strategy
)

quotient_keys = st.integers(min_value=0, max_value=5)
divisor_keys = st.integers(min_value=100, max_value=105)
missing_keys = st.integers(min_value=900, max_value=903)

#: A dividend holding divisor values missing from the divisor, and a
#: non-empty divisor.
uncovered_inputs = st.tuples(
    st.lists(st.tuples(quotient_keys, divisor_keys), max_size=40),
    st.lists(st.tuples(quotient_keys, missing_keys), min_size=1, max_size=10),
    st.lists(st.tuples(divisor_keys), min_size=1, max_size=8),
)


def relations(case):
    covered, uncovered, divisor_rows = case
    dividend = Relation.of_ints(("q", "d"), covered + uncovered, name="R")
    divisor = Relation.of_ints(("d",), divisor_rows, name="S")
    return dividend, divisor, algebra.divide_set_semantics(dividend, divisor)


@given(uncovered_inputs)
@settings(max_examples=100, deadline=None)
def test_divide_auto_matches_oracle_on_uncovered_divisor(case):
    dividend, divisor, expected = relations(case)
    assert divide(dividend, divisor).set_equal(expected)


@pytest.mark.parametrize("strategy", CORRECT_WITHOUT_INTEGRITY)
@given(case=uncovered_inputs)
@settings(max_examples=100, deadline=None)
def test_divide_named_strategy_matches_oracle_on_uncovered_divisor(strategy, case):
    dividend, divisor, expected = relations(case)
    assert divide(dividend, divisor, algorithm=strategy).set_equal(expected)


@pytest.mark.parametrize("restricted", (False, True))
@given(case=uncovered_inputs)
@settings(max_examples=100, deadline=None)
def test_divide_with_advisor_matches_oracle_on_uncovered_divisor(restricted, case):
    dividend, divisor, expected = relations(case)
    quotient, strategy = divide_with_advisor(
        dividend, divisor, divisor_restricted=restricted
    )
    assert quotient.set_equal(expected), strategy


@given(uncovered_inputs)
@settings(max_examples=100, deadline=None)
def test_query_contains_matches_oracle_on_uncovered_divisor(case):
    dividend, divisor, expected = relations(case)
    assert Query(dividend).contains(Query(divisor)).run().set_equal(expected)
