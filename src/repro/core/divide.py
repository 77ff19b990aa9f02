"""The high-level :func:`divide` entry points.

``divide(R, S)`` runs relational division over two in-memory relations
with a named -- or the default -- strategy, and ``divide_with_advisor``
lets the planner choose.  Both go through :mod:`repro.plan`: the
strategy names are the planner's one vocabulary
(:data:`~repro.plan.physical.DIVISION_OPERATOR_STRATEGIES`), and the
operator trees come from its one factory.  The default follows the
paper's conclusions: hash-division, being "both fast and general"
(Section 7), applies to every input.
"""

from __future__ import annotations

from repro.errors import DivisionError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import RelationSource
from repro.plan.logical import DivideNode, SourceNode
from repro.plan.physical import DIVISION_OPERATOR_STRATEGIES, build_division_operator
from repro.plan.planner import compile_plan
from repro.relalg.relation import Relation


def divide(
    dividend: Relation,
    divisor: Relation,
    algorithm: str = "auto",
    ctx: ExecContext | None = None,
    name: str = "quotient",
) -> Relation:
    """Compute ``dividend ÷ divisor``.

    Args:
        dividend: Relation whose schema contains the divisor attributes
            plus at least one quotient attribute.
        divisor: Relation of the universally quantified values.
        algorithm: ``"auto"`` (hash-division) or one of
            :data:`~repro.plan.physical.DIVISION_OPERATOR_STRATEGIES`.
            The counting strategies eliminate duplicates first; the
            ``"no join"`` ones are correct only when every divisor value
            in the dividend occurs in the divisor (Section 2.2).
        ctx: Execution context for cost metering; a fresh unbudgeted
            context is created when omitted.
        name: Name of the returned quotient relation.

    Returns:
        The quotient relation (duplicate-free).

    Raises:
        DivisionError: for an unknown algorithm name or schemas that do
            not form a valid division.
    """
    strategy = "hash-division" if algorithm == "auto" else algorithm
    if strategy not in DIVISION_OPERATOR_STRATEGIES:
        raise DivisionError(
            f"unknown division algorithm {algorithm!r}; expected 'auto' "
            f"or one of {', '.join(map(repr, DIVISION_OPERATOR_STRATEGIES))}"
        )
    ctx = ctx or ExecContext()
    operator = build_division_operator(
        strategy,
        RelationSource(ctx, dividend),
        RelationSource(ctx, divisor),
        expected_divisor=len(divisor),
        eliminate_duplicates=True,
        distinct_sorts=True,
    )
    return run_to_relation(operator, name=name)


def divide_with_advisor(
    dividend: Relation,
    divisor: Relation,
    divisor_restricted: bool = False,
    ctx: ExecContext | None = None,
    name: str = "quotient",
) -> tuple[Relation, str]:
    """Divide using the planner's pick; returns (quotient, strategy).

    Compiles the division like a ``contains`` query: the planner's exact
    statistics pass feeds the cost advisor, and also checks that the
    divisor covers the dividend's divisor values, so the no-join
    counting strategies are refused whenever they would be wrong.  Set
    ``divisor_restricted`` when the divisor is a selection result; the
    advisor then refuses them outright (Section 2.2).
    """
    plan = compile_plan(
        DivideNode(SourceNode(dividend), SourceNode(divisor), divisor_restricted), ctx
    )
    return plan.execute(name), plan.decisions[0].strategy
