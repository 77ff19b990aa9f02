"""Tests for the merge semi-join."""

import pytest

from repro.errors import ExecutionError
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


def sorted_source(ctx, names, rows):
    return RelationSource(ctx, Relation.of_ints(names, sorted(rows)))


class TestMergeSemiJoin:
    def test_keeps_matching_outer_rows(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (2, 20), (3, 30)])
        inner = sorted_source(ctx, ("k",), [(2,), (3,)])
        result = run_to_relation(MergeSemiJoin(outer, inner, ["k"]))
        assert result.rows == [(2, 20), (3, 30)]
        assert result.schema.names == ("k", "a")

    def test_outer_duplicates_preserved(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (1, 10)])
        inner = sorted_source(ctx, ("k",), [(1,)])
        assert len(run_to_relation(MergeSemiJoin(outer, inner, ["k"]))) == 2

    def test_inner_duplicates_do_not_multiply_output(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10)])
        inner = sorted_source(ctx, ("k",), [(1,), (1,)])
        assert len(run_to_relation(MergeSemiJoin(outer, inner, ["k"]))) == 1

    def test_exhausted_inner_ends_output(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (5, 50)])
        inner = sorted_source(ctx, ("k",), [(1,)])
        result = run_to_relation(MergeSemiJoin(outer, inner, ["k"]))
        assert result.rows == [(1, 10)]

    def test_paper_semi_join_shape(self, ctx, transcript, courses):
        """The paper's with-join preprocessing: keep only transcript
        tuples whose course appears in the (restricted) divisor."""
        outer = RelationSource(ctx, transcript.sorted_by(("course_no",)))
        inner = RelationSource(ctx, courses.sorted_by(("course_no",)))
        result = run_to_relation(MergeSemiJoin(outer, inner, ["course_no"]))
        assert all(row[1] in {10, 11} for row in result.rows)
        assert len(result) == 6  # the two course-99 tuples are gone

    def test_contexts_must_match(self, ctx):
        other = ExecContext()
        outer = sorted_source(ctx, ("k",), [])
        inner = sorted_source(other, ("k",), [])
        with pytest.raises(ExecutionError):
            MergeSemiJoin(outer, inner, ["k"])

    def test_disjoint_inputs(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (3, 30)])
        inner = sorted_source(ctx, ("k",), [(2,), (4,)])
        assert run_to_relation(MergeSemiJoin(outer, inner, ["k"])).rows == []

    def test_empty_inner_yields_nothing(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(1, 10), (2, 20)])
        inner = sorted_source(ctx, ("k",), [])
        assert run_to_relation(MergeSemiJoin(outer, inner, ["k"])).rows == []

    def test_comparisons_are_charged(self, ctx):
        outer = sorted_source(ctx, ("k", "a"), [(i, i) for i in range(20)])
        inner = sorted_source(ctx, ("k",), [(i,) for i in range(0, 20, 2)])
        before = ctx.cpu.comparisons
        result = run_to_relation(MergeSemiJoin(outer, inner, ["k"]))
        assert len(result) == 10
        # At least one comparison per outer tuple.
        assert ctx.cpu.comparisons - before >= 20
