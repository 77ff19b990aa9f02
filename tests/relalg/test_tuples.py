"""Tests for the positional tuple helpers."""

from repro.relalg.schema import Schema
from repro.relalg.tuples import projector


class TestProjector:
    def test_single_attribute(self):
        schema = Schema.of_ints("a", "b")
        project = projector(schema, ["b"])
        assert project((1, 2)) == (2,)

    def test_multiple_attributes_in_requested_order(self):
        schema = Schema.of_ints("a", "b", "c")
        project = projector(schema, ["c", "a"])
        assert project((1, 2, 3)) == (3, 1)

    def test_identity_projection_returns_same_tuple(self):
        schema = Schema.of_ints("a", "b")
        project = projector(schema, ["a", "b"])
        row = (1, 2)
        assert project(row) is row
