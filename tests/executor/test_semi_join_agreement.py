"""The three semi-joins against a reference semi-join.

Section 2.2.1 allows merge, hash or index semi-joins before counting;
the counting strategies are only correct if every one of them returns
exactly the outer tuples with at least one inner match, duplicates
included.  Each case runs all three operators and compares them with a
plain Python set-membership filter.
"""

import random

import pytest

from repro.executor.hash_join import HashSemiJoin
from repro.executor.index_join import IndexSemiJoin
from repro.executor.iterator import run_to_relation
from repro.executor.merge_join import MergeSemiJoin
from repro.executor.scan import RelationSource
from repro.executor.sort import ExternalSort
from repro.relalg.relation import Relation
from repro.relalg.tuples import projector
from repro.storage.index import SecondaryIndex


def _random_case(seed):
    rng = random.Random(seed)
    inner = [(v,) for v in rng.sample(range(40), rng.randrange(1, 20))]
    outer = [(rng.randrange(40), i) for i in range(rng.randrange(50, 150))]
    return (("k", "a"), outer, ("k",), inner, ("k",))


# (outer names, outer rows, inner names, inner rows, join names)
CASES = {
    "basic": (("k", "a"), [(1, 10), (2, 20), (3, 30)], ("k",), [(1,), (3,)], ("k",)),
    "empty-outer": (("k", "a"), [], ("k",), [(1,), (2,)], ("k",)),
    "empty-inner": (("k", "a"), [(1, 10), (2, 20)], ("k",), [], ("k",)),
    "disjoint": (("k", "a"), [(1, 10), (3, 30)], ("k",), [(2,), (4,)], ("k",)),
    "all-match": (("k", "a"), [(1, 10), (2, 20)], ("k",), [(1,), (2,)], ("k",)),
    "outer-duplicates": (("k", "a"), [(1, 10), (1, 10), (2, 20)], ("k",), [(1,)], ("k",)),
    "inner-duplicates": (("k", "a"), [(1, 10), (2, 20)], ("k",), [(2,), (2,), (2,)], ("k",)),
    "m-to-n": (
        ("k", "a"),
        [(1, 1), (1, 2), (2, 3), (2, 4), (3, 5)],
        ("k", "b"),
        [(1, 7), (1, 8), (2, 9), (2, 9)],
        ("k",),
    ),
    "inner-keys-beyond-outer": (("k", "a"), [(1, 10), (2, 20)], ("k",), [(0,), (2,), (9,)], ("k",)),
    "negative-keys": (("k", "a"), [(-3, 1), (0, 2), (5, 3)], ("k",), [(-3,), (5,)], ("k",)),
    "two-attribute-key": (
        ("s", "c", "g"),
        [(1, 10, 4), (1, 11, 3), (2, 10, 2), (2, 12, 1)],
        ("s", "c"),
        [(1, 11), (2, 10), (3, 10)],
        ("s", "c"),
    ),
    "paper-restricted-divisor": (
        ("student_id", "course_no"),
        [(1, 10), (1, 11), (2, 11), (2, 99), (3, 10), (4, 10), (4, 11), (4, 99)],
        ("course_no",),
        [(10,), (11,)],
        ("course_no",),
    ),
    "random-1": _random_case(1),
    "random-2": _random_case(2),
    "random-3": _random_case(3),
    "random-4": _random_case(4),
}


def _hash(ctx, catalog, outer, inner, join_names):
    return HashSemiJoin(
        RelationSource(ctx, outer), RelationSource(ctx, inner), join_names
    )


def _merge(ctx, catalog, outer, inner, join_names):
    return MergeSemiJoin(
        ExternalSort(RelationSource(ctx, outer), key_names=join_names),
        ExternalSort(RelationSource(ctx, inner), key_names=join_names),
        join_names,
    )


def _index(ctx, catalog, outer, inner, join_names):
    index = SecondaryIndex.build(catalog.store(inner, "inner"), list(join_names))
    return IndexSemiJoin(RelationSource(ctx, outer), index)


OPERATORS = {"hash": _hash, "merge": _merge, "index": _index}


def reference_semi_join(outer, inner, join_names):
    outer_key = projector(outer.schema, join_names)
    inner_key = projector(inner.schema, join_names)
    keys = {inner_key(row) for row in inner}
    return [row for row in outer if outer_key(row) in keys]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_semi_join_matches_reference(ctx, catalog, operator, case):
    outer_names, outer_rows, inner_names, inner_rows, join_names = CASES[case]
    outer = Relation.of_ints(outer_names, outer_rows, name="outer")
    inner = Relation.of_ints(inner_names, inner_rows, name="inner")
    plan = OPERATORS[operator](ctx, catalog, outer, inner, join_names)
    result = run_to_relation(plan)
    expected = reference_semi_join(outer, inner, join_names)
    assert result.schema.names == outer.schema.names
    if operator == "merge":
        # The merge semi-join streams its sorted outer.
        key = projector(outer.schema, join_names)
        assert [key(row) for row in result] == sorted(key(row) for row in result)
        assert sorted(result.rows) == sorted(expected)
    else:
        # Hash and index semi-joins stream the outer in its own order.
        assert result.rows == expected
    # Build tables and sort runs are released when the plan closes.
    assert ctx.memory.bytes_in_use == 0
    assert ctx.run_disk.page_count == 0
