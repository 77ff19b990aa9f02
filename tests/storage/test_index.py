"""Tests for secondary indexes."""

import pytest

from repro.errors import StorageError
from repro.relalg.relation import Relation
from repro.storage.index import SecondaryIndex


@pytest.fixture
def stored_transcript(catalog, transcript):
    return catalog.store(transcript)


class TestBuildAndProbe:
    def test_build_indexes_every_record(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert len(index) == stored_transcript.record_count

    def test_missing_key_above_every_key(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert not index.contains((12345,))

    def test_contains(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["course_no"])
        assert index.contains((99,))
        assert not index.contains((0,))

    def test_composite_key(self, stored_transcript):
        index = SecondaryIndex.build(
            stored_transcript, ["student_id", "course_no"]
        )
        assert index.contains((1, 10))
        assert not index.contains((1, 99))

    def test_contains_every_stored_key(self, stored_transcript):
        index = SecondaryIndex.build(stored_transcript, ["student_id"])
        stored_ids = {row[0] for row in stored_transcript.scan_rows()}
        for student in range(max(stored_ids) + 2):
            assert index.contains((student,)) == (student in stored_ids)

    def test_empty_key_rejected(self, stored_transcript):
        with pytest.raises(StorageError):
            SecondaryIndex(stored_transcript, [])


class TestMaintenance:
    def test_insert_after_build(self, catalog):
        relation = Relation.of_ints(("a", "b"), [(1, 10)], name="r")
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"])
        rid = stored.file.append(stored.codec.encode((1, 11)))
        index.insert((1, 11), rid)
        assert len(index) == 2
        assert index.contains((1,))

    def test_insert_of_new_key_becomes_probeable(self, catalog):
        relation = Relation.of_ints(("a", "b"), [(1, 10)], name="r")
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"])
        assert not index.contains((2,))
        rid = stored.file.append(stored.codec.encode((2, 20)))
        index.insert((2, 20), rid)
        assert index.contains((2,))
        assert len(index) == 2

    def test_duplicate_rows_both_indexed(self, catalog):
        relation = Relation.of_ints(("a",), [(7,), (7,)], name="dups")
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"])
        assert len(index) == 2
        assert index.contains((7,))


class TestMetering:
    def test_probes_charge_comparisons(self, ctx, catalog):
        relation = Relation.of_ints(
            ("a", "b"), [(i, i) for i in range(500)], name="big"
        )
        stored = catalog.store(relation)
        index = SecondaryIndex.build(stored, ["a"], cpu=ctx.cpu)
        before = ctx.cpu.comparisons
        index.contains((250,))
        assert ctx.cpu.comparisons > before
