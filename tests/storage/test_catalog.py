"""Tests for the catalog and the Relation <-> HeapFile bridge."""

import struct

import pytest

from repro.errors import PageError, StorageError
from repro.relalg.relation import Relation
from repro.relalg.schema import Attribute, DataType, Schema


class TestStoreAndLoad:
    def test_roundtrip(self, catalog, transcript):
        stored = catalog.store(transcript)
        assert stored.record_count == len(transcript)
        assert stored.to_relation().bag_equal(transcript)

    def test_scan_rows_decodes(self, catalog, courses):
        stored = catalog.store(courses)
        rows = list(stored.scan_rows())
        assert rows == courses.rows

    def test_string_attributes_roundtrip(self, catalog):
        schema = Schema((Attribute("name", DataType.STRING, 12), Attribute("n")))
        relation = Relation(schema, [("Ann", 1), ("Barb", 2)], name="people")
        stored = catalog.store(relation)
        assert stored.to_relation().bag_equal(relation)

    def test_cold_store_forces_read_io_on_scan(self, ctx, catalog, transcript):
        stored = catalog.store(transcript, cold=True)
        ctx.io_stats.reset()
        stored.to_relation()
        assert ctx.io_stats.counters("data").reads == stored.page_count

    def test_warm_store_scans_from_buffer(self, ctx, catalog, transcript):
        stored = catalog.store(transcript, cold=False)
        ctx.io_stats.reset()
        stored.to_relation()
        assert ctx.io_stats.counters("data").reads == 0


class TestRegistry:
    def test_names_and_contains(self, catalog, transcript, courses):
        catalog.store(transcript)
        catalog.store(courses)
        assert set(catalog.names()) == {"transcript", "courses"}
        assert "transcript" in catalog and "nope" not in catalog

    def test_get_unknown_raises(self, catalog):
        with pytest.raises(StorageError):
            catalog.get("missing")

    def test_duplicate_name_rejected(self, catalog, courses):
        catalog.store(courses)
        with pytest.raises(StorageError):
            catalog.store(courses)

    def test_anonymous_relation_needs_explicit_name(self, catalog):
        anonymous = Relation.of_ints(("a",), [(1,)])
        with pytest.raises(StorageError):
            catalog.store(anonymous)
        catalog.store(anonymous, name="named")
        assert "named" in catalog

    def test_insert_rows_append_after_the_stored_rows(self, catalog, courses):
        stored = catalog.store(courses)
        catalog.insert_rows(courses.name, [(777,)])
        assert stored.to_relation().rows == courses.rows + [(777,)]
        assert stored.record_count == len(courses) + 1

    def test_create_empty(self, catalog):
        stored = catalog.create("empty", Schema.of_ints("a"))
        assert stored.record_count == 0
        assert stored.to_relation().rows == []


class TestAtomicStore:
    """A store that fails leaves no fixed frame, page or name behind."""

    @staticmethod
    def oversized(name="wide"):
        # 9008-byte records cannot fit an empty 8 KiB data page.
        schema = Schema((Attribute("id"), Attribute("blob", DataType.STRING, 9000)))
        return Relation(schema, [(1, "x")], name=name)

    def test_oversize_record_leaks_no_fix_or_page(self, ctx, catalog):
        with pytest.raises(PageError):
            catalog.store(self.oversized())
        assert ctx.pool.fixed_page_count() == 0
        assert ctx.data_disk.page_count == 0

    def test_failed_store_frees_the_name_for_a_retry(self, ctx, catalog):
        with pytest.raises(PageError):
            catalog.store(self.oversized(name="people"))
        assert "people" not in catalog
        schema = Schema((Attribute("name", DataType.STRING, 12), Attribute("n")))
        stored = catalog.store(Relation(schema, [("Ann", 1)], name="people"))
        assert stored.to_relation().rows == [("Ann", 1)]

    def test_failure_after_some_pages_destroys_them(self, ctx, catalog, transcript):
        # 2000 16-byte records fill several pages before the last row
        # fails to encode.
        rows = [(i, i) for i in range(2000)] + [("not", "ints")]
        relation = Relation(transcript.schema, rows, name="partial")
        with pytest.raises(struct.error):
            catalog.store(relation)
        assert "partial" not in catalog
        assert ctx.data_disk.page_count == 0
        assert ctx.pool.fixed_page_count() == 0
