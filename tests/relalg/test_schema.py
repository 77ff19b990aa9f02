"""Tests for schemas, attributes, and the record codec."""

import pytest

from repro.errors import SchemaError
from repro.relalg.schema import Attribute, DataType, Schema


class TestAttribute:
    def test_int_attribute_is_eight_bytes(self):
        attribute = Attribute("x")
        assert attribute.dtype is DataType.INT64
        assert attribute.size == 8
        assert attribute.struct_format == "q"

    def test_float_attribute_format(self):
        assert Attribute("x", DataType.FLOAT64).struct_format == "d"

    def test_string_attribute_carries_width(self):
        attribute = Attribute("title", DataType.STRING, 24)
        assert attribute.size == 24
        assert attribute.struct_format == "24s"

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_int_with_wrong_size_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("x", DataType.INT64, 4)

    def test_string_needs_positive_size(self):
        with pytest.raises(SchemaError):
            Attribute("t", DataType.STRING, 0)


class TestSchema:
    def test_of_ints_builds_int_columns(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.names == ("a", "b", "c")
        assert all(attribute.dtype is DataType.INT64 for attribute in schema)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a", "a")

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema(())

    def test_position_lookup(self):
        schema = Schema.of_ints("a", "b")
        assert schema.position_of("b") == 1
        assert schema.positions_of(["b", "a"]) == (1, 0)

    def test_unknown_name_raises(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a").position_of("missing")

    def test_contains_and_getitem(self):
        schema = Schema.of_ints("a", "b")
        assert "a" in schema and "z" not in schema
        assert schema["b"].name == "b"
        assert schema[0].name == "a"

    def test_project_preserves_requested_order(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_complement_keeps_schema_order(self):
        schema = Schema.of_ints("a", "b", "c")
        assert schema.complement(["b"]).names == ("a", "c")

    def test_complement_of_everything_rejected(self):
        schema = Schema.of_ints("a")
        with pytest.raises(SchemaError):
            schema.complement(["a"])

    def test_complement_of_unknown_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of_ints("a").complement(["zz"])

    def test_concat(self):
        left = Schema.of_ints("a")
        right = Schema.of_ints("b")
        assert left.concat(right).names == ("a", "b")

    def test_equality_and_hash(self):
        assert Schema.of_ints("a", "b") == Schema.of_ints("a", "b")
        assert Schema.of_ints("a") != Schema.of_ints("b")
        assert hash(Schema.of_ints("a")) == hash(Schema.of_ints("a"))

    def test_record_size_matches_paper_shapes(self):
        # Section 5.1: 8-byte divisor/quotient records, 16-byte dividend.
        assert Schema.of_ints("course_no").record_size == 8
        assert Schema.of_ints("student_id", "course_no").record_size == 16


class TestRecordCodec:
    def test_int_roundtrip(self):
        codec = Schema.of_ints("a", "b").codec()
        assert codec.record_size == 16
        row = (42, -7)
        assert codec.decode(codec.encode(row)) == row

    def test_string_roundtrip_strips_padding(self):
        schema = Schema((Attribute("name", DataType.STRING, 12), Attribute("n")))
        codec = schema.codec()
        encoded = codec.encode(("Ann", 3))
        assert len(encoded) == 20
        assert codec.decode(encoded) == ("Ann", 3)

    def test_float_roundtrip(self):
        schema = Schema((Attribute("x", DataType.FLOAT64),))
        codec = schema.codec()
        assert codec.decode(codec.encode((2.5,))) == (2.5,)

    def test_arity_mismatch_rejected(self):
        codec = Schema.of_ints("a").codec()
        with pytest.raises(SchemaError):
            codec.encode((1, 2))

    def test_bytes_accepted_for_string_attribute(self):
        schema = Schema((Attribute("name", DataType.STRING, 8),))
        codec = schema.codec()
        assert codec.decode(codec.encode((b"Barb",))) == ("Barb",)

    def test_negative_and_large_ints(self):
        codec = Schema.of_ints("a").codec()
        for value in (0, -1, 2**62, -(2**62)):
            assert codec.decode(codec.encode((value,))) == (value,)

    def test_decode_page_with_string_attributes(self):
        schema = Schema((Attribute("name", DataType.STRING, 6), Attribute("n")))
        codec = schema.codec()
        rows = [("Ann", 1), ("", -2), ("Barbra", 3)]
        page = b"".join(codec.encode(row) for row in rows)
        assert codec.decode_page(page, 3) == rows
        assert codec.decode_page(memoryview(page)[:0], 0) == []

    def test_decode_page_matches_decode_per_record(self):
        codec = Schema.of_ints("a", "b").codec()
        records = [codec.encode((i, -i)) for i in range(5)]
        assert codec.decode_page(b"".join(records), 5) == [
            codec.decode(record) for record in records
        ]

    def test_decode_page_rejects_a_region_of_the_wrong_length(self):
        codec = Schema.of_ints("a").codec()
        page = b"".join(codec.encode((i,)) for i in range(3))
        with pytest.raises(SchemaError):
            codec.decode_page(page[:-1], 3)
        with pytest.raises(SchemaError):
            codec.decode_page(page, 2)
