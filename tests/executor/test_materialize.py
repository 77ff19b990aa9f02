"""Tests for temp file scans."""

from repro.executor.iterator import run_to_relation
from repro.executor.materialize import TempFileScan
from repro.relalg.relation import Relation


class TestTempFileScan:
    def test_scans_prewritten_file(self, ctx):
        schema = Relation.of_ints(("a",), []).schema
        codec = schema.codec()
        file = ctx.temp_file("temp")
        file.append_many(codec.encode((i,)) for i in range(5))
        plan = TempFileScan(ctx, file, schema)
        assert run_to_relation(plan).rows == [(i,) for i in range(5)]
        # Not destroyed: scan again.
        plan2 = TempFileScan(ctx, file, schema, destroy_on_close=True)
        assert run_to_relation(plan2).rows == [(i,) for i in range(5)]
        assert ctx.temp_disk.page_count == 0

    def test_destroy_on_close(self, ctx):
        schema = Relation.of_ints(("a",), []).schema
        file = ctx.temp_file("temp")
        file.append(schema.codec().encode((1,)))
        run_to_relation(TempFileScan(ctx, file, schema, destroy_on_close=True))
        assert ctx.temp_disk.page_count == 0

    def test_empty_file_yields_nothing(self, ctx):
        schema = Relation.of_ints(("a",), []).schema
        file = ctx.temp_file("temp")
        assert run_to_relation(TempFileScan(ctx, file, schema)).rows == []

    def test_rescan_after_close_restarts(self, ctx):
        schema = Relation.of_ints(("a", "b"), []).schema
        codec = schema.codec()
        file = ctx.temp_file("temp")
        file.append_many(codec.encode((i, -i)) for i in range(3))
        plan = TempFileScan(ctx, file, schema)
        assert run_to_relation(plan).rows == [(0, 0), (1, -1), (2, -2)]
        assert run_to_relation(plan).rows == [(0, 0), (1, -1), (2, -2)]
