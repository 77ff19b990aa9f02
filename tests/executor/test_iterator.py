"""Tests for the open-next-close protocol machinery."""

import pytest

from repro.errors import DiskError, ExecutionError
from repro.executor.iterator import run_to_relation
from repro.executor.scan import RelationSource
from repro.relalg.relation import Relation


class TestProtocol:
    def test_next_before_open_rejected(self, ctx):
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,)]))
        with pytest.raises(ExecutionError):
            source.next()

    def test_double_open_rejected(self, ctx):
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,)]))
        source.open()
        with pytest.raises(ExecutionError):
            source.open()

    def test_close_without_open_rejected(self, ctx):
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,)]))
        with pytest.raises(ExecutionError):
            source.close()

    def test_next_after_exhaustion_keeps_returning_none(self, ctx):
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,)]))
        source.open()
        assert source.next() == (1,)
        assert source.next() is None
        assert source.next() is None
        source.close()

    def test_reopen_after_close_restarts(self, ctx):
        source = RelationSource(ctx, Relation.of_ints(("a",), [(1,), (2,)]))
        source.open()
        assert source.next() == (1,)
        source.close()
        source.open()
        assert source.next() == (1,)
        source.close()

    def test_iteration_protocol(self, ctx):
        relation = Relation.of_ints(("a",), [(1,), (2,), (3,)])
        source = RelationSource(ctx, relation)
        source.open()
        assert list(source) == relation.rows
        source.close()


class TestRunToRelation:
    def test_collects_and_closes(self, ctx):
        relation = Relation.of_ints(("a", "b"), [(1, 2), (3, 4)])
        source = RelationSource(ctx, relation)
        result = run_to_relation(source, name="out")
        assert result.bag_equal(relation.rename("out"))
        assert result.name == "out"
        # The operator is closed: it can be reopened.
        source.open()
        source.close()


class TestExplain:
    def test_explain_renders_tree(self, ctx):
        from repro.executor.filter import Select
        from repro.relalg.predicates import TruePredicate

        source = RelationSource(ctx, Relation.of_ints(("a",), [], name="r"))
        plan = Select(source, TruePredicate())
        text = plan.explain()
        assert "Select" in text
        assert "RelationSource(r" in text
        # The child is indented under the parent.
        lines = text.splitlines()
        assert lines[1].startswith("  ")


class TestExecContext:
    def test_temp_file_kinds(self, ctx):
        runs = ctx.temp_file("runs")
        temp = ctx.temp_file("temp")
        assert runs.disk.page_size == ctx.config.sort_run_page_size
        assert temp.disk.page_size == ctx.config.page_size
        with pytest.raises(ExecutionError):
            ctx.temp_file("bogus")

    def test_devices_share_one_meter_and_the_configured_page_sizes(self, ctx):
        disks = (ctx.data_disk, ctx.temp_disk, ctx.run_disk)
        assert [d.name for d in disks] == ["data", "temp", "runs"]
        assert [d.page_size for d in disks] == [
            ctx.config.page_size,
            ctx.config.page_size,
            ctx.config.sort_run_page_size,
        ]
        assert all(d.stats is ctx.io_stats for d in disks)

    def test_close_releases_every_device(self, ctx):
        ctx.close()
        for disk in (ctx.data_disk, ctx.temp_disk, ctx.run_disk):
            with pytest.raises(DiskError, match="closed"):
                disk.allocate_page()

    def test_temp_file_names_unique(self, ctx):
        assert ctx.temp_file().name != ctx.temp_file().name

    def test_reset_meters(self, ctx):
        ctx.cpu.comparisons += 5
        ctx.io_stats.record_transfer("data", 0, 100, is_write=False)
        ctx.reset_meters()
        assert ctx.cpu.comparisons == 0
        assert ctx.io_cost_ms() == 0.0
