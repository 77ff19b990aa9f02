"""Page-sized batches through the iterator protocol.

``next_batch()`` must be invisible to everything the reproduction
measures: a plan fed by page batches produces the same rows, in the
same order, with the same Table 1 counters, the same physical page
transfers (in the same order, charged to the same operators) and the
same buffer-pool traffic as the same plan forced to move one row per
protocol call.  :class:`RowAtATime` forces that reference path: it
overrides only ``_next``, so its consumer gets one-row batches and its
input is read with ``next()``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.hash_division import HashDivision
from repro.errors import ExecutionError, HashTableOverflowError
from repro.executor.aggregate import HashGroupCount
from repro.executor.hash_join import HashSemiJoin
from repro.executor.iterator import ExecContext, QueryIterator, run_to_relation
from repro.executor.scan import StoredRelationScan
from repro.obs.iotrace import IoEventLog
from repro.obs.span import Tracer
from repro.plan.physical import STRATEGIES, build_division_operator
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog
from repro.storage.config import KIB, StorageConfig
from repro.storage.heapfile import HeapFile
from repro.workloads.synthetic import make_with_nonmatching, make_with_partial_quotients

#: 1 KB data pages hold 51 dividend records, and a 3 KB sort buffer
#: holds 192: runs are cut part-way through a page, the sorts spill and
#: merge, and the small pool evicts and writes back.
CONFIG = StorageConfig(
    page_size=KIB,
    sort_run_page_size=KIB,
    buffer_size=8 * KIB,
    memory_limit=32 * KIB,
    sort_buffer_size=3 * KIB,
)


class RowAtATime(QueryIterator):
    """Pass-through that moves one row per protocol call."""

    def __init__(self, input_op: QueryIterator) -> None:
        super().__init__(input_op.ctx, input_op.schema)
        self.input_op = input_op

    def _open(self) -> None:
        self.input_op.open()

    def _next(self):
        return self.input_op.next()

    def _close(self) -> None:
        self.input_op.close()


@pytest.fixture(scope="module")
def workload() -> tuple[Relation, Relation]:
    """Dividend tuples that match no divisor tuple, so the semi-join
    filters; the no-join strategies miscount them, identically."""
    return make_with_nonmatching(12, 60, nonmatching_fraction=0.5, seed=7)


@pytest.fixture(scope="module")
def partial_workload() -> tuple[Relation, Relation]:
    """Half the candidates complete: every strategy answers correctly."""
    dividend, divisor, _ = make_with_partial_quotients(12, 90, 0.5, seed=7)
    return dividend, divisor


def records_per_page(catalog, name: str) -> int:
    _, slot_count, _ = next(catalog.get(name).file.scan())
    return slot_count


def stored_context(workload, memory_budget=None):
    ctx = ExecContext(
        config=CONFIG,
        memory_budget=memory_budget,
        tracer=Tracer(),
        io_trace=IoEventLog(),
    )
    catalog = Catalog(ctx.pool, ctx.data_disk)
    dividend, divisor = workload
    catalog.store(dividend, name="dividend", cold=True)
    catalog.store(divisor, name="divisor", cold=True)
    ctx.reset_meters()
    return ctx, catalog


def scans(ctx, catalog, row_at_a_time: bool):
    inputs = (
        StoredRelationScan(ctx, catalog.get("dividend")),
        StoredRelationScan(ctx, catalog.get("divisor")),
    )
    if row_at_a_time:
        return tuple(RowAtATime(op) for op in inputs)
    return inputs


def build_plan(strategy, dividend, divisor):
    if strategy == "hash-division early-output":
        return HashDivision(dividend, divisor, early_output=True)
    return build_division_operator(
        strategy, dividend, divisor, expected_divisor=12, expected_quotient=60
    )


def observe(workload, strategy: str, row_at_a_time: bool):
    """Run one plan; everything the meters see, in order."""
    ctx, catalog = stored_context(workload)
    root = build_plan(strategy, *scans(ctx, catalog, row_at_a_time))
    if row_at_a_time:
        root = RowAtATime(root)
    rows = run_to_relation(root).rows
    return {
        "rows": list(rows),
        "cpu": ctx.cpu.snapshot(),
        "events": [event.to_dict() for event in ctx.io_trace.events()],
        "buffer": dataclasses.astuple(ctx.pool.stats),
    }


class TestBatchedPlansMatchRowAtATime:
    @pytest.mark.parametrize("strategy", STRATEGIES + ("hash-division early-output",))
    def test_same_rows_counters_events_and_buffer_traffic(
        self, workload, partial_workload, strategy
    ):
        for relations in (workload, partial_workload):
            batched = observe(relations, strategy, row_at_a_time=False)
            reference = observe(relations, strategy, row_at_a_time=True)
            assert batched == reference
        assert len(batched["rows"]) == 45

    def test_sort_runs_are_cut_inside_pages(self, workload):
        ctx, catalog = stored_context(workload)
        capacity = CONFIG.sort_run_capacity_records(16)
        assert capacity % records_per_page(catalog, "dividend") != 0
        batched = observe(workload, "sort-agg with join", row_at_a_time=False)
        assert any(event["device"] == "runs" for event in batched["events"])


def multi_page_scan(ctx, catalog, rows: int = 300) -> StoredRelationScan:
    relation = Relation.of_ints(("a", "b"), [(i, -i) for i in range(rows)], name="r")
    stored = catalog.store(relation, cold=True)
    assert stored.page_count >= 3
    return StoredRelationScan(ctx, stored)


@pytest.fixture
def small_ctx() -> ExecContext:
    return ExecContext(config=CONFIG)


@pytest.fixture
def small_catalog(small_ctx) -> Catalog:
    return Catalog(small_ctx.pool, small_ctx.data_disk)


class TestScanBatches:
    def test_a_batch_is_one_page(self, small_ctx, small_catalog):
        scan = multi_page_scan(small_ctx, small_catalog)
        scan.open()
        sizes = []
        while batch := scan.next_batch():
            sizes.append(len(batch))
        scan.close()
        assert len(sizes) == scan.stored.page_count
        assert sum(sizes) == scan.rows_produced == 300

    def test_mixed_next_and_next_batch_hand_out_each_row_once(
        self, small_ctx, small_catalog
    ):
        scan = multi_page_scan(small_ctx, small_catalog)
        scan.open()
        out = [scan.next(), scan.next()]
        rest_of_first_page = scan.next_batch()
        out += rest_of_first_page
        out.append(scan.next())
        out += scan.next_batch()
        out += scan.next_batch()
        out.append(scan.next())
        out += list(scan)
        scan.close()
        assert out == [(i, -i) for i in range(300)]
        assert len(rest_of_first_page) + 2 == records_per_page(small_catalog, "r")
        assert scan.rows_produced == 300

    def test_a_page_without_records_is_skipped(
        self, small_ctx, small_catalog, monkeypatch
    ):
        scan = multi_page_scan(small_ctx, small_catalog)
        pages = scan.stored.page_count
        scan_with_records = HeapFile.scan

        def with_empty_pages(file):
            for item in scan_with_records(file):
                yield item[0], 0, b""
                yield item
            yield -1, 0, b""

        monkeypatch.setattr(HeapFile, "scan", with_empty_pages)
        scan.open()
        batches = []
        while batch := scan.next_batch():
            batches.append(batch)
        assert len(batches) == pages
        scan.close()
        scan.open()
        rows = []
        while (row := scan.next()) is not None:
            rows.append(row)
        scan.close()
        assert rows == [row for batch in batches for row in batch]
        assert len(rows) == 300

    def test_next_batch_after_exhaustion_returns_empty(self, small_ctx, small_catalog):
        scan = multi_page_scan(small_ctx, small_catalog)
        scan.open()
        list(scan)
        assert scan.next_batch() == []
        assert scan.next_batch() == []
        assert scan.next() is None
        scan.close()

    def test_next_batch_on_a_closed_operator_raises(self, small_ctx, small_catalog):
        scan = multi_page_scan(small_ctx, small_catalog)
        with pytest.raises(ExecutionError, match="next_batch"):
            scan.next_batch()
        scan.open()
        scan.close()
        with pytest.raises(ExecutionError, match="next_batch"):
            scan.next_batch()

    def test_default_batch_is_one_row(self, small_ctx, small_catalog):
        wrapped = RowAtATime(multi_page_scan(small_ctx, small_catalog))
        wrapped.open()
        assert wrapped.next_batch() == [(0, 0)]
        wrapped.close()


# -- overflow part-way through a page ---------------------------------------


def group_count(dividend, divisor):
    return HashGroupCount(dividend, ("quotient_key",), expected_groups=60)


def semi_join(dividend, divisor):
    # The dividend is the build side, so the build table outgrows the
    # budget while it takes in the dividend's rows.
    return HashSemiJoin(divisor, dividend, ("divisor_key",))


def hash_division(dividend, divisor):
    return HashDivision(dividend, divisor, expected_divisor=12, expected_quotient=60)


#: Budgets that overflow part-way through the dividend's pages.
OVERFLOWS = {
    "HashGroupCount": (group_count, 2000),
    "HashSemiJoin": (semi_join, 20000),
    "HashDivision": (hash_division, 4000),
}


def overflow_at(workload, name: str, row_at_a_time: bool):
    build, budget = OVERFLOWS[name]
    ctx, catalog = stored_context(workload, memory_budget=budget)
    dividend, divisor = scans(ctx, catalog, row_at_a_time)
    operator = build(dividend, divisor)
    with pytest.raises(HashTableOverflowError):
        operator.open()
    return ctx, operator, dividend


class TestOverflowInsideAPage:
    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_counters_at_the_raise_match_row_at_a_time(self, workload, name):
        ctx, _, _ = overflow_at(workload, name, row_at_a_time=False)
        reference, _, dividend = overflow_at(workload, name, row_at_a_time=True)
        assert ctx.cpu == reference.cpu
        events = [event.to_dict() for event in ctx.io_trace.events()]
        assert events == [event.to_dict() for event in reference.io_trace.events()]
        # Dividend rows taken in when the table overflowed: hash-division
        # pulls them one call at a time here, the other two hash each
        # row once.  The count is not a whole number of 51-row pages.
        if name == "HashDivision":
            taken = dividend.rows_produced
        else:
            taken = reference.cpu.hashes
        assert taken % 51 != 0

    @pytest.mark.parametrize("name", sorted(OVERFLOWS))
    def test_nothing_stays_charged_and_the_operator_reopens(self, workload, name):
        ctx, operator, _ = overflow_at(workload, name, row_at_a_time=False)
        assert ctx.memory.bytes_in_use == 0
        assert ctx.pool.fixed_page_count() == 0
        ctx.memory.budget = None
        assert len(run_to_relation(operator)) > 0
        assert ctx.memory.bytes_in_use == 0
