"""Per-layer measurement for the traced run.

:class:`LayerProbe` times calls into each layer's public functions by
wrapping them, from outside the program, for the duration of a ``with``
block; leaving the block restores the originals.  Times are inclusive
of callees (``heapfile.append_many.s`` contains the ``page.insert.s``
and ``buffer.fix.s`` of the appends it made).  For generator functions
(``HeapFile.scan``, ``SlottedPage.records``) the time is spent inside
the generator's steps, not in the consumer between them.

Counters the program already keeps (buffer, memory, I/O, CPU meters,
caches, admission) and the EXPLAIN ANALYZE operator profile are read,
not wrapped.  :func:`layer_metrics` turns one traced round into the
``per_layer`` metric dict.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass

import repro.serve.service as service_module
from repro.costmodel.units import PAPER_UNITS
from repro.executor.hash_table import ChainedHashTable
from repro.executor.sort import ExternalSort
from repro.obs.profile import build_profile
from repro.relalg.schema import RecordCodec
from repro.serve.scheduler import CooperativeScheduler
from repro.storage.buffer import BufferPool
from repro.storage.catalog import Catalog
from repro.storage.diskbase import PagedDiskBase
from repro.storage.heapfile import HeapFile
from repro.storage.page import SlottedPage

#: Operator classes reported as ``op.<class>.self_ms`` / ``.model_ms``;
#: every class that appears in a plan of any workload.
OPERATOR_CLASSES = (
    "ExternalSort",
    "HashAggregateDivision",
    "HashDivision",
    "HashGroupCount",
    "HashSemiJoin",
    "MergeSemiJoin",
    "NaiveDivision",
    "RelationSource",
    "SortAggregateDivision",
    "StoredRelationScan",
)


@dataclass
class CallStats:
    calls: int = 0
    seconds: float = 0.0
    items: int = 0


def _timed_iteration(iterator, stats: CallStats):
    try:
        while True:
            started = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                stats.seconds += time.perf_counter() - started
                return
            stats.seconds += time.perf_counter() - started
            stats.items += 1
            yield item
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()


class LayerProbe:
    """Wraps the layers' public functions while the block runs."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = defaultdict(CallStats)
        self.sort_runs_spilled = 0
        self.sort_merge_passes = 0
        self.sort_spilled_rows = 0
        self.chain_lengths: list[float] = []
        self._restore: list = []

    # -- wrappers --------------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, had_own, original))

    def _timed(self, owner, attr: str, name: str, count_result=False, after=None):
        original = getattr(owner, attr)
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            stats.calls += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                stats.seconds += time.perf_counter() - started
            if count_result:
                stats.items += result
            if after is not None:
                after(args[0])
            return result

        self._replace(owner, attr, wrapper)

    def _timed_generator(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return _timed_iteration(original(*args, **kwargs), stats)

        self._replace(owner, attr, wrapper)

    def _after_sort_open(self, sort: ExternalSort) -> None:
        self.sort_runs_spilled += sort.runs_spilled
        self.sort_merge_passes += sort.merge_passes_performed
        self.sort_spilled_rows += sum(sort.run_lengths)

    def _wrap_free(self) -> None:
        original = ChainedHashTable.free
        chains = self.chain_lengths

        def free(table):
            if len(table):
                chains.append(table.average_chain_length)
            return original(table)

        self._replace(ChainedHashTable, "free", free)

    def __enter__(self) -> "LayerProbe":
        self._timed(HeapFile, "append_many", "heapfile.append_many", count_result=True)
        self._timed_generator(HeapFile, "scan", "heapfile.scan")
        self._timed(Catalog, "store", "catalog.store")
        self._timed(Catalog, "insert_rows", "catalog.insert_rows")
        self._timed(SlottedPage, "insert", "page.insert")
        self._timed_generator(SlottedPage, "records", "page.records")
        self._timed(BufferPool, "fix", "buffer.fix")
        self._timed(BufferPool, "unfix", "buffer.unfix")
        self._timed(PagedDiskBase, "read_page", "disk.read_page")
        self._timed(PagedDiskBase, "write_page", "disk.write_page")
        self._timed(RecordCodec, "encode", "codec.encode")
        self._timed(RecordCodec, "decode", "codec.decode")
        self._timed(ExternalSort, "open", "sort.open", after=self._after_sort_open)
        self._timed(ChainedHashTable, "find_or_insert", "hash_table.find_or_insert")
        self._timed(ChainedHashTable, "find", "hash_table.find")
        self._wrap_free()
        # The service looks these up in its own module namespace.
        self._timed(service_module, "collect_division_estimates", "plan.collect_estimates")
        self._timed(service_module, "advise", "plan.advise")
        self._timed(CooperativeScheduler, "step", "serve.scheduler.step")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, had_own, original = self._restore.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# -- one traced round -> per-layer metrics ------------------------------------


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def layer_metrics(probe: LayerProbe, contexts: list, service=None) -> dict:
    """The ``per_layer`` values of one traced round (without
    ``trace.overhead_ratio``, which needs the untraced rounds too).

    ``contexts`` are the round's execution contexts, each with a
    recording tracer and with its meters reset after set-up, so that
    they hold exactly the timed operations.
    """
    s = probe.stats
    m: dict[str, float] = {
        "heapfile.append_many.s": s["heapfile.append_many"].seconds,
        "heapfile.append_many.records": s["heapfile.append_many"].items,
        "heapfile.scan.s": s["heapfile.scan"].seconds,
        "heapfile.scan.records": s["heapfile.scan"].items,
        "catalog.store.s": s["catalog.store"].seconds,
        "catalog.insert_rows.calls": s["catalog.insert_rows"].calls,
        "catalog.insert_rows.s": s["catalog.insert_rows"].seconds,
        "page.insert.calls": s["page.insert"].calls,
        "page.insert.s": s["page.insert"].seconds,
        "page.records.s": s["page.records"].seconds,
        "buffer.fix.calls": s["buffer.fix"].calls,
        "buffer.fix.s": s["buffer.fix"].seconds,
        "buffer.unfix.s": s["buffer.unfix"].seconds,
        "disk.read_page.calls": s["disk.read_page"].calls,
        "disk.read_page.s": s["disk.read_page"].seconds,
        "disk.write_page.calls": s["disk.write_page"].calls,
        "disk.write_page.s": s["disk.write_page"].seconds,
        "codec.encode.calls": s["codec.encode"].calls,
        "codec.encode.s": s["codec.encode"].seconds,
        "codec.decode.calls": s["codec.decode"].calls,
        "codec.decode.s": s["codec.decode"].seconds,
        "sort.open.s": s["sort.open"].seconds,
        "sort.runs_spilled": probe.sort_runs_spilled,
        "sort.merge_passes": probe.sort_merge_passes,
        "sort.spilled_rows": probe.sort_spilled_rows,
        "hash_table.find_or_insert.calls": s["hash_table.find_or_insert"].calls,
        "hash_table.find_or_insert.s": s["hash_table.find_or_insert"].seconds,
        "hash_table.find.calls": s["hash_table.find"].calls,
        "hash_table.find.s": s["hash_table.find"].seconds,
        "hash_table.avg_chain": (
            sum(probe.chain_lengths) / len(probe.chain_lengths)
            if probe.chain_lengths
            else 0.0
        ),
        "plan.collect_estimates.calls": s["plan.collect_estimates"].calls,
        "plan.collect_estimates.s": s["plan.collect_estimates"].seconds,
        "plan.advise.s": s["plan.advise"].seconds,
        "serve.scheduler.steps": s["serve.scheduler.step"].calls,
        "serve.scheduler.step.s": s["serve.scheduler.step"].seconds,
    }

    # Program counters, summed over the round's contexts.
    fixes = sum(ctx.pool.stats.fixes for ctx in contexts)
    misses = sum(ctx.pool.stats.misses for ctx in contexts)
    m["buffer.hit_ratio"] = 1.0 - misses / fixes if fixes else 0.0
    m["buffer.misses"] = misses
    m["buffer.evictions"] = sum(ctx.pool.stats.evictions for ctx in contexts)
    m["buffer.writebacks"] = sum(ctx.pool.stats.writebacks for ctx in contexts)
    m["memory.peak_bytes"] = max(ctx.memory.stats.peak_bytes for ctx in contexts)
    m["memory.allocations"] = sum(
        ctx.memory.stats.total_allocations for ctx in contexts
    )
    m["disk.seeks"] = sum(ctx.io_stats.totals().seeks for ctx in contexts)

    # Table 1 / Table 3 meters of the timed operations.
    m["model.io_ms"] = sum(ctx.io_cost_ms() for ctx in contexts)
    m["model.cpu_ms"] = sum(PAPER_UNITS.cpu_cost_ms(ctx.cpu) for ctx in contexts)
    m["cpu.comparisons"] = sum(ctx.cpu.comparisons for ctx in contexts)
    m["cpu.hashes"] = sum(ctx.cpu.hashes for ctx in contexts)
    m["cpu.bit_ops"] = sum(ctx.cpu.bit_ops for ctx in contexts)

    # EXPLAIN ANALYZE: exclusive wall and model ms per operator class.
    next_calls = 0
    results = 0
    for cls in OPERATOR_CLASSES:
        m[f"op.{cls}.self_ms"] = 0.0
        m[f"op.{cls}.model_ms"] = 0.0
    for ctx in contexts:
        profile = build_profile(ctx.tracer, ctx)
        results += sum(root.rows_out for root in profile.roots)
        for op in profile.all_operators():
            next_calls += op.next_calls
            if op.op_class not in OPERATOR_CLASSES:
                raise KeyError(f"operator class {op.op_class} is not reported")
            m[f"op.{op.op_class}.self_ms"] += op.wall_s * 1e3
            m[f"op.{op.op_class}.model_ms"] += op.total_model_ms(PAPER_UNITS)
    m["iterator.next.calls"] = next_calls
    m["iterator.next_per_result"] = next_calls / results if results else 0.0

    serve_metrics = {
        "serve.result_cache.hit_ratio": 0.0,
        "serve.plan_cache.hit_ratio": 0.0,
        "serve.cache.invalidations": 0,
        "serve.admission.waited": 0,
        "serve.admission.wait_virtual_ms": 0.0,
        "serve.virtual_p50_ms": 0.0,
        "serve.virtual_p95_ms": 0.0,
    }
    if service is not None:
        latencies = [r.latency_ms for r in service.outcomes if r.outcome == "ok"]
        waits = service.metrics.histogram("repro_serve_grant_wait_ms")
        serve_metrics = {
            "serve.result_cache.hit_ratio": service.result_cache.stats.hit_ratio,
            "serve.plan_cache.hit_ratio": service.plan_cache.stats.hit_ratio,
            "serve.cache.invalidations": (
                service.result_cache.stats.invalidations
                + service.plan_cache.stats.invalidations
            ),
            "serve.admission.waited": service.admission.waited_total,
            "serve.admission.wait_virtual_ms": waits.sum,
            "serve.virtual_p50_ms": nearest_rank(latencies, 50),
            "serve.virtual_p95_ms": nearest_rank(latencies, 95),
        }
    m.update(serve_metrics)
    return m
