"""The benchmark's workloads: inputs made from a seed, and one round each.

A *round* is one pass over a workload's fixed operation set:

* ``table4-sort`` / ``table4-hash``: the workload's three division
  strategies, once each, at the paper's Table 4 point.  Every query gets
  a fresh execution context with both inputs stored cold, as in the
  paper's experiments.
* ``serve-zipf-rw``: one closed-loop mix of client requests against a
  freshly built :class:`~repro.serve.service.QueryService`.

Set-up (making the inputs and storing them) is timed apart from the
operations, so work moved between the two shows in ``setup_s``.

The inputs are made here, not by :mod:`repro.workloads`, so a change to
the program's own generators cannot change what the benchmark measures.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.costmodel.units import PAPER_UNITS
from repro.executor.iterator import ExecContext, run_to_relation
from repro.executor.scan import StoredRelationScan
from repro.experiments.runner import build_strategy_plan
from repro.relalg.relation import Relation
from repro.relalg.schema import Schema
from repro.serve.service import (
    InsertRequest,
    QueryRequest,
    QueryService,
    ServiceConfig,
)
from repro.storage.catalog import Catalog

DIVIDEND_SCHEMA = Schema.of_ints("quotient_key", "divisor_key")
DIVISOR_SCHEMA = Schema.of_ints("divisor_key")

#: Same value ranges as ``repro.workloads.synthetic``: divisor values
#: start at a base that no quotient key reaches.
DIVISOR_BASE = 1_000_000
#: Quotient keys of rows the serve mix inserts; far above any generated
#: key, so an inserted row never completes a quotient candidate.
INSERT_KEY_BASE = 10_000_000

SORT_STRATEGIES = ("naive", "sort-agg no join", "sort-agg with join")
HASH_STRATEGIES = ("hash-agg no join", "hash-agg with join", "hash-division")


def make_division_inputs(
    divisor_tuples: int, quotient_tuples: int, seed: int
) -> tuple[Relation, Relation]:
    """``R = Q x S``, shuffled by ``seed``: ``(dividend, divisor)``.

    The construction and shuffle are those of
    ``repro.workloads.synthetic.make_exact_division``, so the quotient
    is exactly the keys ``0 .. quotient_tuples - 1``.
    """
    divisor_rows = [(DIVISOR_BASE + i,) for i in range(divisor_tuples)]
    dividend_rows = [
        (q, DIVISOR_BASE + d)
        for q in range(quotient_tuples)
        for d in range(divisor_tuples)
    ]
    random.Random(seed).shuffle(dividend_rows)
    return (
        Relation(DIVIDEND_SCHEMA, dividend_rows, name="dividend"),
        Relation(DIVISOR_SCHEMA, divisor_rows, name="divisor"),
    )


# -- Table 4 workloads ------------------------------------------------------


@dataclass(frozen=True)
class TableParams:
    """Shape of a Table 4 workload."""

    strategies: tuple[str, ...]
    divisor_tuples: int = 100
    quotient_tuples: int = 400


@dataclass
class QueryResult:
    """One timed division query."""

    strategy: str
    wall_s: float
    model_ms: float
    correct: bool


def set_up_table(
    params: TableParams, seed: int, tracer=None, io_trace=None
) -> tuple[ExecContext, Catalog]:
    """Make the inputs and store them cold in a fresh context.

    The meters are reset afterwards: storing is set-up, not part of
    the query's Table 4 cell.
    """
    dividend, divisor = make_division_inputs(
        params.divisor_tuples, params.quotient_tuples, seed
    )
    ctx = ExecContext(tracer=tracer, io_trace=io_trace)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(dividend, name="dividend", cold=True)
    catalog.store(divisor, name="divisor", cold=True)
    ctx.reset_meters()
    return ctx, catalog


def run_table_query(
    params: TableParams, strategy: str, ctx: ExecContext, catalog: Catalog
) -> QueryResult:
    """Run one strategy over the stored inputs; time, meter and check it."""
    dividend = catalog.get("dividend")
    divisor = catalog.get("divisor")
    cpu_before = ctx.cpu.snapshot()
    io_before = ctx.io_stats.snapshot()
    started = time.perf_counter()
    plan = build_strategy_plan(
        strategy,
        StoredRelationScan(ctx, dividend),
        StoredRelationScan(ctx, divisor),
        expected_divisor=divisor.record_count,
        expected_quotient=params.quotient_tuples,
    )
    quotient = run_to_relation(plan, name="quotient")
    wall_s = time.perf_counter() - started
    model_ms = PAPER_UNITS.cpu_cost_ms(
        ctx.cpu.delta_since(cpu_before)
    ) + ctx.io_stats.cost_since(io_before)
    rows = list(quotient.rows)
    correct = sorted(rows) == [(q,) for q in range(params.quotient_tuples)]
    return QueryResult(strategy, wall_s, model_ms, correct)


# -- serve workload ---------------------------------------------------------


@dataclass(frozen=True)
class ServeParams:
    """Shape of the serve mix (closed loop: each client waits for its
    reply before sending the next request)."""

    clients: int = 8
    requests_per_client: int = 50
    table_pairs: int = 8
    divisor_tuples: int = 25
    quotient_tuples: int = 100
    skew: float = 1.0
    insert_fraction: float = 0.2
    admission_bytes: int = 64 * 1024
    max_waiters: int = 16
    rows_per_step: int = 64

    @property
    def requests(self) -> int:
        return self.clients * self.requests_per_client


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` in proportion to ``weights``."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def build_serve_scripts(
    params: ServeParams, pairs: list[tuple[str, str, int]], seed: int
) -> dict[str, list]:
    """Every client's request script.

    Each pair gets exactly its Zipf(``skew``) share of the requests,
    and exactly ``insert_fraction`` of each pair's requests are
    single-row inserts; the seed decides their order and how they are
    dealt to the clients.  Fixed shares keep the amount of work per
    round nearly the same from seed to seed, so the spread between
    runs measures the program, not the draw.
    """
    weights = [1.0 / (rank + 1) ** params.skew for rank in range(len(pairs))]
    shares = _apportion(params.requests, weights)
    inserts = _apportion(round(params.requests * params.insert_fraction), weights)
    tokens = []
    for index, (share, insert_count) in enumerate(zip(shares, inserts)):
        tokens += [(index, True)] * min(insert_count, share)
        tokens += [(index, False)] * (share - min(insert_count, share))
    random.Random(seed).shuffle(tokens)
    next_key = INSERT_KEY_BASE
    scripts: dict[str, list] = {}
    for c in range(params.clients):
        script = []
        for index, is_insert in tokens[c :: params.clients]:
            dividend_name, divisor_name, divisor_value = pairs[index]
            if is_insert:
                script.append(
                    InsertRequest(dividend_name, ((next_key, divisor_value),))
                )
                next_key += 1
            else:
                script.append(QueryRequest(dividend_name, divisor_name))
        scripts[f"client{c:02d}"] = script
    return scripts


@dataclass
class ServeSetup:
    ctx: ExecContext
    service: QueryService


def set_up_serve(
    params: ServeParams,
    seed: int,
    track_oracle: bool = False,
    tracer=None,
    io_trace=None,
) -> ServeSetup:
    """Store the pairs cold, build the service and queue the scripts.

    Pair ``i`` holds ``R = Q x S`` shuffled by ``seed * 1000 + i``.
    With ``track_oracle`` the service checks every answer against the
    algebraic oracle over shadow copies of the stored rows.
    """
    ctx = ExecContext(
        memory_budget=params.admission_bytes, tracer=tracer, io_trace=io_trace
    )
    catalog = Catalog(ctx.pool, ctx.data_disk)
    pairs = []
    stored_rows = {}
    for i in range(params.table_pairs):
        dividend, divisor = make_division_inputs(
            params.divisor_tuples, params.quotient_tuples, seed * 1000 + i
        )
        catalog.store(dividend, f"dividend_{i}", cold=True)
        catalog.store(divisor, f"divisor_{i}", cold=True)
        pairs.append((f"dividend_{i}", f"divisor_{i}", divisor.rows[0][0]))
        stored_rows[f"dividend_{i}"] = dividend.rows
        stored_rows[f"divisor_{i}"] = divisor.rows
    service = QueryService(
        ctx,
        catalog,
        ServiceConfig(
            seed=seed,
            rows_per_step=params.rows_per_step,
            max_waiters=params.max_waiters,
            track_oracle=track_oracle,
        ),
    )
    if track_oracle:
        # Shadows come from the generated rows, not a scan, so the
        # buffer pool starts as cold as in an untracked round and the
        # two rounds interleave identically.
        for name, rows in stored_rows.items():
            service.seed_shadow(name, rows)
    for client, script in build_serve_scripts(params, pairs, seed).items():
        service.submit_script(client, script)
    ctx.reset_meters()
    return ServeSetup(ctx, service)


@dataclass
class ServeRound:
    """One closed-loop mix, run to completion."""

    wall_s: float
    requests: int
    failed: int
    digest: str
    oracle_checked: int
    oracle_mismatches: int
    virtual_latencies_ms: list[float]
    model_ms: float
    executions: int
    result_cache_hit_ratio: float


def run_serve_round(params: ServeParams, setup: ServeSetup) -> ServeRound:
    """Drive every queued session to completion and check the answers.

    A request fails unless it ended ``ok``; an ok query fails unless it
    returned exactly ``quotient_tuples`` rows (inserted rows never
    complete a candidate, so the quotient never grows).
    """
    service = setup.service
    started = time.perf_counter()
    outcomes = service.run(check_leaks=True)
    wall_s = time.perf_counter() - started
    failed = 0
    for rec in outcomes:
        if rec.outcome != "ok":
            failed += 1
        elif rec.kind == "query" and rec.result_tuples != params.quotient_tuples:
            failed += 1
    checked = [rec for rec in outcomes if rec.oracle_ok is not None]
    return ServeRound(
        wall_s=wall_s,
        requests=len(outcomes),
        failed=failed,
        digest=service.scheduler.trace_digest(),
        oracle_checked=len(checked),
        oracle_mismatches=sum(1 for rec in checked if not rec.oracle_ok),
        virtual_latencies_ms=[rec.latency_ms for rec in outcomes if rec.outcome == "ok"],
        model_ms=PAPER_UNITS.cpu_cost_ms(setup.ctx.cpu) + setup.ctx.io_cost_ms(),
        executions=service.admission.admitted_total,
        result_cache_hit_ratio=service.result_cache.stats.hit_ratio,
    )
