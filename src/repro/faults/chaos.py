"""Chaos campaigns: randomized fault schedules over the planner path.

The invariant this module exists to check, for every query under every
fault schedule:

    **the query either returns the oracle-equal answer or raises a
    typed :class:`~repro.errors.ReproError` -- and in both cases the
    stack is clean afterwards** (no fixed buffer frames, no live
    memory-pool bytes, no surviving run/temp pages, exact Table 3
    cost-meter conservation between the I/O trace and the statistics).

:func:`run_chaos_query` executes one division query through the full
planner -> executor path (stored relations, cold, on fault-injected
devices) and verifies the invariant.  :func:`run_campaign` strings
deterministic sequences of such queries together -- same seed, same
fault schedules, byte-identical JSONL -- and is what the ``repro
chaos`` CLI subcommand and the CI chaos-smoke job drive.

This module imports the plan and executor layers, which is why it is
*not* re-exported from :mod:`repro.faults` (storage imports that
package; importing chaos there would close an import cycle).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.executor.iterator import ExecContext
from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    FaultRule,
)
from repro.faults.retry import RetryPolicy
from repro.obs.iotrace import IoEventLog, verify_conservation
from repro.plan.logical import DivideNode, StoredSourceNode
from repro.plan.planner import compile_plan
from repro.relalg.algebra import divide_set_semantics
from repro.relalg.relation import Relation
from repro.storage.catalog import Catalog
from repro.storage.config import StorageConfig
from repro.workloads.synthetic import make_exact_division

#: Ring-buffer capacity for the chaos I/O trace: generous, because a
#: single dropped event voids the conservation check.
TRACE_CAPACITY = 1 << 18

#: The chaos stack uses deliberately tiny pages and a tiny buffer pool
#: so even small workloads span many pages and re-read them often --
#: every transfer is a fault opportunity.  (The paper's 8 KB pages
#: would fit a whole chaos workload in one page and the buffer would
#: absorb every re-read, starving the injector of eligible operations.)
CHAOS_CONFIG = StorageConfig(
    page_size=512,
    sort_run_page_size=256,
    buffer_size=4 * 512,
    memory_limit=16 * 512,
    sort_buffer_size=4 * 512,
)


def default_chaos_rules(rng: random.Random) -> list[FaultRule]:
    """Draw a small deterministic fault programme from ``rng``.

    Mixes every fault scope: disk errors (transient and permanent),
    corruption (transient and persistent), torn writes, latency, and
    memory exhaustion / pressure.  Probabilities are kept low enough
    that most queries run to completion, so campaigns exercise both
    arms of the correct-answer-or-typed-error invariant.
    """
    rules: list[FaultRule] = []
    for _ in range(rng.randint(1, 3)):
        pick = rng.randrange(8)
        device = rng.choice([None, None, "data", "temp", "runs"])
        if pick == 0:
            rules.append(
                FaultRule(
                    "transient",
                    op=rng.choice(["read", "write", "any"]),
                    device=device,
                    probability=rng.uniform(0.02, 0.3),
                )
            )
        elif pick == 1:
            rules.append(
                FaultRule(
                    "permanent",
                    op=rng.choice(["read", "write", "any"]),
                    device=device,
                    probability=rng.uniform(0.005, 0.05),
                    max_fires=1,
                )
            )
        elif pick == 2:
            rules.append(
                FaultRule(
                    "corrupt",
                    op="read",
                    device=device,
                    probability=rng.uniform(0.02, 0.15),
                    persistent=rng.random() < 0.3,
                )
            )
        elif pick == 3:
            rules.append(
                FaultRule(
                    "torn",
                    op="write",
                    device=device,
                    probability=rng.uniform(0.01, 0.1),
                    max_fires=rng.choice([1, 2]),
                )
            )
        elif pick == 4:
            rules.append(
                FaultRule(
                    "latency",
                    device=device,
                    every_nth=rng.randint(2, 12),
                    latency_ms=rng.uniform(0.5, 25.0),
                )
            )
        elif pick == 5:
            rules.append(
                FaultRule(
                    "exhaust",
                    tag=rng.choice([None, "divisor-table", "quotient-table"]),
                    probability=rng.uniform(0.01, 0.2),
                    max_fires=1,
                )
            )
        elif pick == 6:
            rules.append(
                FaultRule(
                    "pressure",
                    probability=rng.uniform(0.01, 0.1),
                    max_fires=1,
                    pressure_factor=rng.uniform(0.2, 0.8),
                )
            )
        else:
            rules.append(
                FaultRule(
                    "transient",
                    op="read",
                    device=device,
                    every_nth=rng.randint(2, 12),
                )
            )
    return rules


@dataclass
class ChaosOutcome:
    """The verdict on one chaos query.

    ``outcome`` is ``"answer"`` (the plan returned a relation) or
    ``"typed-error"`` (a :class:`~repro.errors.ReproError` subtype was
    raised).  ``violations`` is empty iff the full invariant held.
    """

    outcome: str
    error_type: str | None = None
    error_message: str | None = None
    result_tuples: int | None = None
    oracle_tuples: int = 0
    violations: list[str] = field(default_factory=list)
    schedule: list[FaultEvent] = field(default_factory=list)
    injector_summary: dict = field(default_factory=dict)
    device_fault_stats: dict = field(default_factory=dict)
    backoff_waits: int = 0
    backoff_ms: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the chaos invariant held for this query."""
        return not self.violations

    def to_dict(self) -> dict:
        out = {
            "outcome": self.outcome,
            "oracle_tuples": self.oracle_tuples,
            "violations": list(self.violations),
            "faults": self.injector_summary.get("faults_fired", {}),
            "backoff_waits": self.backoff_waits,
            "backoff_ms": round(self.backoff_ms, 3),
            "devices": self.device_fault_stats,
        }
        if self.outcome == "typed-error":
            out["error_type"] = self.error_type
            out["error_message"] = self.error_message
        else:
            out["result_tuples"] = self.result_tuples
        return out


def run_chaos_query(
    dividend: Relation,
    divisor: Relation,
    rules: list[FaultRule],
    seed: int,
    memory_budget: int | None = None,
    retry_policy: RetryPolicy | None = None,
    config: StorageConfig = CHAOS_CONFIG,
) -> ChaosOutcome:
    """Run one division query under a fault schedule; check the invariant.

    The relations are stored cold through the catalog (setup is
    fault-free -- the experiment starts from intact data), the injector
    is attached, and the query is planned *and* executed with faults
    live: the planner's statistics pass reads the stored inputs through
    the same faulty devices the execution does.

    Non-:class:`~repro.errors.ReproError` exceptions propagate -- an
    untyped error is precisely the kind of bug the chaos suite exists
    to catch.
    """
    oracle = set(divide_set_semantics(dividend, divisor))
    trace = IoEventLog(capacity=TRACE_CAPACITY)
    ctx = ExecContext(
        config=config,
        memory_budget=memory_budget,
        io_trace=trace,
    )
    try:
        catalog = Catalog(ctx.pool, ctx.data_disk)
        stored_dividend = catalog.store(dividend, "chaos_dividend", cold=True)
        stored_divisor = catalog.store(divisor, "chaos_divisor", cold=True)
        injector = FaultInjector(rules, seed=seed)
        ctx.attach_fault_injector(injector, retry_policy)
        node = DivideNode(
            StoredSourceNode(stored_dividend), StoredSourceNode(stored_divisor)
        )
        result: Relation | None = None
        error: ReproError | None = None
        plan = None
        try:
            plan = compile_plan(node, ctx)
            result = plan.execute(name="quotient")
        except ReproError as exc:
            error = exc
        finally:
            if plan is not None:
                plan.close()
        # Faults stay attached up to here; detach before the invariant
        # audit so the audit itself cannot be injected.
        ctx.attach_fault_injector(None)
        outcome = ChaosOutcome(
            outcome="answer" if error is None else "typed-error",
            error_type=type(error).__name__ if error is not None else None,
            error_message=str(error) if error is not None else None,
            result_tuples=len(result) if result is not None else None,
            oracle_tuples=len(oracle),
            schedule=list(injector.schedule),
            injector_summary=injector.summary(),
            device_fault_stats={
                name: stats.to_dict() for name, stats in ctx.fault_stats.items()
            },
            backoff_waits=ctx.backoff_clock.waits,
            backoff_ms=ctx.backoff_clock.waited_ms,
        )
        violations = outcome.violations
        if result is not None and set(result.rows) != oracle:
            violations.append(
                f"wrong answer: {len(result)} tuples != oracle {len(oracle)} "
                "(silent corruption reached the result)"
            )
        fixed = ctx.pool.fixed_page_count()
        if fixed:
            violations.append(f"{fixed} buffer frames still fixed")
        if ctx.memory.bytes_in_use:
            violations.append(
                f"{ctx.memory.bytes_in_use} memory-pool bytes still live"
            )
        if ctx.run_disk.page_count:
            violations.append(
                f"{ctx.run_disk.page_count} run-file pages not destroyed"
            )
        if ctx.temp_disk.page_count:
            violations.append(
                f"{ctx.temp_disk.page_count} temp pages not destroyed"
            )
        conservation = verify_conservation(trace, ctx.io_stats)
        if not conservation.ok:
            violations.append(f"cost meters leaked: {conservation}")
        return outcome
    finally:
        ctx.close()


@dataclass
class ChaosRunRecord:
    """One campaign entry: the run's seed, rules, and outcome."""

    index: int
    seed: int
    rules: list[FaultRule]
    outcome: ChaosOutcome

    def to_dict(self) -> dict:
        out = {
            "run": self.index,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }
        out.update(self.outcome.to_dict())
        return out


@dataclass
class ChaosReport:
    """Aggregate verdict of one campaign."""

    seed: int
    records: list[ChaosRunRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(record.outcome.ok for record in self.records)

    @property
    def answers(self) -> int:
        return sum(1 for r in self.records if r.outcome.outcome == "answer")

    @property
    def typed_errors(self) -> int:
        return sum(1 for r in self.records if r.outcome.outcome == "typed-error")

    @property
    def faults_fired(self) -> int:
        return sum(len(r.outcome.schedule) for r in self.records)

    def violations(self) -> list[str]:
        """Every invariant violation, prefixed with its run index."""
        out = []
        for record in self.records:
            out.extend(
                f"run {record.index} (seed {record.seed}): {violation}"
                for violation in record.outcome.violations
            )
        return out

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "queries": len(self.records),
            "answers": self.answers,
            "typed_errors": self.typed_errors,
            "faults_fired": self.faults_fired,
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "runs": [record.to_dict() for record in self.records],
        }

    def schedule_jsonl(self) -> str:
        """Campaign-wide fault schedule: one JSON line per fired fault,
        annotated with the run index and run seed.  Deterministic for a
        given campaign seed -- byte-identical across replays."""
        lines = []
        for record in self.records:
            for event in record.outcome.schedule:
                entry = {"run": record.index, "run_seed": record.seed}
                entry.update(event.to_dict())
                lines.append(json.dumps(entry, sort_keys=True))
        return "".join(line + "\n" for line in lines)

    def summary_line(self) -> str:
        status = "OK" if self.ok else "INVARIANT VIOLATED"
        return (
            f"chaos seed {self.seed}: {len(self.records)} queries, "
            f"{self.answers} answers, {self.typed_errors} typed errors, "
            f"{self.faults_fired} faults fired -- {status}"
        )


def run_campaign(
    seed: int = 0,
    queries: int = 20,
    divisor_tuples: int = 8,
    quotient_tuples: int = 32,
    memory_budget: int | None = None,
    max_seconds: float | None = None,
    rules: list[FaultRule] | None = None,
    retry_policy: RetryPolicy | None = None,
) -> ChaosReport:
    """Run a deterministic sequence of chaos queries.

    Every run's fault rules, injector seed, workload shuffle, and
    memory budget derive from ``seed`` alone, so the same seed replays
    the same campaign (``max_seconds`` only truncates it; it never
    changes what any individual run does).

    Args:
        seed: Campaign seed.
        queries: Number of queries to attempt.
        divisor_tuples / quotient_tuples: ``R = Q x S`` workload shape
            per run (the Table 4 generator).
        memory_budget: Fixed per-run budget; ``None`` draws one per run
            (including unbounded and tight-enough-to-overflow choices).
        max_seconds: Optional wall-clock cap for CI smoke jobs.
        rules: Fixed fault programme; ``None`` draws one per run.
        retry_policy: Device retry policy override.
    """
    master = random.Random(seed)
    report = ChaosReport(seed=seed)
    started = time.monotonic()
    for index in range(queries):
        run_seed = master.randrange(2**32)
        rule_rng = random.Random(run_seed ^ 0x9E3779B9)
        run_rules = list(rules) if rules is not None else default_chaos_rules(rule_rng)
        budget = (
            memory_budget
            if memory_budget is not None
            else rule_rng.choice([None, None, None, 2048, 8192, 65536])
        )
        dividend, divisor = make_exact_division(
            divisor_tuples, quotient_tuples, seed=run_seed & 0xFFFF
        )
        outcome = run_chaos_query(
            dividend,
            divisor,
            run_rules,
            seed=run_seed,
            memory_budget=budget,
            retry_policy=retry_policy,
        )
        report.records.append(
            ChaosRunRecord(index=index, seed=run_seed, rules=run_rules, outcome=outcome)
        )
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            break
    report.elapsed_s = time.monotonic() - started
    return report


# -- the serve scenario ------------------------------------------------
#
# The query scenario above stresses one division at a time; the serve
# scenario stresses the *service*: concurrent clients, catalog updates,
# caches, admission grants, and deadlines -- all under the same fault
# programmes.  Its invariant extends the chaos invariant:
#
#     every request either completes with the serial-order-oracle-equal
#     answer or fails with a typed ReproError, AND after the drain no
#     admission grant bytes, table locks, fixed buffer frames, or
#     memory-pool bytes survive.
#
# Oracle checks skip relations tainted by failed (possibly partial)
# writes -- their ground truth is unknowable -- but cache coherence is
# still enforced for them: the catalog bumps versions even on failed
# writes, so a stale cached quotient would surface as a mismatch on an
# *untainted* table downstream.

#: Scenario names accepted by the CLI's ``chaos --scenario``.
CHAOS_SCENARIOS = ("query", "serve")


@dataclass
class ServeChaosRecord:
    """One serve-scenario round: its seeds, rules, and verdict."""

    index: int
    seed: int
    rules: list[FaultRule]
    requests: int = 0
    ok: int = 0
    typed_errors: int = 0
    timeouts: int = 0
    shed: int = 0
    cached: int = 0
    faults_fired: int = 0
    oracle_checked: int = 0
    trace_digest: str = ""
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "round": self.index,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
            "requests": self.requests,
            "ok": self.ok,
            "typed_errors": self.typed_errors,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "cached": self.cached,
            "faults_fired": self.faults_fired,
            "oracle_checked": self.oracle_checked,
            "trace_digest": self.trace_digest,
            "violations": list(self.violations),
        }


@dataclass
class ServeChaosReport:
    """Aggregate verdict of one serve-scenario campaign."""

    seed: int
    records: list[ServeChaosRecord] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(not record.violations for record in self.records)

    def violations(self) -> list[str]:
        out = []
        for record in self.records:
            out.extend(
                f"round {record.index} (seed {record.seed}): {violation}"
                for violation in record.violations
            )
        return out

    def to_dict(self) -> dict:
        return {
            "scenario": "serve",
            "seed": self.seed,
            "rounds": len(self.records),
            "requests": sum(r.requests for r in self.records),
            "ok_requests": sum(r.ok for r in self.records),
            "typed_errors": sum(r.typed_errors for r in self.records),
            "faults_fired": sum(r.faults_fired for r in self.records),
            "ok": self.ok,
            "elapsed_s": round(self.elapsed_s, 3),
            "runs": [record.to_dict() for record in self.records],
        }

    def summary_line(self) -> str:
        status = "OK" if self.ok else "INVARIANT VIOLATED"
        requests = sum(r.requests for r in self.records)
        ok_requests = sum(r.ok for r in self.records)
        errors = sum(r.typed_errors for r in self.records)
        fired = sum(r.faults_fired for r in self.records)
        return (
            f"serve chaos seed {self.seed}: {len(self.records)} rounds, "
            f"{ok_requests}/{requests} requests ok, {errors} typed errors, "
            f"{fired} faults fired -- {status}"
        )


def run_serve_campaign(
    seed: int = 0,
    rounds: int = 5,
    clients: int = 3,
    requests_per_client: int = 5,
    table_pairs: int = 2,
    divisor_tuples: int = 4,
    quotient_tuples: int = 12,
    update_fraction: float = 0.25,
    memory_budget: int | None = None,
    max_seconds: float | None = None,
    rules: list[FaultRule] | None = None,
) -> ServeChaosReport:
    """Run the serve chaos scenario: concurrent service under faults.

    Each round builds a fresh service on fault-injected devices (tiny
    smoke pages, so small workloads still present many fault-eligible
    transfers), drives a deterministic multi-client mixed
    query/update script through it, and audits the extended invariant.
    Everything derives from ``seed``; ``max_seconds`` only truncates.

    A round's memory budget and per-request deadline are drawn from the
    round's rule RNG (unless ``memory_budget`` pins the former), so
    campaigns also exercise admission waiting, load shedding, overflow
    fallback, and deadline delivery under faults.
    """
    from repro.errors import ServeError
    from repro.serve.bench import SMOKE_CONFIG, LoadConfig, run_load

    master = random.Random(seed)
    report = ServeChaosReport(seed=seed)
    started = time.monotonic()
    for index in range(rounds):
        run_seed = master.randrange(2**32)
        rule_rng = random.Random(run_seed ^ 0x9E3779B9)
        run_rules = (
            list(rules) if rules is not None else default_chaos_rules(rule_rng)
        )
        budget = (
            memory_budget
            if memory_budget is not None
            else rule_rng.choice([None, None, 4096, 16384, 1 << 16])
        )
        deadline = rule_rng.choice([None, None, None, 50.0, 250.0])
        record = ServeChaosRecord(index=index, seed=run_seed, rules=run_rules)
        config = LoadConfig(
            clients=clients,
            requests_per_client=requests_per_client,
            seed=run_seed & 0xFFFF,
            skew=1.0,
            table_pairs=table_pairs,
            divisor_tuples=divisor_tuples,
            quotient_tuples=quotient_tuples,
            update_fraction=update_fraction,
            deadline_ms=deadline,
            memory_budget=budget,
            track_oracle=True,
            storage_config=SMOKE_CONFIG,
            fault_rules=tuple(run_rules),
            fault_seed=run_seed,
        )
        try:
            load = run_load(config)
        except ServeError as exc:
            # run_load's post-drain audit found leaked grants, locks,
            # fixed frames, or pool bytes -- the invariant's second arm.
            record.violations.append(f"dirty drain: {exc}")
            report.records.append(record)
            if max_seconds is not None and time.monotonic() - started >= max_seconds:
                break
            continue
        record.requests = load.requests
        record.ok = load.ok
        record.typed_errors = load.timeouts + load.shed + load.errors
        record.timeouts = load.timeouts
        record.shed = load.shed
        record.cached = load.cached_results
        record.faults_fired = sum(
            load.fault_summary.get("faults_fired", {}).values()
        )
        record.oracle_checked = load.oracle_checked
        record.trace_digest = load.trace_digest
        if load.oracle_mismatches:
            record.violations.append(
                f"{load.oracle_mismatches} answers diverged from the "
                "serial-order oracle (stale cache or silent corruption)"
            )
        record.violations.extend(
            f"untyped failure escaped: {line}" for line in load.untyped_failures
        )
        pending = load.requests - (
            load.ok + load.timeouts + load.cancelled + load.shed + load.errors
        )
        if pending:
            record.violations.append(
                f"{pending} requests neither completed nor failed typed"
            )
        report.records.append(record)
        if max_seconds is not None and time.monotonic() - started >= max_seconds:
            break
    report.elapsed_s = time.monotonic() - started
    return report
