"""Wall-clock benchmark of the relational-division stack.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload table4-sort --seed 0 --seconds 35 --trace 0

Runs rounds of one workload (see ``workloads.py``) until ``--seconds``
have passed, checks every answer, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced rounds alternate and the metrics
are the per-layer ones (see ``layers.py``).  End-to-end times are
scaled to a reference host speed (see ``reference.py``).  The line
before the result holds provenance and the per-strategy figures, model
ms next to real ms.

The program is imported from ``src/``; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import REF_SECONDS, Gauge

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table4-sort", "table4-hash", "serve-zipf-rw")
#: Rounds run even when ``--seconds`` is shorter, so medians exist.
MIN_ROUNDS = 3
#: The measured Table 4 grid the reproduction pins (model ms).
PINNED_GRID = ROOT / "benchmarks" / "results" / "table4_full_grid.txt"
#: Seeds other than 0 shuffle the dividend differently, which moves
#: the sort strategies' comparison counts slightly off the pinned row.
MODEL_TOLERANCE = 0.005
#: Per-layer values that are real time; every other per-layer value is
#: a count or model quantity and must repeat exactly between rounds.
REAL_TIME_SUFFIXES = (".s", ".self_ms")
EVENT_LOG_CAPACITY = 1 << 20
#: Untraced serve round ``k`` of a run with seed ``s`` uses seed
#: ``s * SERVE_SEEDS_PER_RUN + k``: how many executions a mix needs
#: varies with its seed by about 10%, so each run averages over many.
SERVE_SEEDS_PER_RUN = 1000


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside
    a git work tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pinned_model_ms(divisor_tuples: int, quotient_tuples: int) -> dict[str, int]:
    """The ``measured`` row of the pinned Table 4 grid at one size point."""
    header = None
    for line in PINNED_GRID.read_text().splitlines():
        cells = re.split(r"\s{2,}", line.strip())
        if cells[:2] == ["|S|", "|Q|"]:
            header = cells
        elif cells[:3] == [str(divisor_tuples), str(quotient_tuples), "measured"]:
            return {
                name: int(value.replace(",", ""))
                for name, value in zip(header[3:], cells[3:])
            }
    raise LookupError(f"no pinned Table 4 row for {divisor_tuples}x{quotient_tuples}")


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3


@dataclass
class Timed:
    """One timed step: real seconds and the factor that scales them to
    the reference host speed (1.0 when no gauge ran)."""

    seconds: float
    scale: float

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


class Bench:
    """One benchmark run: its workload, seed, time budget and tallies."""

    def __init__(self, args: argparse.Namespace, declared: dict) -> None:
        import workloads

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.declared = declared
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        #: Set while end-to-end metrics are measured (``--trace 0``).
        self.gauge: Gauge | None = None
        if self.workload == "serve-zipf-rw":
            self.params = workloads.ServeParams()
        else:
            strategies = (
                workloads.SORT_STRATEGIES
                if self.workload == "table4-sort"
                else workloads.HASH_STRATEGIES
            )
            self.params = workloads.TableParams(strategies)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(problem)

    def keep_going(self, rounds: int, started: float, minimum: int) -> bool:
        return rounds < minimum or time.perf_counter() - started < self.seconds

    def timed(self, seconds: float) -> Timed:
        """Close a timed step: a gauge reading, when one runs."""
        return Timed(seconds, self.gauge.step_scale() if self.gauge else 1.0)

    # -- Table 4 workloads ---------------------------------------------

    def table_round(self, traced: bool = False):
        """Set up and run each strategy once: the timed set-ups, the
        query results with their timed queries, and when traced the
        (context, event log) of each query."""
        import workloads
        from repro.obs.iotrace import IoEventLog
        from repro.obs.span import Tracer

        setups, results, queries, kept = [], [], [], []
        for strategy in self.params.strategies:
            tracer = Tracer() if traced else None
            log = IoEventLog(capacity=EVENT_LOG_CAPACITY) if traced else None
            gc.collect()
            started = time.perf_counter()
            ctx, catalog = workloads.set_up_table(self.params, self.seed, tracer, log)
            setups.append(self.timed(time.perf_counter() - started))
            result = workloads.run_table_query(self.params, strategy, ctx, catalog)
            results.append(result)
            queries.append(self.timed(result.wall_s))
            if traced:
                kept.append((ctx, log))
            else:
                ctx.close()
        return setups, results, queries, kept

    def check_table_results(self, results, reference: dict) -> None:
        """Quotient, pinned model ms, and model ms equal to the first
        run of the same strategy (``reference``, filled on first use)."""
        pinned = self.pinned
        for result in results:
            self.attempted += 1
            want = pinned[result.strategy]
            reference.setdefault(result.strategy, result.model_ms)
            if not result.correct:
                self.fail(f"{result.strategy}: wrong quotient")
            elif result.model_ms != reference[result.strategy]:
                self.fail(
                    f"{result.strategy}: model ms {result.model_ms!r} differs "
                    f"from {reference[result.strategy]!r} on the same inputs"
                )
            elif self.seed == 0 and round(result.model_ms) != want:
                self.fail(f"{result.strategy}: model ms {result.model_ms} != pinned {want}")
            elif abs(result.model_ms - want) > MODEL_TOLERANCE * want:
                self.fail(f"{result.strategy}: model ms {result.model_ms} far from {want}")

    def run_table(self) -> dict:
        self.pinned = pinned_model_ms(
            self.params.divisor_tuples, self.params.quotient_tuples
        )
        reference: dict = {}
        rounds, samples = [], []
        self.gauge = Gauge()
        started = time.perf_counter()
        while self.keep_going(len(rounds), started, MIN_ROUNDS):
            setups, results, queries, _ = self.table_round()
            self.check_table_results(results, reference)
            rounds.append(results)
            samples.append((setups, queries, len(queries)))
        self.describe_table(rounds, reference)
        return self.end_to_end(samples)

    def trace_table(self) -> dict:
        from layers import LayerProbe, layer_metrics
        from repro.obs.iotrace import verify_conservation

        self.pinned = pinned_model_ms(
            self.params.divisor_tuples, self.params.quotient_tuples
        )
        reference: dict = {}
        untraced, traced, samples = [], [], []
        started = time.perf_counter()
        while self.keep_going(len(traced), started, 2):
            _, results, _, _ = self.table_round()
            self.check_table_results(results, reference)
            untraced.append(sum(r.wall_s for r in results))
            with LayerProbe() as probe:
                _, results, _, kept = self.table_round(traced=True)
            # Same reference: traced model ms must equal untraced.
            self.check_table_results(results, reference)
            for result, (ctx, log) in zip(results, kept):
                report = verify_conservation(log, ctx.io_stats)
                if not report.ok:
                    self.fail(f"{result.strategy}: {report}")
            traced.append(sum(r.wall_s for r in results))
            samples.append(layer_metrics(probe, [ctx for ctx, _ in kept]))
            for ctx, _ in kept:
                ctx.close()
        return self.combine_layers(samples, traced, untraced)

    def describe_table(self, rounds, reference: dict) -> None:
        self.info["strategies"] = {
            strategy: {
                "median_real_ms": median_ms(
                    [r.wall_s for results in rounds for r in results if r.strategy == strategy]
                ),
                "samples": len(rounds),
                "model_ms": reference[strategy],
                "pinned_model_ms": self.pinned[strategy],
            }
            for strategy in self.params.strategies
        }
        self.info["rounds"] = len(rounds)

    # -- serve workload ------------------------------------------------

    def serve_round(self, seed: int, traced: bool = False, track_oracle: bool = False):
        """Set up and run one mix: the timed set-up, the result with its
        timed round, and when traced the set-up and event log."""
        import workloads
        from repro.obs.iotrace import IoEventLog
        from repro.obs.span import Tracer

        tracer = Tracer() if traced else None
        log = IoEventLog(capacity=EVENT_LOG_CAPACITY) if traced else None
        gc.collect()
        started = time.perf_counter()
        setup = workloads.set_up_serve(self.params, seed, track_oracle, tracer, log)
        setup_timed = self.timed(time.perf_counter() - started)
        result = workloads.run_serve_round(self.params, setup)
        round_timed = self.timed(result.wall_s)
        self.attempted += result.requests
        if result.failed:
            self.fail(f"{result.failed} failed requests", result.failed)
        if not traced:
            setup.ctx.close()
            return setup_timed, result, round_timed, None
        return setup_timed, result, round_timed, (setup, log)

    def check_oracle(self, seed: int, rounds) -> None:
        """The ``rounds`` of ``seed`` interleave identically, and an
        untimed round of it with the oracle on finds no wrong answer
        and interleaves the same way."""
        digests = {r.digest for r in rounds}
        if len(digests) != 1:
            self.fail(f"{len(digests)} different interleavings for one seed")
        _, oracle, _, _ = self.serve_round(seed, track_oracle=True)
        if oracle.oracle_checked == 0 or oracle.oracle_mismatches:
            self.fail(
                f"oracle: {oracle.oracle_mismatches} of {oracle.oracle_checked} "
                "answers differ",
                max(1, oracle.oracle_mismatches),
            )
        if oracle.digest not in digests:
            self.fail("oracle round interleaved differently from the timed rounds")
        self.info["trace_digest"] = oracle.digest
        self.info["oracle_checked"] = oracle.oracle_checked

    def run_serve(self) -> dict:
        rounds, samples = [], []
        self.gauge = Gauge()
        started = time.perf_counter()
        while self.keep_going(len(rounds), started, MIN_ROUNDS):
            seed = self.seed * SERVE_SEEDS_PER_RUN + len(rounds)
            setup, result, timed, _ = self.serve_round(seed)
            rounds.append(result)
            samples.append(([setup], [timed], result.requests))
        metrics = self.end_to_end(samples)
        self.gauge = None  # the oracle round is not timed
        self.check_oracle(self.seed * SERVE_SEEDS_PER_RUN, rounds[:1])
        self.describe_serve(rounds)
        return metrics

    def trace_serve(self) -> dict:
        from layers import LayerProbe, layer_metrics
        from repro.obs.iotrace import verify_conservation

        rounds, untraced, traced, samples = [], [], [], []
        started = time.perf_counter()
        while self.keep_going(len(traced), started, 2):
            _, result, _, _ = self.serve_round(self.seed)
            rounds.append(result)
            untraced.append(result.wall_s)
            with LayerProbe() as probe:
                _, result, _, (setup, log) = self.serve_round(self.seed, traced=True)
            rounds.append(result)
            traced.append(result.wall_s)
            ctx = setup.ctx
            report = verify_conservation(log, ctx.io_stats)
            if not report.ok:
                self.fail(f"serve: {report}")
            samples.append(layer_metrics(probe, [ctx], service=setup.service))
            ctx.close()
        self.check_oracle(self.seed, rounds)
        return self.combine_layers(samples, traced, untraced)

    def describe_serve(self, rounds) -> None:
        import layers

        first = rounds[0]
        self.info["rounds"] = len(rounds)
        self.info["serve"] = {
            "median_real_ms": median_ms([r.wall_s for r in rounds]),
            "model_ms": first.model_ms,
            "virtual_p50_ms": layers.nearest_rank(first.virtual_latencies_ms, 50),
            "virtual_p95_ms": layers.nearest_rank(first.virtual_latencies_ms, 95),
            "executions": first.executions,
            "result_cache_hit_ratio": first.result_cache_hit_ratio,
        }

    # -- shared --------------------------------------------------------

    def end_to_end(self, samples) -> dict:
        """The timed metrics from ``(timed set-ups, timed steps,
        operations)`` per round: medians of scaled times and of the
        rounds' operations per scaled second."""
        setups = [t for round_setups, _, _ in samples for t in round_setups]
        rounds = [
            (sum(t.seconds for t in steps), sum(t.scaled for t in steps), operations)
            for _, steps, operations in samples
        ]
        self.info["real"] = {
            "setup_s": statistics.median(t.seconds for t in setups),
            "round_ms": median_ms([real for real, _, _ in rounds]),
        }
        self.info["reference_s"] = {
            "median": statistics.median(self.gauge.readings),
            "readings": len(self.gauge.readings),
            "nominal": REF_SECONDS,
        }
        return {
            "setup_s": statistics.median(t.scaled for t in setups),
            "round_ms": median_ms([scaled for _, scaled, _ in rounds]),
            "requests_per_s": statistics.median(n / scaled for _, scaled, n in rounds),
        }

    def combine_layers(self, samples: list[dict], traced, untraced) -> dict:
        """Median real times over the traced rounds; every other value
        must be the same in each of them."""
        combined = {}
        for name in samples[0]:
            values = [sample[name] for sample in samples]
            if name.endswith(REAL_TIME_SUFFIXES):
                combined[name] = statistics.median(values)
            else:
                if any(value != values[0] for value in values):
                    self.fail(f"{name} differs between traced rounds: {values}")
                combined[name] = values[0]
        combined["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(
            untraced
        )
        self.info["rounds"] = len(samples)
        return combined

    def measure(self) -> dict:
        serve = self.workload == "serve-zipf-rw"
        if self.trace:
            metrics = self.trace_serve() if serve else self.trace_table()
            kind = "per_layer"
        else:
            metrics = self.run_serve() if serve else self.run_table()
            # ru_maxrss is in KiB on Linux.
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
            kind = "end_to_end"
        units = {m["name"]: m["unit"] for m in self.declared[kind]}
        if set(units) != set(metrics):
            raise RuntimeError(
                f"computed {sorted(set(metrics) ^ set(units))} do not match {kind} "
                "of BENCHMARK.json"
            )
        return {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        }

    def provenance(self) -> dict:
        from repro.storage.config import StorageConfig

        config = StorageConfig()
        why = {w["name"]: w["why"] for w in self.declared["workloads"]}
        return {
            "workload": self.workload,
            "why": why[self.workload],
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "git_commit": git_commit(),
            "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
            "nproc": os.cpu_count(),
            "inputs": dict(vars(self.params)),
            "pool": {
                "page_size": config.page_size,
                "sort_run_page_size": config.sort_run_page_size,
                "buffer_size": config.buffer_size,
                "memory_limit": config.memory_limit,
                "sort_buffer_size": config.sort_buffer_size,
            },
        }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    bench = Bench(args, declared)
    metrics = bench.measure()
    info = {"provenance": bench.provenance(), **bench.info, "problems": bench.problems}
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
