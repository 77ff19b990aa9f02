"""Command-line interface: regenerate the paper's artifacts from a shell.

Examples::

    python -m repro figure2
    python -m repro table1
    python -m repro table2
    python -m repro table3
    python -m repro table4 --sizes 25x25,100x100 [--profile]
    python -m repro explain --scenario second-example
    python -m repro advisor --dividend 160000 --divisor 400 --restricted
    python -m repro parallel --processors 8 --strategy divisor
    python -m repro profile --strategy hash-division --divisor 25 --quotient 25
    python -m repro chaos --seed 42 --queries 30 --schedule-out faults.jsonl
    python -m repro chaos --scenario serve --rounds 5
    python -m repro serve --clients 4 --requests 8 --compare
    python -m repro serve --seed 7 --clients 2 --tiny-pages --faults --json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.costmodel.advisor import DivisionEstimates, rank_strategies
from repro.errors import ReproError
from repro.experiments import table1, table2, table3, table4
from repro.experiments.report import render_table


def _cmd_figure2(_args: argparse.Namespace) -> None:
    from repro import divide
    from repro.workloads.university import figure2_courses, figure2_transcript

    transcript = figure2_transcript()
    courses = figure2_courses()
    print("Transcript:", transcript.rows)
    print("Courses:   ", courses.rows)
    quotient = divide(transcript, courses)
    print("Quotient (students who took all database courses):", quotient.rows)


def _cmd_trace(args: argparse.Namespace) -> None:
    trace_cmd = getattr(args, "trace_cmd", None)
    if trace_cmd == "record":
        return _cmd_trace_record(args)
    if trace_cmd == "summarize":
        return _cmd_trace_summarize(args)
    if trace_cmd == "export":
        return _cmd_trace_export(args)
    # Default (no sub-command): narrate the worked example, the
    # original behaviour of `repro trace`.
    from repro.core.trace import trace_hash_division
    from repro.workloads.university import figure2_courses, figure2_transcript

    trace = trace_hash_division(figure2_transcript(), figure2_courses())
    print("Hash-division of the Figure 2 example, step by step (\u00a73.2):\n")
    print(trace.render())
    print(f"\nquotient: {trace.quotient}")


def _division_inputs(args: argparse.Namespace):
    """``(dividend, divisor, expected_quotient)`` for ``--workload``."""
    from repro.workloads.synthetic import make_exact_division
    from repro.workloads.university import figure2_courses, figure2_transcript

    if args.workload == "figure2":
        return figure2_transcript(), figure2_courses(), 1
    dividend, divisor = make_exact_division(args.divisor, args.quotient, seed=args.seed)
    return dividend, divisor, args.quotient


def _traced_run(args: argparse.Namespace):
    """Run one strategy with a recording tracer + I/O event log.

    Returns ``(run, ctx, log)`` so callers can verify conservation
    against the live statistics before the context goes away.
    """
    from repro.executor.iterator import ExecContext
    from repro.experiments.runner import run_strategy
    from repro.obs import IoEventLog, Tracer
    from repro.storage.catalog import Catalog

    dividend, divisor, expected_quotient = _division_inputs(args)
    tracer = Tracer()
    log = IoEventLog(capacity=args.capacity)
    ctx = ExecContext(tracer=tracer, io_trace=log)
    catalog = Catalog(ctx.pool, ctx.data_disk)
    catalog.store(dividend, name="dividend", cold=True)
    catalog.store(divisor, name="divisor", cold=True)
    # Storing is setup, not the measured experiment: reset counters and
    # event log together so the trace and the statistics describe the
    # same window (the conservation precondition).
    ctx.reset_meters()
    run = run_strategy(
        args.strategy,
        ctx,
        catalog,
        "dividend",
        "divisor",
        expected_quotient=expected_quotient,
    )
    return run, ctx, log


def _cmd_trace_record(args: argparse.Namespace) -> None:
    from repro.obs import (
        render_summary,
        verify_attribution,
        write_chrome_trace,
        write_jsonl,
    )

    run, ctx, log = _traced_run(args)
    print(
        f"division: {args.strategy}  |R|={run.dividend_tuples} "
        f"|S|={run.divisor_tuples} -> quotient {run.quotient_tuples} tuples "
        f"(cpu {run.cpu_ms:.1f} ms, io {run.io_ms:.1f} ms)"
    )
    print()
    print(render_summary(log, ctx.io_stats, top_n=args.top))
    if run.profile is not None:
        print(str(verify_attribution(log, run.profile)))
    if args.jsonl:
        write_jsonl(args.jsonl, log.events())
        print(f"wrote {len(log)} events to {args.jsonl}")
    if args.chrome:
        write_chrome_trace(args.chrome, log.events())
        print(f"wrote Chrome trace to {args.chrome} (open in chrome://tracing)")


def _cmd_trace_summarize(args: argparse.Namespace) -> None:
    from repro.obs import IoEventLog, read_jsonl, render_summary

    # Rebuild a log so render_summary sees the same shape as a live run
    # (no statistics: summary shows replayed costs, not conservation).
    log = IoEventLog.from_events(read_jsonl(args.file))
    print(render_summary(log, top_n=args.top))


def _cmd_trace_export(args: argparse.Namespace) -> None:
    from repro.obs import write_chrome_trace, write_jsonl

    run, _ctx, log = _traced_run(args)
    if args.format == "chrome":
        write_chrome_trace(args.out, log.events())
    else:
        write_jsonl(args.out, log.events())
    print(
        f"recorded {len(log)} events ({args.strategy}, "
        f"|R|={run.dividend_tuples}) -> {args.out} [{args.format}]"
    )


def _cmd_table1(_args: argparse.Namespace) -> None:
    print(table1.render())


def _cmd_table2(_args: argparse.Namespace) -> None:
    print(table2.render())
    print(f"\nworst deviation vs paper: {table2.max_deviation():.4%}")


def _cmd_table3(_args: argparse.Namespace) -> None:
    print(table3.render())


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    sizes = []
    for chunk in text.split(","):
        s, sep, q = chunk.partition("x")
        if not sep or not s.strip().isdigit() or not q.strip().isdigit():
            raise SystemExit(
                f"--sizes expects comma-separated |S|x|Q| points "
                f"(e.g. 25x25,100x100), got {chunk!r}"
            )
        sizes.append((int(s), int(q)))
    return tuple(sizes)


def _cmd_table4(args: argparse.Namespace) -> None:
    sizes = _parse_sizes(args.sizes) if args.sizes else table4.TABLE2_SIZES
    rows = []
    for s, q in sizes:
        print(f"running |S|={s}, |Q|={q} ...", file=sys.stderr)
        rows.append(table4.run_point(s, q, profile=args.profile))
    print(table4.render(rows))
    if args.profile:
        for row in rows:
            for strategy, run in row.runs.items():
                if run.profile is None:
                    continue
                print()
                print(
                    f"-- profile: |S|={row.divisor_tuples} "
                    f"|Q|={row.quotient_tuples} {strategy}"
                )
                print(run.profile.render())


def _cmd_profile(args: argparse.Namespace) -> None:
    from repro.experiments.runner import run_strategy_on_relations
    from repro.obs import Tracer, profile_to_json, render_prometheus

    dividend, divisor, expected_quotient = _division_inputs(args)
    tracer = Tracer()
    run = run_strategy_on_relations(
        args.strategy,
        dividend,
        divisor,
        expected_quotient=expected_quotient,
        tracer=tracer,
    )
    assert run.profile is not None  # recording tracer was supplied
    if args.format == "json":
        print(profile_to_json(run.profile))
    elif args.format == "prom":
        print(render_prometheus(tracer.metrics), end="")
    else:
        print(
            f"division: {args.strategy}  |R|={run.dividend_tuples} "
            f"|S|={run.divisor_tuples} -> quotient {run.quotient_tuples} tuples"
        )
        print(run.profile.render())


#: Named workload scenarios for `repro explain`.
EXPLAIN_SCENARIOS = ("figure2", "first-example", "second-example", "synthetic")


def _explain_query(args: argparse.Namespace):
    """Build the ``contains`` query of one named scenario (no execution)."""
    from repro.query import Query
    from repro.relalg.predicates import AttributeContains

    if args.scenario == "figure2":
        from repro.workloads.university import figure2_courses, figure2_transcript

        return Query(figure2_transcript()).contains(Query(figure2_courses()))
    if args.scenario == "synthetic":
        from repro.workloads.synthetic import make_exact_division

        dividend, divisor = make_exact_division(
            args.divisor, args.quotient, seed=args.seed
        )
        return Query(dividend).contains(Query(divisor))
    from repro.workloads.university import make_university

    workload = make_university(
        students=args.students,
        courses=args.courses,
        database_courses=max(1, args.courses // 4),
        completionists=max(1, args.students // 10),
        seed=args.seed,
    )
    enrollment = Query(workload.transcript).project("student_id", "course_no")
    if args.scenario == "first-example":
        # "Students who have taken all courses" -- unrestricted divisor.
        divisor = Query(workload.courses).project("course_no")
    else:
        # "Students who have taken all *database* courses" -- the
        # restricted divisor that disqualifies the no-join counters.
        divisor = (
            Query(workload.courses)
            .where(AttributeContains("title", "database"))
            .project("course_no")
        )
    return enrollment.contains(divisor)


def _cmd_explain(args: argparse.Namespace) -> None:
    print(_explain_query(args).explain())


def _cmd_advisor(args: argparse.Namespace) -> None:
    estimates = DivisionEstimates(
        dividend_tuples=args.dividend,
        divisor_tuples=args.divisor,
        quotient_tuples=args.quotient,
        divisor_restricted=args.restricted,
        may_contain_duplicates=args.duplicates,
    )
    ranked = rank_strategies(estimates)
    print(
        render_table(
            ("rank", "strategy", "estimated ms", "note"),
            [
                (position + 1, entry.strategy, entry.estimated_ms, entry.note)
                for position, entry in enumerate(ranked)
            ],
            title="Division strategies, cheapest first "
            f"(|R|={args.dividend}, |S|={args.divisor}).",
        )
    )


def _cmd_chaos(args: argparse.Namespace) -> None:
    import json as _json

    from repro.faults.chaos import run_campaign, run_serve_campaign

    if args.scenario == "serve":
        serve_report = run_serve_campaign(
            seed=args.seed,
            rounds=args.rounds,
            memory_budget=args.memory_budget,
            max_seconds=args.max_seconds,
        )
        if args.json:
            print(_json.dumps(serve_report.to_dict(), indent=2, sort_keys=True))
        else:
            print(serve_report.summary_line())
            for violation in serve_report.violations():
                print(f"  VIOLATION: {violation}")
        if not serve_report.ok:
            raise SystemExit(1)
        return

    report = run_campaign(
        seed=args.seed,
        queries=args.queries,
        divisor_tuples=args.divisor,
        quotient_tuples=args.quotient,
        memory_budget=args.memory_budget,
        max_seconds=args.max_seconds,
    )
    if args.schedule_out:
        with open(args.schedule_out, "w", encoding="utf-8") as handle:
            handle.write(report.schedule_jsonl())
        print(
            f"wrote {report.faults_fired} fault-schedule lines to "
            f"{args.schedule_out}",
            file=sys.stderr,
        )
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary_line())
        errors: dict[str, int] = {}
        for record in report.records:
            if record.outcome.error_type is not None:
                errors[record.outcome.error_type] = (
                    errors.get(record.outcome.error_type, 0) + 1
                )
        if errors:
            breakdown = ", ".join(
                f"{name} x{count}" for name, count in sorted(errors.items())
            )
            print(f"  typed errors: {breakdown}")
        for violation in report.violations():
            print(f"  VIOLATION: {violation}")
    if not report.ok:
        raise SystemExit(1)


def _cmd_serve(args: argparse.Namespace) -> None:
    import json as _json
    import random as _random

    from repro.serve.bench import (
        SMOKE_CONFIG,
        LoadConfig,
        cache_comparison,
        export_serve_bench,
        run_load,
    )

    fault_rules: tuple = ()
    if args.faults:
        from repro.faults.chaos import default_chaos_rules

        fault_rules = tuple(
            default_chaos_rules(_random.Random(args.fault_seed ^ 0x5E12E))
        )
    config = LoadConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        seed=args.seed,
        skew=args.skew,
        table_pairs=args.tables,
        divisor_tuples=args.divisor,
        quotient_tuples=args.quotient,
        update_fraction=args.update_fraction,
        deadline_ms=args.deadline_ms,
        plan_cache=not args.no_plan_cache,
        result_cache=not args.no_result_cache,
        memory_budget=args.memory_budget,
        storage_config=SMOKE_CONFIG if args.tiny_pages else None,
        fault_rules=fault_rules,
        fault_seed=args.fault_seed,
    )
    baseline = None
    if args.compare:
        report, baseline, speedup = cache_comparison(config)
    else:
        report = run_load(config)
    if args.replay_check:
        replay = run_load(config)
        if (
            replay.trace_digest != report.trace_digest
            or replay.to_dict() != report.to_dict()
        ):
            print(
                "REPLAY DIVERGED: "
                f"{report.trace_digest[:16]} != {replay.trace_digest[:16]}",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(
            f"replay check ok: digest {report.trace_digest[:16]} reproduced",
            file=sys.stderr,
        )
    if args.bench_out:
        path = export_serve_bench(
            args.bench_out, args.bench_name, report, baseline=baseline
        )
        print(f"wrote BENCH artifact to {path}", file=sys.stderr)
    if args.json:
        payload = report.to_dict()
        if baseline is not None:
            payload["baseline"] = baseline.to_dict()
            payload["cache_speedup"] = round(speedup, 4)
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary_line())
        if baseline is not None:
            print(baseline.summary_line())
            print(f"result-cache speedup: {speedup:.2f}x (virtual throughput)")
    if report.untyped_failures:
        for line in report.untyped_failures:
            print(f"  UNTYPED FAILURE: {line}", file=sys.stderr)
        raise SystemExit(1)
    if report.oracle_mismatches:
        print(
            f"  ORACLE MISMATCHES: {report.oracle_mismatches}", file=sys.stderr
        )
        raise SystemExit(1)


def _cmd_parallel(args: argparse.Namespace) -> None:
    from repro.parallel import parallel_hash_division
    from repro.workloads.synthetic import make_exact_division

    dividend, divisor = make_exact_division(
        args.divisor, args.quotient, seed=args.seed
    )
    result = parallel_hash_division(
        dividend,
        divisor,
        args.processors,
        strategy=args.strategy,
        bit_vector_bits=args.bitvector,
    )
    print(result)
    print(f"  elapsed:      {result.elapsed_ms:,.1f} model ms")
    print(f"  total work:   {result.total_work_ms:,.1f} model ms")
    print(f"  network:      {result.network.total_bytes:,} bytes")
    print(f"  shipped:      {result.dividend_tuples_shipped:,} dividend tuples")
    print(f"  filtered:     {result.dividend_tuples_filtered:,} dividend tuples")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Relational division: four algorithms and their performance "
        "(reproduction CLI).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("figure2", help="run the worked example").set_defaults(
        handler=_cmd_figure2
    )
    from repro.plan.physical import STRATEGIES as _STRATEGIES

    trace_parser = commands.add_parser(
        "trace",
        help="narrate the worked example, or record/summarize/export "
        "page-level I/O event traces (repro.obs.iotrace)",
        description="Without a sub-command: narrate hash-division on the "
        "Figure 2 worked example, step by step.  With a sub-command: "
        "record every physical page transfer of one strategy run into "
        "the bounded I/O event log, verify the Table 3 cost model "
        "conserves (replayed per-event cost == reported aggregate cost), "
        "and export the events as JSONL or Chrome trace_event JSON.",
    )
    trace_parser.set_defaults(handler=_cmd_trace)
    trace_sub = trace_parser.add_subparsers(dest="trace_cmd")

    def _add_trace_workload_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--strategy",
            choices=_STRATEGIES,
            default="hash-division",
            help="division strategy to trace (default: hash-division)",
        )
        sub.add_argument(
            "--workload",
            choices=("figure2", "synthetic"),
            default="synthetic",
            help="the paper's worked example, or an R = Q x S workload",
        )
        sub.add_argument(
            "--divisor", type=int, default=25, help="|S| for --workload synthetic"
        )
        sub.add_argument(
            "--quotient", type=int, default=25, help="|Q| for --workload synthetic"
        )
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--capacity",
            type=int,
            default=1 << 16,
            help="event ring-buffer capacity (drops invalidate conservation)",
        )

    record_parser = trace_sub.add_parser(
        "record",
        help="run one strategy, print the I/O trace summary and the "
        "conservation/attribution verdicts",
    )
    _add_trace_workload_args(record_parser)
    record_parser.add_argument(
        "--top", type=int, default=5, help="seek offenders to list (default: 5)"
    )
    record_parser.add_argument(
        "--jsonl", metavar="PATH", help="also write the events as JSONL"
    )
    record_parser.add_argument(
        "--chrome", metavar="PATH", help="also write a Chrome trace_event file"
    )

    summarize_parser = trace_sub.add_parser(
        "summarize", help="summarize a previously recorded JSONL event file"
    )
    summarize_parser.add_argument("file", help="JSONL file from `trace record --jsonl`")
    summarize_parser.add_argument(
        "--top", type=int, default=5, help="seek offenders to list (default: 5)"
    )

    export_parser = trace_sub.add_parser(
        "export",
        help="run one strategy and write its event trace to a file",
    )
    _add_trace_workload_args(export_parser)
    export_parser.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="Chrome trace_event JSON (chrome://tracing / Perfetto) or JSONL",
    )
    export_parser.add_argument("--out", required=True, metavar="PATH")
    commands.add_parser("table1", help="print the cost units").set_defaults(
        handler=_cmd_table1
    )
    commands.add_parser(
        "table2", help="recompute the analytical comparison"
    ).set_defaults(handler=_cmd_table2)
    commands.add_parser("table3", help="print the I/O weights").set_defaults(
        handler=_cmd_table3
    )

    table4_parser = commands.add_parser(
        "table4", help="run the experimental comparison"
    )
    table4_parser.add_argument(
        "--sizes",
        help="comma-separated |S|x|Q| points, e.g. 25x25,100x100 "
        "(default: the paper's nine points)",
    )
    table4_parser.add_argument(
        "--profile",
        action="store_true",
        help="run each strategy under the tracer and print its "
        "EXPLAIN ANALYZE operator tree",
    )
    table4_parser.set_defaults(handler=_cmd_table4)

    profile_parser = commands.add_parser(
        "profile",
        help="EXPLAIN ANALYZE one division strategy (repro.obs)",
        description="Run one division strategy over cold stored relations "
        "under the tracer and render the per-operator profile: rows, "
        "protocol calls, Comp/Hash/Move/Bit deltas, buffer and I/O activity, "
        "and Table 1/Table 3 model milliseconds.",
    )
    from repro.plan.physical import STRATEGIES

    profile_parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="hash-division",
        help="division strategy to profile (default: hash-division)",
    )
    profile_parser.add_argument(
        "--workload",
        choices=("figure2", "synthetic"),
        default="figure2",
        help="the paper's worked example, or an R = Q x S workload",
    )
    profile_parser.add_argument(
        "--divisor", type=int, default=25, help="|S| for --workload synthetic"
    )
    profile_parser.add_argument(
        "--quotient", type=int, default=25, help="|Q| for --workload synthetic"
    )
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument(
        "--format",
        choices=("tree", "json", "prom"),
        default="tree",
        help="profile tree, JSON document, or Prometheus text metrics",
    )
    profile_parser.set_defaults(handler=_cmd_profile)

    explain_parser = commands.add_parser(
        "explain",
        help="render the compiled physical plan of a contains query "
        "(no execution)",
        description="Build one of the paper's example queries as a "
        "Query ... contains pipeline, compile it through the planner "
        "(the cost advisor picks the division operator at plan time), "
        "and print the decision plus the physical operator tree -- "
        "without executing the plan.",
    )
    explain_parser.add_argument(
        "--scenario",
        choices=EXPLAIN_SCENARIOS,
        default="second-example",
        help="figure2: the worked example; first-example: all courses "
        "(unrestricted divisor); second-example: all *database* courses "
        "(restricted divisor); synthetic: an R = Q x S workload "
        "(default: second-example)",
    )
    explain_parser.add_argument(
        "--students", type=int, default=40, help="university students"
    )
    explain_parser.add_argument(
        "--courses", type=int, default=12, help="university courses"
    )
    explain_parser.add_argument(
        "--divisor", type=int, default=25, help="|S| for --scenario synthetic"
    )
    explain_parser.add_argument(
        "--quotient", type=int, default=25, help="|Q| for --scenario synthetic"
    )
    explain_parser.add_argument("--seed", type=int, default=0)
    explain_parser.set_defaults(handler=_cmd_explain)

    advisor_parser = commands.add_parser(
        "advisor", help="rank strategies for given input estimates"
    )
    advisor_parser.add_argument("--dividend", type=int, required=True)
    advisor_parser.add_argument("--divisor", type=int, required=True)
    advisor_parser.add_argument("--quotient", type=int, default=0)
    advisor_parser.add_argument("--restricted", action="store_true")
    advisor_parser.add_argument("--duplicates", action="store_true")
    advisor_parser.set_defaults(handler=_cmd_advisor)

    chaos_parser = commands.add_parser(
        "chaos",
        help="run a deterministic fault-injection campaign (repro.faults)",
        description="Replay a seeded chaos campaign: each query runs the "
        "full planner -> executor path over cold stored relations on "
        "fault-injected devices, and must either return the oracle-equal "
        "answer or raise a typed ReproError -- with no fixed buffer "
        "frames, no live memory-pool bytes, no surviving temp/run pages, "
        "and exact Table 3 cost-meter conservation afterwards.  The same "
        "seed replays the same campaign byte-for-byte; exits 1 if any "
        "invariant is violated.",
    )
    chaos_parser.add_argument(
        "--scenario",
        choices=("query", "serve"),
        default="query",
        help="query: one division at a time through the planner path "
        "(the original campaign); serve: concurrent clients, caches, "
        "admission, and updates through repro.serve under the same "
        "fault programmes (default: query)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    chaos_parser.add_argument(
        "--queries", type=int, default=30, help="queries to run (default: 30)"
    )
    chaos_parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="service rounds for --scenario serve (default: 5)",
    )
    chaos_parser.add_argument(
        "--divisor", type=int, default=8, help="|S| per query (default: 8)"
    )
    chaos_parser.add_argument(
        "--quotient", type=int, default=32, help="|Q| per query (default: 32)"
    )
    chaos_parser.add_argument(
        "--memory-budget",
        type=int,
        default=None,
        help="fixed memory budget in bytes (default: drawn per run, "
        "including overflow-inducing choices)",
    )
    chaos_parser.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-clock cap: truncate the campaign after this many "
        "seconds (never changes what any individual run does)",
    )
    chaos_parser.add_argument(
        "--schedule-out",
        metavar="PATH",
        help="write the campaign's fault schedule as JSONL "
        "(byte-identical across replays of the same seed)",
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    chaos_parser.set_defaults(handler=_cmd_chaos)

    parallel_parser = commands.add_parser(
        "parallel", help="simulate shared-nothing hash-division"
    )
    parallel_parser.add_argument("--processors", type=int, default=8)
    parallel_parser.add_argument(
        "--strategy", choices=("quotient", "divisor"), default="quotient"
    )
    parallel_parser.add_argument("--divisor", type=int, default=100)
    parallel_parser.add_argument("--quotient", type=int, default=400)
    parallel_parser.add_argument("--bitvector", type=int, default=None)
    parallel_parser.add_argument(
        "--seed", type=int, default=0, help="workload seed (default: 0)"
    )
    parallel_parser.set_defaults(handler=_cmd_parallel)

    serve_parser = commands.add_parser(
        "serve",
        help="run the concurrent-serving load harness (repro.serve)",
        description="Drive N simulated clients through the deterministic "
        "query service: Zipf-skewed division mixes with optional catalog "
        "updates, admission control against the memory budget, and "
        "version-invalidated plan/result caches.  All reported times are "
        "virtual model milliseconds, so one seed reproduces one run "
        "byte-for-byte (--replay-check proves it).  Exits 1 on any "
        "untyped failure or serial-order-oracle mismatch.",
    )
    serve_parser.add_argument(
        "--clients", type=int, default=4, help="simulated clients (default: 4)"
    )
    serve_parser.add_argument(
        "--requests",
        type=int,
        default=8,
        help="requests per client (default: 8)",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="harness seed (default: 0)"
    )
    serve_parser.add_argument(
        "--skew",
        type=float,
        default=1.0,
        help="Zipf exponent over table popularity (0 = uniform; default: 1)",
    )
    serve_parser.add_argument(
        "--tables", type=int, default=4, help="stored table pairs (default: 4)"
    )
    serve_parser.add_argument(
        "--divisor", type=int, default=4, help="|S| per pair (default: 4)"
    )
    serve_parser.add_argument(
        "--quotient", type=int, default=16, help="|Q| per pair (default: 16)"
    )
    serve_parser.add_argument(
        "--update-fraction",
        type=float,
        default=0.0,
        help="probability a request is an insert (default: 0)",
    )
    serve_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline in model ms (default: none)",
    )
    serve_parser.add_argument(
        "--memory-budget",
        type=int,
        default=1 << 20,
        help="admission capacity in bytes (default: 1 MiB)",
    )
    serve_parser.add_argument(
        "--no-plan-cache", action="store_true", help="disable the plan cache"
    )
    serve_parser.add_argument(
        "--no-result-cache",
        action="store_true",
        help="disable the result cache",
    )
    serve_parser.add_argument(
        "--tiny-pages",
        action="store_true",
        help="use the 512-byte smoke storage configuration",
    )
    serve_parser.add_argument(
        "--faults",
        action="store_true",
        help="attach a seeded fault programme after the fault-free load",
    )
    serve_parser.add_argument(
        "--fault-seed", type=int, default=0, help="fault schedule seed"
    )
    serve_parser.add_argument(
        "--compare",
        action="store_true",
        help="also run with caches off and report the throughput speedup",
    )
    serve_parser.add_argument(
        "--replay-check",
        action="store_true",
        help="run twice and fail unless the interleaving digest and full "
        "report reproduce byte-for-byte",
    )
    serve_parser.add_argument(
        "--bench-out",
        metavar="DIR",
        help="write a schema-v4 BENCH_<name>.json artifact here",
    )
    serve_parser.add_argument(
        "--bench-name",
        default="serve_load",
        help="BENCH artifact name (default: serve_load)",
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    A closed output pipe (``repro table4 | head``) is a normal way for
    a consumer to stop reading, not a crash: the handler's
    ``BrokenPipeError`` is swallowed, stdout is redirected to devnull
    so the interpreter's exit-time flush cannot raise again, and the
    conventional ``128 + SIGPIPE`` exit code is returned.

    Every typed :class:`~repro.errors.ReproError` that escapes a
    handler is reported like an argument error: one ``repro: error:``
    line on stderr and exit status 2, with no traceback.  Most are bad
    option values the library rejects, such as ``--clients 0``, but
    runtime invariant failures (a service that drains dirty, a
    scheduler deadlock) take the same path; only untyped exceptions
    keep their traceback.  Checks with their own exit code (``chaos``,
    ``serve --replay-check``) raise ``SystemExit``, which passes through.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # pragma: no cover - capture objects
            pass
        return 128 + 13  # SIGPIPE
    return 0
