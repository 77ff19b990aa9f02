"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import _division_inputs, build_parser, main

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_seed_is_a_subcommand_option_only(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--seed", "7", "table4"])
        assert build_parser().parse_args(["serve", "--seed", "7"]).seed == 7


class TestCommands:
    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Ann" in out and "Quotient" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "RIO" in out and "Bit" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "worst deviation" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "Physical seek" in capsys.readouterr().out

    def test_table4_single_point(self, capsys):
        assert main(["table4", "--sizes", "25x25"]) == 0
        out = capsys.readouterr().out
        assert "hash-division" in out and "measured" in out

    def test_table4_smallest_point_matches_the_pinned_output(self, capsys):
        """Records per page drive every metered cost: a change to the
        page layout (or any other cost path) moves these numbers."""
        assert main(["table4", "--sizes", "25x25"]) == 0
        pinned = (RESULTS / "table4_smallest_point.txt").read_text()
        assert capsys.readouterr().out == pinned

    def test_advisor(self, capsys):
        assert main([
            "advisor", "--dividend", "10000", "--divisor", "100",
            "--restricted",
        ]) == 0
        out = capsys.readouterr().out
        assert "hash-division" in out
        assert "no join" not in out  # excluded by --restricted

    def test_advisor_with_duplicates(self, capsys):
        assert main([
            "advisor", "--dividend", "10000", "--divisor", "100",
            "--duplicates",
        ]) == 0
        assert "duplicate" in capsys.readouterr().out

    def test_parallel(self, capsys):
        assert main([
            "parallel", "--processors", "4", "--divisor", "20",
            "--quotient", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out and "network" in out

    def test_parallel_with_bitvector(self, capsys):
        assert main([
            "parallel", "--processors", "4", "--divisor", "20",
            "--quotient", "50", "--bitvector", "1024",
        ]) == 0
        assert "filtered" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_narrates_figure2(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "assign-divisor-number" in out
        assert "('Ann',)" in out

    def test_bad_sizes_rejected(self):
        with pytest.raises(SystemExit):
            main(["table4", "--sizes", "25by25"])


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            "figure2", "trace", "table1", "table2", "table3", "table4",
            "profile", "advisor", "parallel", "explain", "chaos", "serve",
        ],
    )
    def test_every_subcommand_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_module_entry_point_smoke(self):
        """``python -m repro`` is runnable end to end in a subprocess."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
        )
        assert completed.returncode == 0
        assert completed.stdout.startswith("repro ")


class TestExplainCommand:
    """`repro explain` renders the compiled plan without executing."""

    def test_default_scenario_is_second_example(self, capsys):
        assert main(["explain"]) == 0
        out = capsys.readouterr().out
        assert "relational division via" in out
        assert "(restricted)" in out  # the 'database' title filter
        assert "physical plan:" in out

    def test_figure2_scenario(self, capsys):
        assert main(["explain", "--scenario", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "relational division via" in out
        assert "RelationSource" in out

    def test_synthetic_scenario_sizes(self, capsys):
        assert main([
            "explain", "--scenario", "synthetic",
            "--divisor", "25", "--quotient", "100",
        ]) == 0
        out = capsys.readouterr().out
        assert "relational division via" in out
        assert "~2500 tuples" in out  # dividend = |S| x |Q|

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "--scenario", "nonsense"])


class TestProfileCommand:
    def test_profile_figure2_tree(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "HashDivision" in out
        assert "StoredRelationScan" in out

    def test_profile_synthetic_strategy(self, capsys):
        assert main([
            "profile", "--workload", "synthetic", "--divisor", "5",
            "--quotient", "5", "--strategy", "sort-agg no join",
        ]) == 0
        out = capsys.readouterr().out
        assert "sort-agg no join" in out and "ExternalSort" in out

    def test_profile_json_format(self, capsys):
        import json

        assert main(["profile", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operators"][0]["operator"] == "HashDivision"

    def test_profile_prom_format(self, capsys):
        assert main(["profile", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cpu_hashes_total counter" in out
        assert "repro_run_io_model_ms" in out

    def test_table4_profile_flag(self, capsys):
        assert main(["table4", "--sizes", "10x10", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "-- profile:" in out
        assert "EXPLAIN ANALYZE" in out


class TestDivisionInputs:
    def test_figure2_workload(self):
        from repro.workloads.university import figure2_courses, figure2_transcript

        args = build_parser().parse_args(["profile", "--workload", "figure2"])
        dividend, divisor, expected = _division_inputs(args)
        assert dividend.rows == figure2_transcript().rows
        assert divisor.rows == figure2_courses().rows
        assert expected == 1

    def test_synthetic_workload_uses_sizes_and_seed(self):
        from repro.workloads.synthetic import make_exact_division

        args = build_parser().parse_args(
            ["trace", "record", "--divisor", "4", "--quotient", "6"]
        )
        dividend, divisor, expected = _division_inputs(args)
        want_dividend, want_divisor = make_exact_division(4, 6, seed=args.seed)
        assert dividend.rows == want_dividend.rows
        assert divisor.rows == want_divisor.rows
        assert expected == 6


class TestBrokenPipe:
    def test_broken_pipe_returns_sigpipe_code(self, monkeypatch):
        import repro.cli as cli

        # Stub the os module used by the handler so the test never
        # redirects a real file descriptor (pytest's capture owns it).
        class FakeOs:
            devnull = "/dev/null"
            O_WRONLY = 1
            dup2_calls: list = []

            @staticmethod
            def open(path, flags):
                return 99

            @classmethod
            def dup2(cls, src, dst):
                cls.dup2_calls.append((src, dst))

        monkeypatch.setattr(cli, "os", FakeOs)

        def explode(_args):
            raise BrokenPipeError

        args = type("Args", (), {"handler": staticmethod(explode)})()
        parser = type(
            "Parser", (), {"parse_args": staticmethod(lambda argv=None: args)}
        )()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        assert cli.main(["figure2"]) == 128 + 13
        assert FakeOs.dup2_calls  # stdout was redirected to devnull


class TestTraceSubcommands:
    def test_record_prints_summary_and_verdicts(self, capsys):
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--strategy",
                    "hash-division",
                    "--divisor",
                    "10",
                    "--quotient",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "division: hash-division" in out
        assert "conservation OK" in out
        assert "attribution OK" in out
        assert "I/O trace:" in out

    def test_record_figure2_workload(self, capsys):
        assert main(["trace", "record", "--workload", "figure2"]) == 0
        out = capsys.readouterr().out
        assert "conservation OK" in out

    def test_record_writes_jsonl_and_chrome(self, tmp_path, capsys):
        import json

        jsonl = tmp_path / "events.jsonl"
        chrome = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--divisor",
                    "5",
                    "--quotient",
                    "5",
                    "--jsonl",
                    str(jsonl),
                    "--chrome",
                    str(chrome),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"wrote Chrome trace to {chrome}" in out
        lines = jsonl.read_text().splitlines()
        assert lines and all(json.loads(line)["device"] for line in lines)
        payload = json.loads(chrome.read_text())
        assert any(event["ph"] == "X" for event in payload["traceEvents"])

    def test_summarize_round_trips_jsonl(self, tmp_path, capsys):
        jsonl = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "trace",
                    "record",
                    "--divisor",
                    "5",
                    "--quotient",
                    "5",
                    "--jsonl",
                    str(jsonl),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "I/O trace:" in out
        assert "data" in out  # per-device table names the data device

    def test_export_writes_chrome_trace(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "division.trace.json"
        assert (
            main(
                [
                    "trace",
                    "export",
                    "--strategy",
                    "naive",
                    "--divisor",
                    "5",
                    "--quotient",
                    "5",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "naive" in out and str(out_file) in out
        payload = json.loads(out_file.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_export_jsonl_format(self, tmp_path, capsys):
        out_file = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "trace",
                    "export",
                    "--format",
                    "jsonl",
                    "--divisor",
                    "5",
                    "--quotient",
                    "5",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.obs import read_jsonl

        events = read_jsonl(str(out_file))
        assert events and events[0].device


class TestServeCommand:
    """`repro serve`: the load harness behind one flag surface."""

    SMALL = [
        "serve", "--clients", "2", "--requests", "2",
        "--tables", "2", "--divisor", "3", "--quotient", "6",
    ]

    def test_summary_output(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "serve seed 0" in out
        assert "digest" in out

    def test_json_output_carries_the_replay_witness(self, capsys):
        import json as json_mod

        assert main(self.SMALL + ["--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["requests"] == 4
        assert len(payload["trace_digest"]) == 64
        assert payload["untyped_failures"] == []

    def test_replay_check_passes(self, capsys):
        assert main(self.SMALL + ["--replay-check"]) == 0
        assert "replay check ok" in capsys.readouterr().err

    def test_compare_reports_the_speedup(self, capsys):
        assert (
            main(
                [
                    "serve", "--clients", "3", "--requests", "6",
                    "--tables", "2", "--divisor", "3", "--quotient", "8",
                    "--skew", "1.2", "--compare",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "result-cache speedup" in out

    def test_faulted_smoke_run_exits_clean(self, capsys, tmp_path):
        assert (
            main(
                self.SMALL
                + [
                    "--tiny-pages", "--faults", "--fault-seed", "3",
                    "--bench-out", str(tmp_path), "--bench-name", "smoke",
                ]
            )
            == 0
        )
        capsys.readouterr()
        from repro.obs.export import load_bench_json

        payload = load_bench_json(tmp_path / "BENCH_smoke.json")
        assert payload["schema_version"] == 4
        assert payload["serve"]["untyped_failures"] == []

    def test_seed_flag_reaches_the_report(self, capsys):
        import json as json_mod

        assert main(self.SMALL + ["--seed", "9", "--json"]) == 0
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["seed"] == 9


class TestChaosServeScenario:
    def test_serve_scenario_runs_clean(self, capsys):
        assert main(["chaos", "--scenario", "serve", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "serve chaos" in out
        assert "OK" in out

    def test_serve_scenario_json(self, capsys):
        import json as json_mod

        assert (
            main(["chaos", "--scenario", "serve", "--rounds", "2", "--json"])
            == 0
        )
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["scenario"] == "serve"
        assert payload["ok"] is True


class TestTypedErrors:
    """A library error from a handler is one ``repro: error:`` line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table4", "--sizes", "0x5"], "empty divisor"),
            (["serve", "--clients", "0"], "clients must be positive"),
            (["parallel", "--processors", "0"], "processors must be positive"),
        ],
        ids=["table4", "serve", "parallel"],
    )
    def test_reported_as_one_line_with_status_2(self, capsys, argv, message):
        assert main(argv) == 2
        err_lines = capsys.readouterr().err.splitlines()
        errors = [line for line in err_lines if line.startswith("repro: error: ")]
        assert len(errors) == 1 and message in errors[0]
        assert not any("Traceback" in line for line in err_lines)

    def test_process_exit_status_is_2(self):
        import os
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--clients", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr == "repro: error: clients must be positive\n"

    def test_untyped_errors_still_propagate(self, monkeypatch):
        """Only typed errors are user errors; a bug keeps its traceback."""
        import repro.cli as cli

        def broken(args):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "_cmd_table3", broken)
        with pytest.raises(RuntimeError, match="bug"):
            main(["table3"])
