"""Exporters: Prometheus text, JSON, and the BENCH_*.json trajectory."""

import json

import pytest

# Note: ``bench_*`` names are aliased on import -- this repository's
# pytest config collects ``bench_*`` functions as benchmarks.
from repro.obs.export import (
    BENCH_SCHEMA_VERSION,
    bench_path as make_bench_path,
    bench_payload as make_bench_payload,
    load_bench_json,
    profile_to_json,
    render_prometheus,
    validate_bench_payload,
    write_bench_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer


class TestPrometheus:
    def test_counter_gauge_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", strategy="naive").inc(3)
        registry.gauge("repro_level").set(0.5)
        text = render_prometheus(registry)
        assert "# TYPE repro_things_total counter" in text
        assert 'repro_things_total{strategy="naive"} 3' in text
        assert "# TYPE repro_level gauge" in text
        assert "repro_level 0.5" in text
        assert text.endswith("\n")

    def test_histogram_rendering(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_latency_ms", boundaries=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry)
        assert 'repro_latency_ms_bucket{le="1"} 1' in text
        assert 'repro_latency_ms_bucket{le="10"} 2' in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 2' in text
        assert "repro_latency_ms_sum 5.5" in text
        assert "repro_latency_ms_count 2" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_odd_total", note='say "hi"\nok').inc()
        text = render_prometheus(registry)
        assert r'note="say \"hi\"\nok"' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_type_line_emitted_once_per_family(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", a="1").inc()
        registry.counter("repro_things_total", a="2").inc()
        text = render_prometheus(registry)
        assert text.count("# TYPE repro_things_total counter") == 1


class TestJson:
    def test_profile_to_json_is_valid_json(self):
        from repro.experiments.runner import run_strategy_on_relations
        from repro.workloads.university import figure2_courses, figure2_transcript

        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=Tracer(),
        )
        payload = json.loads(profile_to_json(run.profile))
        assert payload["operators"][0]["operator"] == "HashDivision"
        assert payload["totals"]["cpu"]["hashes"] > 0


class TestBenchExport:
    def test_write_then_load_round_trip(self, tmp_path):
        path = write_bench_json(
            tmp_path,
            "table4_point",
            {"total_model_ms": 68.591},
            extra={"size_point": "25x25"},
            created_unix=1_700_000_000.0,
        )
        assert path == make_bench_path(tmp_path, "table4_point")
        assert path.name == "BENCH_table4_point.json"
        payload = load_bench_json(path)
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["metrics"] == {"total_model_ms": 68.591}
        assert payload["extra"] == {"size_point": "25x25"}
        assert payload["created_unix"] == 1_700_000_000.0
        assert "python" in payload["environment"]

    def test_payload_can_embed_a_profile(self, tmp_path):
        from repro.experiments.runner import run_strategy_on_relations
        from repro.workloads.university import figure2_courses, figure2_transcript

        run = run_strategy_on_relations(
            "hash-division",
            figure2_transcript(),
            figure2_courses(),
            expected_quotient=1,
            tracer=Tracer(),
        )
        path = write_bench_json(
            tmp_path, "fig2", {"total_model_ms": run.total_ms}, profile=run.profile
        )
        payload = load_bench_json(path)
        assert payload["profile"]["operators"][0]["operator"] == "HashDivision"

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda p: p.__setitem__("schema_version", 99), "schema_version"),
            (lambda p: p.__setitem__("name", "bad name!"), "name"),
            (lambda p: p.__setitem__("created_unix", "yesterday"), "created_unix"),
            (lambda p: p.__setitem__("metrics", {}), "metrics"),
            (lambda p: p.__setitem__("metrics", {"x": "fast"}), "x"),
            (lambda p: p.__setitem__("metrics", {"x": True}), "x"),
            (lambda p: p.__setitem__("profile", []), "profile"),
        ],
    )
    def test_validation_rejects_bad_payloads(self, mutate, message):
        payload = make_bench_payload("ok", {"ms": 1.0}, created_unix=0.0)
        mutate(payload)
        with pytest.raises(ValueError, match=message):
            validate_bench_payload(payload)

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "BENCH_broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_bench_json(path)

    def test_bad_name_rejected_at_build_time(self):
        with pytest.raises(ValueError):
            make_bench_payload("no spaces allowed", {"ms": 1.0})

    def test_export_bench_fixture_writes_under_results(self):
        """The benchmark suite's conftest fixture targets
        ``benchmarks/results`` and produces a loadable artifact."""
        import importlib.util
        from pathlib import Path

        conftest = Path(__file__).resolve().parents[2] / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", conftest)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.RESULTS_DIR.name == "results"


class TestServeBlock:
    """Schema v4: the optional top-level ``serve`` block."""

    @staticmethod
    def serve_block(**overrides):
        block = {
            "clients": 2,
            "requests": 4,
            "latency_ms": {"p50": 1.0, "p95": 2.0, "p99": 2.0},
            "trace_digest": "ab" * 32,
        }
        block.update(overrides)
        return block

    def test_serve_block_round_trips(self, tmp_path):
        path = write_bench_json(
            tmp_path, "with_serve", {"ms": 1.0}, serve=self.serve_block()
        )
        payload = load_bench_json(path)
        assert payload["schema_version"] == 4
        assert payload["serve"]["clients"] == 2

    def test_payload_without_serve_block_is_still_valid(self):
        payload = make_bench_payload("plain", {"ms": 1.0}, created_unix=0.0)
        assert "serve" not in payload
        validate_bench_payload(payload)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("not a dict", "serve"),
            ({"clients": 2}, "serve"),  # missing required keys
            ({"clients": 2, "requests": 4, "latency_ms": "fast",
              "trace_digest": "x" * 64}, "latency_ms"),
            ({"clients": 2, "requests": 4, "latency_ms": {},
              "trace_digest": ""}, "trace_digest"),
        ],
    )
    def test_malformed_serve_block_rejected(self, bad, message):
        payload = make_bench_payload("badserve", {"ms": 1.0}, created_unix=0.0)
        payload["serve"] = bad
        with pytest.raises(ValueError, match=message):
            validate_bench_payload(payload)

    def test_v3_payload_without_serve_still_loads(self, tmp_path):
        """Trajectory back-compat: v3 artifacts predate serving."""
        legacy = make_bench_payload("v3legacy", {"ms": 2.0}, created_unix=0.0)
        legacy["schema_version"] = 3
        path = tmp_path / "BENCH_v3legacy.json"
        path.write_text(json.dumps(legacy))
        payload = load_bench_json(path)
        assert payload["schema_version"] == 3
        assert "serve" not in payload


class TestProvenance:
    def test_payloads_carry_a_provenance_block(self):
        payload = make_bench_payload("prov", {"ms": 1.0}, created_unix=0.0)
        provenance = payload["provenance"]
        assert payload["schema_version"] == 4
        assert provenance["page_size"] == 8 * 1024
        assert provenance["sort_run_page_size"] == 1 * 1024
        assert provenance["buffer_size"] == 256 * 1024
        assert provenance["sort_buffer_size"] == 100 * 1024
        # The Table 3 weights travel with every measurement.
        weights = provenance["io_weights"]
        assert weights["seek_ms"] == 20.0
        assert weights["latency_ms_per_transfer"] == 8.0
        assert "git_commit" in provenance  # str or None, never absent

    def test_provenance_reflects_a_custom_config(self):
        from repro.obs.export import provenance_info
        from repro.storage.config import KIB, StorageConfig

        info = provenance_info(StorageConfig(page_size=2 * KIB))
        assert info["page_size"] == 2 * KIB

    def test_provenance_override_is_deterministic(self):
        stamp = {"git_commit": "cafebabe", "note": "pinned"}
        payload = make_bench_payload(
            "prov", {"ms": 1.0}, created_unix=0.0, provenance=stamp
        )
        assert payload["provenance"] == stamp
        assert payload["provenance"] is not stamp  # defensive copy

    def test_fault_injection_defaults_to_disabled(self):
        """v3: every ordinary benchmark states faults were OFF."""
        payload = make_bench_payload("prov", {"ms": 1.0}, created_unix=0.0)
        assert payload["provenance"]["fault_injection"] == {"enabled": False}

    def test_fault_injection_summary_travels_in_provenance(self):
        from repro.faults import FaultInjector, FaultRule
        from repro.obs.export import provenance_info

        injector = FaultInjector(
            [FaultRule("transient", op="read", probability=1.0)], seed=9
        )
        info = provenance_info(fault_injection=injector.summary())
        block = info["fault_injection"]
        assert block["enabled"] is True
        assert block["seed"] == 9
        assert block["rules"][0]["kind"] == "transient"
        payload = make_bench_payload(
            "chaos", {"ms": 1.0}, created_unix=0.0, provenance=info
        )
        assert payload["provenance"]["fault_injection"]["seed"] == 9

    def test_v2_payload_without_fault_injection_still_loads(self, tmp_path):
        """Trajectory back-compat: v2 artifacts predate fault_injection."""
        import json as json_mod

        legacy = make_bench_payload("v2legacy", {"ms": 2.0}, created_unix=0.0)
        legacy["schema_version"] = 2
        del legacy["provenance"]["fault_injection"]
        path = tmp_path / "BENCH_v2legacy.json"
        path.write_text(json_mod.dumps(legacy))
        payload = load_bench_json(path)
        assert payload["schema_version"] == 2
        assert "fault_injection" not in payload["provenance"]

    def test_malformed_fault_injection_rejected(self):
        payload = make_bench_payload("badfi", {"ms": 1.0}, created_unix=0.0)
        payload["provenance"]["fault_injection"] = "yes"
        with pytest.raises(ValueError, match="fault_injection"):
            validate_bench_payload(payload)

    def test_v1_payload_without_provenance_still_loads(self, tmp_path):
        """Trajectory back-compat: v1 artifacts predate provenance."""
        import json as json_mod

        legacy = make_bench_payload("legacy", {"ms": 2.0}, created_unix=0.0)
        legacy["schema_version"] = 1
        del legacy["provenance"]
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json_mod.dumps(legacy))
        payload = load_bench_json(path)
        assert payload["schema_version"] == 1
        assert "provenance" not in payload

    def test_v2_payload_requires_provenance(self):
        payload = make_bench_payload("strict", {"ms": 1.0}, created_unix=0.0)
        del payload["provenance"]
        with pytest.raises(ValueError, match="provenance"):
            validate_bench_payload(payload)

    def test_v1_with_malformed_provenance_rejected(self):
        payload = make_bench_payload("mixed", {"ms": 1.0}, created_unix=0.0)
        payload["schema_version"] = 1
        payload["provenance"] = "8KiB pages"
        with pytest.raises(ValueError, match="provenance"):
            validate_bench_payload(payload)

    def test_git_commit_is_resolved_in_this_checkout(self):
        """The repo under test *is* a git checkout, so the best-effort
        lookup should succeed here and give a 40-hex commit."""
        from repro.obs.export import _git_commit

        commit = _git_commit()
        assert commit is None or (
            len(commit) == 40 and all(c in "0123456789abcdef" for c in commit)
        )
