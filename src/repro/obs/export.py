"""Machine-readable exports: JSON, Prometheus text, ``BENCH_*.json``.

Three consumers:

* humans and dashboards -- :func:`render_prometheus` emits the
  registry in the Prometheus text exposition format,
* scripts -- :func:`profile_to_json` / ``MetricsRegistry.to_dict`` give
  plain JSON,
* the perf trajectory -- :func:`write_bench_json` writes one
  ``BENCH_<name>.json`` per benchmark under ``benchmarks/results/``
  (wired through ``benchmarks/conftest.py``), and
  :func:`load_bench_json` validates it on the way back in, so CI can
  assert every run leaves a well-formed, comparable artifact.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import QueryProfile

#: Version stamp of the BENCH payload layout; bump on breaking change.
#: v2 added the ``provenance`` block (git commit, storage parameters,
#: Table 3 I/O weights) so a stored trajectory point records *which*
#: code and which physical configuration produced it.  v3 adds a
#: ``fault_injection`` entry inside provenance (``{"enabled": False}``
#: for ordinary benchmarks; the injector's summary -- seed, rules, fire
#: counts -- when a run was measured under faults), so a trajectory
#: point can never silently mix faulty and fault-free measurements.
#: v4 adds an optional top-level ``serve`` block carrying the
#: concurrent-serving harness's results (client/request counts, virtual
#: latency percentiles, throughput, cache hit ratios, admission stats,
#: and the scheduler's interleaving ``trace_digest`` -- the replay
#: determinism witness CI compares across two runs of one seed).
BENCH_SCHEMA_VERSION = 4

#: Schema versions :func:`load_bench_json` accepts; old v1 artifacts
#: (no provenance block), v2 artifacts (no fault_injection entry), and
#: v3 artifacts (no serve block) remain loadable and comparable.
ACCEPTED_BENCH_SCHEMA_VERSIONS = (1, 2, 3, 4)

#: File-name prefix of benchmark export artifacts.
BENCH_PREFIX = "BENCH_"

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


# -- Prometheus text format --------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_text(labels, extra: tuple = ()) -> str:
    items = tuple(labels) + tuple(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{_escape_label(str(val))}"' for key, val in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    seen_type: set[str] = set()
    for sample in registry.collect():
        if sample.name not in seen_type:
            seen_type.add(sample.name)
            lines.append(f"# TYPE {sample.name} {sample.kind}")
        if isinstance(sample.metric, Histogram):
            for bound, cumulative in sample.metric.buckets():
                le = "+Inf" if bound == float("inf") else _format_value(bound)
                lines.append(
                    f"{sample.name}_bucket"
                    f"{_label_text(sample.labels, (('le', le),))} {cumulative}"
                )
            lines.append(
                f"{sample.name}_sum{_label_text(sample.labels)} "
                f"{_format_value(sample.metric.sum)}"
            )
            lines.append(
                f"{sample.name}_count{_label_text(sample.labels)} "
                f"{sample.metric.count}"
            )
        else:
            lines.append(
                f"{sample.name}{_label_text(sample.labels)} "
                f"{_format_value(sample.metric.value)}"  # type: ignore[union-attr]
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- JSON --------------------------------------------------------------


def profile_to_json(profile: QueryProfile, indent: int = 2) -> str:
    """A :class:`~repro.obs.profile.QueryProfile` as a JSON document."""
    return json.dumps(profile.to_dict(), indent=indent, sort_keys=True)


# -- BENCH_*.json ------------------------------------------------------


def _git_commit() -> str | None:
    """Best-effort current git commit hash, or ``None``.

    Never raises: benchmark export must work from a tarball checkout
    or an environment without ``git`` on PATH.
    """
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def provenance_info(config=None, fault_injection: dict | None = None) -> dict:
    """The BENCH provenance block: code + physical configuration.

    Records the git commit (best-effort), the storage parameters that
    shape every measured number (page sizes, buffer budget, sort
    buffer), and the Table 3 I/O weights -- everything needed to judge
    whether two trajectory points are comparable.  Since schema v3 the
    block also carries a ``fault_injection`` entry: ``{"enabled":
    False}`` for ordinary benchmarks, or the injector's
    :meth:`~repro.faults.injector.FaultInjector.summary` (seed, rules,
    fire counts) for runs measured under injected faults.

    Args:
        config: A :class:`~repro.storage.config.StorageConfig`;
            defaults to the paper's Section 5.1 parameters.
        fault_injection: Override for the fault-injection entry, e.g.
            ``injector.summary()``; defaults to disabled.
    """
    from dataclasses import asdict

    from repro.storage.config import StorageConfig

    config = config or StorageConfig()
    return {
        "git_commit": _git_commit(),
        "page_size": config.page_size,
        "sort_run_page_size": config.sort_run_page_size,
        "buffer_size": config.buffer_size,
        "memory_limit": config.memory_limit,
        "sort_buffer_size": config.sort_buffer_size,
        "io_weights": asdict(config.io_weights),
        "fault_injection": (
            {"enabled": False} if fault_injection is None else dict(fault_injection)
        ),
    }


def bench_payload(
    name: str,
    metrics: dict,
    profile: QueryProfile | dict | None = None,
    extra: dict | None = None,
    created_unix: float | None = None,
    provenance: dict | None = None,
    serve: dict | None = None,
) -> dict:
    """Build (and validate) one benchmark export payload (schema v4).

    Args:
        name: Benchmark identifier (letters, digits, ``._-``).
        metrics: Flat scalar measurements, e.g. model milliseconds per
            strategy.  Values must be real numbers.
        profile: Optional operator-tree profile of the measured run.
        extra: Free-form additional JSON-compatible context.
        created_unix: Stamp override (defaults to ``time.time()``),
            injectable for deterministic tests.
        provenance: Override for the v2 provenance block (defaults to
            :func:`provenance_info` of the paper's configuration);
            injectable for deterministic tests.
        serve: Optional v4 serving block (a
            :meth:`repro.serve.bench.LoadReport.to_dict` payload); must
            carry ``clients``, ``requests``, ``latency_ms``, and the
            ``trace_digest`` replay witness.
    """
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time() if created_unix is None else created_unix,
        "paper": "Relational Division: Four Algorithms and Their Performance "
        "(ICDE 1989)",
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
        "provenance": provenance_info() if provenance is None else dict(provenance),
        "metrics": dict(metrics),
    }
    if profile is not None:
        payload["profile"] = (
            profile.to_dict() if isinstance(profile, QueryProfile) else dict(profile)
        )
    if extra:
        payload["extra"] = dict(extra)
    if serve is not None:
        payload["serve"] = dict(serve)
    validate_bench_payload(payload)
    return payload


def validate_bench_payload(payload: object) -> dict:
    """Check a BENCH payload against the schema; returns it when valid.

    Raises:
        ValueError: On any structural problem, with a message naming
            the offending field.
    """
    if not isinstance(payload, dict):
        raise ValueError("BENCH payload must be a JSON object")
    version = payload.get("schema_version")
    if version not in ACCEPTED_BENCH_SCHEMA_VERSIONS:
        raise ValueError(
            "BENCH schema_version must be one of "
            f"{ACCEPTED_BENCH_SCHEMA_VERSIONS}, got {version!r}"
        )
    if version >= 2:
        provenance = payload.get("provenance")
        if not isinstance(provenance, dict):
            raise ValueError(
                f"BENCH v{version} payloads must carry a provenance object"
            )
        # v3's fault_injection entry is optional (custom provenance
        # overrides predate it) but, when present, must be an object.
        fault_injection = provenance.get("fault_injection")
        if fault_injection is not None and not isinstance(fault_injection, dict):
            raise ValueError(
                "BENCH provenance fault_injection, when present, must be an object"
            )
    elif "provenance" in payload and not isinstance(payload["provenance"], dict):
        raise ValueError("BENCH provenance, when present, must be an object")
    name = payload.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(f"BENCH name must match {_NAME_RE.pattern}, got {name!r}")
    created = payload.get("created_unix")
    if not isinstance(created, (int, float)) or isinstance(created, bool):
        raise ValueError("BENCH created_unix must be a number")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("BENCH metrics must be a non-empty object")
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise ValueError(f"BENCH metric names must be strings, got {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"BENCH metric {key!r} must be a number, got {value!r}")
    if "profile" in payload and not isinstance(payload["profile"], dict):
        raise ValueError("BENCH profile, when present, must be an object")
    if "serve" in payload:
        serve = payload["serve"]
        if not isinstance(serve, dict):
            raise ValueError("BENCH serve, when present, must be an object")
        for field in ("clients", "requests", "latency_ms", "trace_digest"):
            if field not in serve:
                raise ValueError(f"BENCH serve block missing {field!r}")
        if not isinstance(serve["latency_ms"], dict):
            raise ValueError("BENCH serve latency_ms must be an object")
        digest = serve["trace_digest"]
        if not isinstance(digest, str) or not digest:
            raise ValueError(
                "BENCH serve trace_digest must be a non-empty string"
            )
    return payload


def bench_path(directory: Path | str, name: str) -> Path:
    """The ``BENCH_<name>.json`` path for a benchmark name."""
    return Path(directory) / f"{BENCH_PREFIX}{name}.json"


def write_bench_json(
    directory: Path | str,
    name: str,
    metrics: dict,
    profile: QueryProfile | dict | None = None,
    extra: dict | None = None,
    created_unix: float | None = None,
    serve: dict | None = None,
) -> Path:
    """Write one validated ``BENCH_<name>.json``; returns its path."""
    payload = bench_payload(
        name,
        metrics,
        profile=profile,
        extra=extra,
        created_unix=created_unix,
        serve=serve,
    )
    path = bench_path(directory, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: Path | str) -> dict:
    """Read and validate a ``BENCH_*.json`` file from disk."""
    raw = Path(path).read_text()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return validate_bench_payload(payload)
