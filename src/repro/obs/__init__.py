"""repro.obs -- execution observability: tracer, metrics, profiles, export.

The layered subsystem behind ``Query.explain_analyze()``, the
``repro profile`` CLI command, and the ``BENCH_*.json`` benchmark
trajectory:

* :mod:`repro.obs.span` -- the tracer behind per-operator attribution
  and metrics, with an injectable clock and a zero-cost null default,
* :mod:`repro.obs.metrics` -- counters/gauges/histograms, and the fold
  of a run's Table 1 CPU counters into them,
* :mod:`repro.obs.profile` -- per-operator meter attribution and the
  EXPLAIN ANALYZE operator tree,
* :mod:`repro.obs.export` -- JSON / Prometheus-text / ``BENCH_*.json``
  exporters,
* :mod:`repro.obs.iotrace` -- page-level I/O event log (one event per
  physical transfer, with seek classification, Table 3 cost, and
  operator attribution), JSONL / Chrome ``trace_event`` exporters, and
  the cost-model conservation validator.
"""

from repro.obs.export import (
    ACCEPTED_BENCH_SCHEMA_VERSIONS,
    BENCH_SCHEMA_VERSION,
    bench_payload,
    provenance_info,
    load_bench_json,
    profile_to_json,
    render_prometheus,
    validate_bench_payload,
    write_bench_json,
)
from repro.obs.iotrace import (
    AttributionReport,
    ConservationReport,
    IoEvent,
    IoEventLog,
    attribution_by_operator,
    events_from_jsonl,
    events_to_chrome_trace,
    events_to_jsonl,
    read_jsonl,
    render_summary,
    replay_cost_ms,
    replay_counters,
    top_seek_offenders,
    verify_attribution,
    verify_conservation,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    absorb_cpu_counters,
)
from repro.obs.profile import (
    OperatorStats,
    QueryProfile,
    build_profile,
)
from repro.obs.span import (
    NULL_TRACER,
    Clock,
    FakeClock,
    MonotonicClock,
    NullTracer,
    Tracer,
)

__all__ = [
    "ACCEPTED_BENCH_SCHEMA_VERSIONS",
    "AttributionReport",
    "BENCH_SCHEMA_VERSION",
    "Clock",
    "ConservationReport",
    "Counter",
    "FakeClock",
    "Gauge",
    "Histogram",
    "IoEvent",
    "IoEventLog",
    "MetricsError",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_TRACER",
    "NullTracer",
    "OperatorStats",
    "QueryProfile",
    "Tracer",
    "absorb_cpu_counters",
    "attribution_by_operator",
    "bench_payload",
    "build_profile",
    "events_from_jsonl",
    "events_to_chrome_trace",
    "events_to_jsonl",
    "load_bench_json",
    "read_jsonl",
    "profile_to_json",
    "provenance_info",
    "render_prometheus",
    "render_summary",
    "replay_cost_ms",
    "replay_counters",
    "top_seek_offenders",
    "validate_bench_payload",
    "verify_attribution",
    "verify_conservation",
    "write_bench_json",
    "write_chrome_trace",
    "write_jsonl",
]
