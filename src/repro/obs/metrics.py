"""A metrics registry: counters, gauges, fixed-bucket histograms.

Metric naming convention (see DESIGN.md): Prometheus style --
``repro_<area>_<noun>`` with ``_total`` for counters and a unit suffix
(``_ms``, ``_bytes``, ``_ratio``) for gauges and histograms; labels are
lowercase ``snake_case``.

:func:`absorb_cpu_counters` folds a run's Table 1 operation counts
(:class:`repro.metering.CpuCounters`) into the registry; ``repro
profile --format prom`` prints the result.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple

from repro.errors import ReproError


class MetricsError(ReproError):
    """Misuse of the metrics registry (name/kind conflicts, bad input)."""


LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: dict) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricsError("counters only go up; use a gauge instead")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the reading."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the reading upward."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the reading downward."""
        self.value -= amount


#: Default histogram bucket upper bounds, in model milliseconds --
#: chosen to straddle the paper's Table 2/Table 4 range (sub-ms unit
#: costs up to the ~450,000 ms naive run at |S| = |Q| = 400).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Histogram:
    """Fixed-boundary histogram (cumulative buckets, Prometheus-style).

    Args:
        boundaries: Strictly increasing bucket upper bounds; an
            implicit ``+Inf`` bucket always exists.
    """

    def __init__(self, boundaries: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise MetricsError("a histogram needs at least one bucket boundary")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise MetricsError("bucket boundaries must be strictly increasing")
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value

    def buckets(self) -> Iterator[tuple[float, int]]:
        """Yield ``(upper_bound, cumulative_count)``; ends with +Inf."""
        running = 0
        for bound, count in zip(self.boundaries, self._counts):
            running += count
            yield bound, running
        yield float("inf"), running + self._counts[-1]


@dataclass(frozen=True)
class MetricSample:
    """One collected metric: name, kind, labels, and the live object."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: LabelItems
    metric: object = field(compare=False)

    @property
    def label_dict(self) -> dict:
        return dict(self.labels)


class MetricsRegistry:
    """Registry of named, labelled counters/gauges/histograms.

    A metric family (one name) has exactly one kind; asking for the
    same name with a different kind raises :class:`MetricsError`, which
    keeps exports coherent.
    """

    def __init__(self) -> None:
        self._kinds: dict[str, str] = {}
        self._metrics: dict[tuple[str, LabelItems], object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Sorted metric family names."""
        return sorted(self._kinds)

    def _get(self, name: str, kind: str, labels: dict, factory):
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
        elif known != kind:
            raise MetricsError(
                f"metric {name!r} is a {known}, not a {kind}"
            )
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter ``name`` with ``labels`` (created on first use)."""
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge ``name`` with ``labels`` (created on first use)."""
        return self._get(name, "gauge", labels, Gauge)

    def histogram(
        self, name: str, boundaries: Iterable[float] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """The histogram ``name``; ``boundaries`` apply on first use."""
        return self._get(name, "histogram", labels, lambda: Histogram(boundaries))

    def collect(self) -> Iterator[MetricSample]:
        """Every metric, sorted by (name, labels) for stable exports."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda item: item[0]
        ):
            yield MetricSample(name, self._kinds[name], labels, metric)

    def value(self, name: str, **labels) -> float:
        """Scalar value of an existing counter/gauge (KeyError if absent)."""
        metric = self._metrics[(name, _label_items(labels))]
        if isinstance(metric, Histogram):
            raise MetricsError(f"metric {name!r} is a histogram; read .buckets()")
        return metric.value  # type: ignore[union-attr]

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every metric."""
        out: dict = {}
        for sample in self.collect():
            family = out.setdefault(
                sample.name, {"kind": sample.kind, "samples": []}
            )
            if isinstance(sample.metric, Histogram):
                value = {
                    "count": sample.metric.count,
                    "sum": sample.metric.sum,
                    "buckets": [
                        [bound, count] for bound, count in sample.metric.buckets()
                    ],
                }
            else:
                value = sample.metric.value  # type: ignore[union-attr]
            family["samples"].append({"labels": sample.label_dict, "value": value})
        return out


# -- absorbing the reproduction's native meters ------------------------


def absorb_cpu_counters(registry: MetricsRegistry, counters, **labels) -> None:
    """Fold a :class:`~repro.metering.CpuCounters` reading into counters.

    Emits ``repro_cpu_comparisons_total``, ``repro_cpu_hashes_total``,
    ``repro_cpu_moves_total`` (fractional page moves), and
    ``repro_cpu_bit_ops_total`` -- the Table 1 operation taxonomy.
    """
    registry.counter("repro_cpu_comparisons_total", **labels).inc(counters.comparisons)
    registry.counter("repro_cpu_hashes_total", **labels).inc(counters.hashes)
    registry.counter("repro_cpu_moves_total", **labels).inc(counters.moves)
    registry.counter("repro_cpu_bit_ops_total", **labels).inc(counters.bit_ops)
