"""The execution tracer and its injectable clock.

The paper's whole argument is quantitative -- Tables 1-4 compare the
division strategies by counted operations and costed I/O -- so the
reproduction needs *attribution*: which operator of a running plan
spent which share of the Comp/Hash/Move/Bit budget, the buffer
activity, and the Table 3 I/O milliseconds.  This module provides the
substrate:

* :class:`Clock` / :class:`MonotonicClock` / :class:`FakeClock` -- a
  tiny clock abstraction so anything that measures wall time (operator
  attribution, the experiment runner) can be driven by a deterministic
  fake in tests,
* :class:`Tracer` -- records per-operator meter attribution (see
  :mod:`repro.obs.profile`) and writes through to a
  :class:`~repro.obs.metrics.MetricsRegistry`,
* :class:`NullTracer` / :data:`NULL_TRACER` -- the default no-op: the
  paper-reproduction hot paths check a single ``enabled`` flag, so
  disabled tracing costs ~nothing and -- crucially for the
  reproduction -- *counts* nothing: the Comp/Hash/Move/Bit meters see
  identical values with tracing on or off, because tracing only ever
  snapshots the meters, never advances them.
"""

from __future__ import annotations

import time
from typing import Optional, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Anything with a monotonic ``now()`` in fractional seconds."""

    def now(self) -> float:  # pragma: no cover - protocol
        ...


class MonotonicClock:
    """The real clock: :func:`time.perf_counter`."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.perf_counter()


class FakeClock:
    """A deterministic clock for tests: advances only when told to.

    Args:
        start: Initial reading in seconds.
        auto_tick: Seconds silently added on *every* :meth:`now` call;
            handy for tests that only need strictly increasing stamps.
    """

    def __init__(self, start: float = 0.0, auto_tick: float = 0.0) -> None:
        self._now = float(start)
        self.auto_tick = float(auto_tick)

    def now(self) -> float:
        """Current fake time (applies ``auto_tick`` first)."""
        self._now += self.auto_tick
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._now += seconds


#: Shared default real clock.
MONOTONIC_CLOCK = MonotonicClock()


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``enabled`` is ``False`` so hot paths (one flag test per
    ``next()`` call) skip instrumentation entirely.  A null-traced run
    produces no operator stats and no metrics entries.
    """

    enabled = False
    metrics = None

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Discard the counter increment."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """Discard the gauge reading."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Discard the histogram observation."""

    def operator_enter(self, operator, phase: str) -> None:
        """Ignore operator attribution."""

    def operator_exit(self, operator, phase: str) -> None:
        """Ignore operator attribution."""

    def current_operator_label(self) -> None:
        """No operator is ever executing under the null tracer."""
        return None


#: Process-wide shared no-op tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


class Tracer:
    """A recording tracer: operator attribution + metrics.

    Args:
        clock: Time source; defaults to the real monotonic clock.
        metrics: Metrics registry to write through to; a fresh
            :class:`~repro.obs.metrics.MetricsRegistry` by default.

    The tracer is deliberately single-threaded (one per
    :class:`~repro.executor.iterator.ExecContext`), matching the
    paper's single-process execution model; the parallel simulation
    uses one context per simulated processor.
    """

    enabled = True

    def __init__(self, clock: Clock | None = None, metrics=None) -> None:
        from repro.obs.metrics import MetricsRegistry

        self.clock: Clock = clock or MONOTONIC_CLOCK
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ops = None  # lazy OperatorAccounting (repro.obs.profile)

    # -- metrics write-through -----------------------------------------

    def count(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment counter ``name`` in the attached registry."""
        self.metrics.counter(name, **labels).inc(value)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` in the attached registry."""
        self.metrics.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Observe ``value`` into histogram ``name``."""
        self.metrics.histogram(name, **labels).observe(value)

    # -- operator attribution (delegated to repro.obs.profile) ---------

    @property
    def operators(self):
        """The per-operator accounting (created on first use)."""
        if self._ops is None:
            from repro.obs.profile import OperatorAccounting

            self._ops = OperatorAccounting(self.clock)
        return self._ops

    def operator_enter(self, operator, phase: str) -> None:
        """Attribution hook: operator ``phase`` call begins."""
        self.operators.enter(operator, phase)

    def operator_exit(self, operator, phase: str) -> None:
        """Attribution hook: operator ``phase`` call ends."""
        self.operators.exit(operator, phase)

    def current_operator_label(self) -> Optional[str]:
        """Class name of the innermost executing operator, or ``None``.

        This is the attribution hook :class:`repro.obs.iotrace.IoEventLog`
        uses to stamp each physical page transfer with the operator on
        whose behalf it happened -- the same stack the EXPLAIN ANALYZE
        profile charges meter deltas to, so the two attributions can be
        cross-checked event for event.
        """
        ops = self._ops
        if ops is None:
            return None
        current = ops.current()
        return None if current is None else current.op_class
