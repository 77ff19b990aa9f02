"""Deterministic fault injection and the defenses it exercises.

The package has three parts:

* :mod:`repro.faults.injector` -- the seedable :class:`FaultInjector`
  and its declarative :class:`FaultRule` grammar.  One injector is
  threaded through storage (disk faults), memory (allocation faults),
  and the parallel interconnect (batch faults); every decision it makes
  is recorded in a replayable schedule.
* :mod:`repro.faults.retry` -- the :class:`RetryPolicy` /
  :class:`BackoffClock` pair used by
  :class:`repro.storage.disk.SimulatedDisk` to retry transient
  faults with capped exponential backoff on a deterministic model
  clock.
* :mod:`repro.faults.chaos` -- the chaos campaign harness (randomized
  fault schedules over the full planner path, with the
  correct-answer-or-typed-error invariant).  It is *not* imported
  here: chaos depends on the plan and executor layers, which in turn
  depend on storage, and storage imports this package.  Import it
  explicitly as ``repro.faults.chaos``.
"""

from __future__ import annotations

from repro.faults.injector import (
    DISK_FAULT_KINDS,
    MEMORY_FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultRule,
    InjectorCounters,
    schedule_to_jsonl,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, BackoffClock, RetryPolicy

__all__ = [
    "DISK_FAULT_KINDS",
    "MEMORY_FAULT_KINDS",
    "NETWORK_FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultRule",
    "InjectorCounters",
    "schedule_to_jsonl",
    "DEFAULT_RETRY_POLICY",
    "BackoffClock",
    "RetryPolicy",
]
