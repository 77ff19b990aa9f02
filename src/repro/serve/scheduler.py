"""A cooperative, deterministic scheduler for serving concurrent queries.

The paper measures one division at a time; a *service* runs many at
once, and the interesting failures (grant contention, cache races,
cancellation mid-build) only appear under interleaving.  Real thread
schedulers make those interleavings unreproducible, so this module
provides the serving substrate as a **cooperative scheduler over
generator-stepped tasks in virtual time**:

* a task is a Python generator that ``yield``\\ s at its own safe
  points, either a *cost* (model milliseconds of work done since the
  last yield -- typically the Table 1/Table 3 meter delta) or a
  :class:`Wait` condition (a lock, an admission grant),
* the scheduler owns a :class:`VirtualClock` advanced only by yielded
  costs, so latency percentiles are **deterministic model
  milliseconds**, not wall time,
* ready-task tie-breaking is drawn from a seeded RNG, so one seed
  replays one interleaving, byte for byte -- the scheduler records the
  full interleaving in :attr:`CooperativeScheduler.trace` and the CI
  replay-determinism check compares two runs' traces,
* per-task **deadlines** (absolute virtual ms) and **cancellation** are
  delivered by throwing the typed
  :class:`~repro.errors.QueryTimeoutError` /
  :class:`~repro.errors.QueryCancelledError` *into* the generator at a
  step boundary, so ``finally`` blocks release grants, locks, and
  iterators before the error reaches the client.

Nothing here imports the executor: the scheduler schedules generators,
and :mod:`repro.serve.service` supplies generators that step query
plans.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Generator

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    SchedulerError,
)

#: Fixed dispatch overhead (model ms) charged per step on top of the
#: task's yielded cost -- guarantees time advances even through
#: zero-cost steps, so deadlines always fire.
QUANTUM_MS = 0.01


class VirtualClock:
    """Deterministic model-time clock, in fractional milliseconds.

    Only task step costs advance it; two runs that do the same model
    work read the same times.  API-compatible with nothing else on
    purpose -- serving latencies are *model* milliseconds (Table 1 CPU
    + Table 3 I/O), the same currency as the paper's tables.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current virtual time in model milliseconds."""
        return self._now_ms

    def advance(self, ms: float) -> float:
        """Move time forward; returns the new reading."""
        if ms < 0:
            raise SchedulerError(f"virtual time cannot go backwards ({ms} ms)")
        self._now_ms += ms
        return self._now_ms


@dataclass
class Wait:
    """A parked task's wake condition.

    Args:
        reason: Short label for diagnostics and the interleaving trace
            (``"lock"``, ``"grant"``).
        ready: Zero-argument callable; the scheduler re-polls it each
            round (in task-submission order) and wakes the task when it
            returns true.  Must be cheap and side-effect-free.
    """

    reason: str
    ready: Callable[[], bool]


class TaskState(enum.Enum):
    READY = "ready"
    PARKED = "parked"
    DONE = "done"
    FAILED = "failed"


@dataclass
class Task:
    """One scheduled unit of work: a generator plus its bookkeeping.

    ``deadline_ms`` is an *absolute* virtual time; ``None`` means no
    deadline.  It is deliberately mutable: a client task serving a
    sequence of requests re-arms it per request.
    """

    seq: int
    name: str
    gen: Generator = field(repr=False)
    state: TaskState = TaskState.READY
    deadline_ms: float | None = None
    result: object = None
    error: BaseException | None = None
    submitted_ms: float = 0.0
    finished_ms: float | None = None
    steps: int = 0
    wait: Wait | None = field(default=None, repr=False)
    _cancel_requested: bool = False
    #: Whether the generator has begun executing.  Cancellation and
    #: timeouts are *thrown into* the generator, which only works once
    #: it is suspended at a yield; an unstarted generator would re-raise
    #: without ever entering its body -- skipping the request's
    #: bookkeeping and cleanup paths.  So delivery waits until after
    #: the first ordinary step.
    _started: bool = False

    @property
    def live(self) -> bool:
        return self.state in (TaskState.READY, TaskState.PARKED)


class CooperativeScheduler:
    """Run tasks to completion under seeded, reproducible interleaving.

    Args:
        seed: Tie-breaking seed.  Same seed + same tasks + same yielded
            costs => same interleaving, same virtual timestamps.
        clock: Injectable :class:`VirtualClock` (shared with the
            service so grant-wait and latency measurements agree).
    """

    def __init__(self, seed: int = 0, clock: VirtualClock | None = None) -> None:
        self.clock = clock or VirtualClock()
        self.seed = seed
        self._rng = random.Random(seed)
        self.tasks: list[Task] = []
        #: The interleaving log: one ``(task_seq, step_index, event)``
        #: triple per scheduling decision.  Byte-identical across
        #: replays of the same seed -- the CI determinism artifact.
        self.trace: list[tuple[int, int, str]] = []

    # -- task management -----------------------------------------------

    def spawn(
        self,
        gen: Generator | None = None,
        name: str = "task",
        deadline_ms: float | None = None,
        factory: Callable[[Task], Generator] | None = None,
    ) -> Task:
        """Register a task (a generator, or a factory given the Task).

        The factory form exists for tasks that need a handle on their
        own :class:`Task` (e.g. to re-arm :attr:`Task.deadline_ms`
        between the requests of one client session).
        """
        if (gen is None) == (factory is None):
            raise SchedulerError("spawn() takes exactly one of gen= or factory=")
        task = Task(
            seq=len(self.tasks),
            name=name,
            gen=iter(()),  # placeholder until the factory runs
            deadline_ms=deadline_ms,
            submitted_ms=self.clock.now_ms,
        )
        task.gen = gen if gen is not None else factory(task)
        self.tasks.append(task)
        return task

    def cancel(self, task: Task) -> None:
        """Request cancellation; delivered at the task's next step."""
        if task.live:
            task._cancel_requested = True
            if task.state is TaskState.PARKED:
                # A parked task must wake to receive the cancellation.
                task.state = TaskState.READY
                task.wait = None

    # -- the loop ------------------------------------------------------

    def _wake_parked(self) -> None:
        """Move parked tasks whose condition holds back to READY.

        Polled in task-submission order, so wake order (and therefore
        FIFO fairness of downstream lock/grant queues) is
        deterministic.  A parked task past its deadline wakes too --
        to receive its :class:`~repro.errors.QueryTimeoutError`.
        """
        now = self.clock.now_ms
        for task in self.tasks:
            if task.state is not TaskState.PARKED:
                continue
            expired = task.deadline_ms is not None and now >= task.deadline_ms
            # A pending cancellation wakes the task as well: cancel()
            # requested before the first step cannot be delivered until
            # the task has started, and the first step may park it.
            if (
                expired
                or task._cancel_requested
                or task.wait is None
                or task.wait.ready()
            ):
                task.state = TaskState.READY
                task.wait = None

    def _pick(self, runnable: list[Task]) -> Task:
        """Seeded tie-breaking among ready tasks."""
        if len(runnable) == 1:
            return runnable[0]
        return runnable[self._rng.randrange(len(runnable))]

    def _finish(self, task: Task, result: object) -> None:
        task.state = TaskState.DONE
        task.result = result
        task.finished_ms = self.clock.now_ms
        self.trace.append((task.seq, task.steps, "done"))

    def _fail(self, task: Task, error: BaseException) -> None:
        task.state = TaskState.FAILED
        task.error = error
        task.finished_ms = self.clock.now_ms
        self.trace.append((task.seq, task.steps, type(error).__name__))

    def step(self, task: Task) -> None:
        """Advance one task by one step (one yield-to-yield stretch)."""
        if not task.live:
            raise SchedulerError(f"task {task.name!r} is {task.state.value}")
        task.steps += 1
        self.trace.append((task.seq, task.steps, "step"))
        try:
            if task._cancel_requested and task._started:
                task._cancel_requested = False
                yielded = task.gen.throw(
                    QueryCancelledError(f"{task.name}: cancelled")
                )
            elif (
                task._started
                and task.deadline_ms is not None
                and self.clock.now_ms >= task.deadline_ms
            ):
                yielded = task.gen.throw(
                    QueryTimeoutError(
                        f"{task.name}: deadline {task.deadline_ms:.2f} ms "
                        f"exceeded at {self.clock.now_ms:.2f} ms"
                    )
                )
            else:
                # First step always runs the body (see Task._started); a
                # pending cancel/timeout is delivered on the next step.
                task._started = True
                yielded = next(task.gen)
        except StopIteration as stop:
            self.clock.advance(QUANTUM_MS)
            self._finish(task, stop.value)
            return
        except (QueryTimeoutError, QueryCancelledError) as exc:
            # The typed error unwound the generator's cleanup path and
            # surfaced -- the normal way a timeout/cancel terminates.
            self.clock.advance(QUANTUM_MS)
            self._fail(task, exc)
            return
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised by caller policy
            self.clock.advance(QUANTUM_MS)
            self._fail(task, exc)
            return
        if isinstance(yielded, Wait):
            task.state = TaskState.PARKED
            task.wait = yielded
            self.clock.advance(QUANTUM_MS)
            self.trace.append((task.seq, task.steps, f"park:{yielded.reason}"))
        else:
            cost = float(yielded) if yielded is not None else 0.0
            if cost < 0:
                self._fail(
                    task,
                    SchedulerError(f"{task.name}: yielded negative cost {cost}"),
                )
                return
            self.clock.advance(cost + QUANTUM_MS)

    def run_until_complete(self) -> list[Task]:
        """Drive every task to DONE/FAILED; returns the task list.

        Raises:
            SchedulerError: When every live task is parked and none can
                wake (a genuine deadlock -- e.g. a lock cycle), naming
                the stuck tasks and their wait reasons.
        """
        while True:
            self._wake_parked()
            runnable = [t for t in self.tasks if t.state is TaskState.READY]
            if not runnable:
                parked = [t for t in self.tasks if t.state is TaskState.PARKED]
                if not parked:
                    return self.tasks
                stuck = ", ".join(
                    f"{t.name} (waiting on "
                    f"{t.wait.reason if t.wait else '?'})"
                    for t in parked
                )
                raise SchedulerError(f"deadlock: all live tasks parked: {stuck}")
            self.step(self._pick(runnable))

    # -- reproducibility artifacts -------------------------------------

    def trace_lines(self) -> list[str]:
        """The interleaving as stable text lines (for digests/files)."""
        return [f"{seq}:{step}:{event}" for seq, step, event in self.trace]

    def trace_digest(self) -> str:
        """SHA-256 over the interleaving trace -- the one-line replay
        determinism witness exported into BENCH artifacts."""
        import hashlib

        payload = "\n".join(self.trace_lines()).encode()
        return hashlib.sha256(payload).hexdigest()
