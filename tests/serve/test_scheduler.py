"""The cooperative scheduler: virtual time, determinism, deadlines."""

import pytest

from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    SchedulerError,
)
from repro.serve.scheduler import (
    CooperativeScheduler,
    TaskState,
    VirtualClock,
    Wait,
)


def costed(costs, result=None):
    def gen():
        for cost in costs:
            yield cost
        return result

    return gen()


class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now_ms == 0.0
        assert clock.advance(2.5) == 2.5
        assert clock.now_ms == 2.5

    def test_time_cannot_go_backwards(self):
        with pytest.raises(SchedulerError):
            VirtualClock().advance(-1.0)


class TestScheduling:
    def test_task_result_is_the_return_value(self):
        sched = CooperativeScheduler()
        task = sched.spawn(gen=costed([1.0, 2.0], result="done"))
        sched.run_until_complete()
        assert task.state is TaskState.DONE
        assert task.result == "done"

    def test_clock_advances_by_costs_plus_quanta(self):
        sched = CooperativeScheduler()
        sched.spawn(gen=costed([1.0, 2.0]))
        sched.run_until_complete()
        # two costed steps + the StopIteration step, one quantum each.
        assert sched.clock.now_ms == pytest.approx(3.0 + 3 * 0.01)

    def test_negative_cost_fails_the_task(self):
        sched = CooperativeScheduler()
        task = sched.spawn(gen=costed([-1.0]))
        sched.run_until_complete()
        assert task.state is TaskState.FAILED
        assert isinstance(task.error, SchedulerError)

    def test_same_seed_same_interleaving(self):
        def run(seed):
            sched = CooperativeScheduler(seed=seed)
            for i in range(4):
                sched.spawn(gen=costed([0.5, 0.5, 0.5]), name=f"t{i}")
            sched.run_until_complete()
            return sched.trace_digest()

        assert run(7) == run(7)
        # A scheduler with >1 ready task must consult the seed; two
        # digests for one seed must agree even across many tasks.
        assert run(0) == run(0)

    def test_trace_records_every_step(self):
        sched = CooperativeScheduler()
        sched.spawn(gen=costed([1.0]))
        sched.run_until_complete()
        events = [event for _, _, event in sched.trace]
        assert events.count("step") == 2  # the cost step + StopIteration
        assert events[-1] == "done"

    def test_stepping_a_finished_task_rejected(self):
        sched = CooperativeScheduler()
        task = sched.spawn(gen=costed([1.0]), name="t")
        sched.run_until_complete()
        steps = task.steps
        with pytest.raises(SchedulerError, match="'t' is done"):
            sched.step(task)
        assert task.steps == steps


class TestWaiting:
    def test_wait_parks_until_condition_holds(self):
        box = {"ready": False}

        def waiter():
            yield Wait("box", lambda: box["ready"])
            return "woke"

        def opener():
            yield 1.0
            box["ready"] = True
            yield 0.1

        sched = CooperativeScheduler()
        parked = sched.spawn(gen=waiter(), name="waiter")
        sched.spawn(gen=opener(), name="opener")
        sched.run_until_complete()
        assert parked.result == "woke"

    def test_all_parked_and_unwakeable_is_deadlock(self):
        def stuck():
            yield Wait("never", lambda: False)

        sched = CooperativeScheduler()
        sched.spawn(gen=stuck(), name="stuck")
        with pytest.raises(SchedulerError, match="deadlock"):
            sched.run_until_complete()


class TestDeadlinesAndCancellation:
    def test_deadline_throws_timeout_into_the_task(self):
        cleaned = []

        def slow():
            try:
                while True:
                    yield 10.0
            finally:
                cleaned.append(True)

        sched = CooperativeScheduler()
        task = sched.spawn(gen=slow(), deadline_ms=25.0)
        sched.run_until_complete()
        assert task.state is TaskState.FAILED
        assert isinstance(task.error, QueryTimeoutError)
        assert cleaned == [True]  # finally ran before the error surfaced

    def test_parked_task_past_deadline_wakes_to_its_timeout(self):
        def parked():
            yield Wait("never", lambda: False)

        def clock_mover():
            yield 100.0

        sched = CooperativeScheduler()
        task = sched.spawn(gen=parked(), deadline_ms=50.0)
        sched.spawn(gen=clock_mover())
        sched.run_until_complete()
        assert isinstance(task.error, QueryTimeoutError)

    def test_cancel_delivers_typed_error(self):
        def worker():
            while True:
                yield 1.0

        sched = CooperativeScheduler()
        task = sched.spawn(gen=worker())
        sched.cancel(task)
        sched.run_until_complete()
        assert task.state is TaskState.FAILED
        assert isinstance(task.error, QueryCancelledError)

    def test_cancel_wakes_a_parked_task(self):
        def parked():
            yield Wait("never", lambda: False)

        sched = CooperativeScheduler()
        task = sched.spawn(gen=parked())
        sched.cancel(task)
        sched.run_until_complete()
        assert isinstance(task.error, QueryCancelledError)

    def test_factory_spawn_gets_its_own_task_handle(self):
        def factory(task):
            def gen():
                task.deadline_ms = sched.clock.now_ms + 1000.0
                yield 0.0
                return task.deadline_ms

            return gen()

        sched = CooperativeScheduler()
        task = sched.spawn(factory=factory)
        sched.run_until_complete()
        assert task.result == 1000.0

    def test_spawn_requires_exactly_one_form(self):
        sched = CooperativeScheduler()
        with pytest.raises(SchedulerError):
            sched.spawn()
        with pytest.raises(SchedulerError):
            sched.spawn(gen=costed([1.0]), factory=lambda t: costed([1.0]))
