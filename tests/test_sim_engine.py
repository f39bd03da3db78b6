"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SCHEDULERS, Engine, SimulationError


def test_runs_events_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(10, lambda: order.append("b"))
    eng.schedule(5, lambda: order.append("a"))
    eng.schedule(20, lambda: order.append("c"))
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 20


def test_same_cycle_events_run_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(7, lambda i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_zero_delay_event_runs_after_queued_same_cycle_events():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0, lambda: order.append("nested"))

    eng.schedule(1, first)
    eng.schedule(1, lambda: order.append("second"))
    eng.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1, lambda: None)


def test_schedule_at_absolute_time():
    eng = Engine()
    hits = []
    eng.schedule_at(42, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [42]


def test_schedule_at_past_rejected():
    eng = Engine()
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(5, lambda: None)


def test_run_until_stops_clock_without_dropping_events():
    eng = Engine()
    hits = []
    eng.schedule(5, lambda: hits.append(5))
    eng.schedule(50, lambda: hits.append(50))
    eng.run(until=10)
    assert hits == [5]
    assert eng.now == 10
    eng.run()
    assert hits == [5, 50]


def test_run_until_advances_clock_when_queue_drains_early():
    eng = Engine()
    eng.schedule(3, lambda: None)
    eng.run(until=100)
    assert eng.now == 100


def test_stop_halts_run():
    eng = Engine()
    hits = []
    eng.schedule(1, lambda: (hits.append(1), eng.stop()))
    eng.schedule(2, lambda: hits.append(2))
    eng.run()
    assert hits == [1]
    eng.run()
    assert hits == [1, 2]


def test_max_events_guard():
    eng = Engine()

    def rearm():
        eng.schedule(1, rearm)

    eng.schedule(1, rearm)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_engine_not_reentrant():
    eng = Engine()
    errors = []

    def reenter():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.schedule(1, reenter)
    eng.run()
    assert len(errors) == 1


def test_events_executed_counter():
    eng = Engine()
    for _ in range(7):
        eng.schedule(1, lambda: None)
    eng.run()
    assert eng.events_executed == 7


def test_determinism_of_interleaved_schedules():
    def build_and_run():
        eng = Engine()
        trace = []

        def emit(tag, reschedule):
            trace.append((eng.now, tag))
            if reschedule > 0:
                eng.schedule(reschedule, lambda: emit(tag + "'", 0))

        eng.schedule(3, lambda: emit("a", 4))
        eng.schedule(3, lambda: emit("b", 2))
        eng.schedule(1, lambda: emit("c", 6))
        eng.run()
        return trace

    assert build_and_run() == build_and_run()


def test_max_events_executes_exactly_n():
    eng = Engine()
    hits = []

    def rearm():
        hits.append(eng.now)
        eng.schedule(1, rearm)

    eng.schedule(1, rearm)
    with pytest.raises(SimulationError):
        eng.run(max_events=5)
    # The guard fires *at* the budget, not one event past it.
    assert len(hits) == 5
    assert eng.events_executed == 5


def test_max_events_exact_drain_returns_normally():
    eng = Engine()
    hits = []
    for i in range(5):
        eng.schedule(i + 1, lambda i=i: hits.append(i))
    eng.run(max_events=5)
    assert hits == list(range(5))


def test_max_events_respects_stop_on_last_event():
    eng = Engine()
    hits = []
    eng.schedule(1, lambda: (hits.append(1), eng.stop()))
    eng.schedule(2, lambda: hits.append(2))
    # stop() lands exactly on the budget boundary: no error.
    eng.run(max_events=1)
    assert hits == [1]


def test_global_event_counter_accumulates_across_engines():
    before = Engine.global_events_executed()
    for _ in range(3):
        eng = Engine()
        eng.schedule(1, lambda: None)
        eng.run()
    assert Engine.global_events_executed() == before + 3


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_run_until_before_now_rejected(scheduler):
    # The clock never moves backwards: a zero-delay event scheduled after
    # the engine reached cycle 20 runs at 20, not at an earlier `until`.
    eng = Engine(scheduler=scheduler)
    eng.run(until=20)
    hits = []
    eng.schedule(5, lambda: hits.append(eng.now))
    with pytest.raises(SimulationError, match="until=15"):
        eng.run(until=15)
    assert eng.now == 20
    eng.schedule(0, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [20, 25]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_run_until_non_integral_rejected(scheduler):
    eng = Engine(scheduler=scheduler)
    with pytest.raises(SimulationError, match=r"until=2\.5"):
        eng.run(until=2.5)
    assert eng.now == 0
    eng.run(until=2.0)  # integral floats are normalized
    assert eng.now == 2 and type(eng.now) is int
    hits = []
    eng.schedule(1, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [3]


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_run_until_non_numeric_rejected(scheduler):
    eng = Engine(scheduler=scheduler)
    with pytest.raises(SimulationError, match="until='10'"):
        eng.run(until="10")
    with pytest.raises(SimulationError, match=r"until=\[None\]"):
        eng.run(until=[None])


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_reschedule_requires_a_handle(scheduler):
    eng = Engine(scheduler=scheduler)
    with pytest.raises(SimulationError, match="needs a handle"):
        eng.reschedule(None, 1)
    assert len(eng.scheduler) == 0
