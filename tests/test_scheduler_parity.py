"""Heap-vs-wheel scheduler parity: bit-identical results, identical order.

The engine's priority structure is pluggable (:mod:`repro.sim.scheduler`);
correctness demands that every registered implementation reproduces the
exact ``(time, FIFO-within-cycle)`` dispatch order of the reference binary
heap.  This suite enforces that three ways:

1. every benched figure scenario runs at quick scale under both
   schedulers and must produce identical full-result digests (the
   same digest ``python -m repro bench`` records),
2. a hypothesis property drives both schedulers through random
   push/drain interleavings and asserts identical pop order, and
3. targeted unit tests cover the new engine surface built on the
   scheduler core (cancellable handles, rescheduling, occupancy
   accounting, the delay histogram).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.perf import result_digest
from repro.perf.harness import BENCH_FIGURES
from repro.sim import (
    SCHEDULERS,
    CalendarScheduler,
    Engine,
    HeapScheduler,
    SimulationError,
    create_scheduler,
)

#: Every benched scenario, so each digest in ``BENCH_results.json`` is
#: also reproduced on the heap.
PARITY_SCENARIOS = list(BENCH_FIGURES)


class TestFigureParity:
    @pytest.mark.parametrize("name", PARITY_SCENARIOS)
    def test_heap_and_wheel_fingerprints_identical(self, name, monkeypatch,
                                                   quick_wheel_results):
        # The wheel side comes from the shared session pass (conftest.py),
        # where fig17 and sec6g are assembled from the step memo; the
        # heap side is a fresh run on its own runner.
        assert sorted(SCHEDULERS) == ["heap", "wheel"]
        monkeypatch.setenv("REPRO_SCHEDULER", "heap")
        heap = BENCH_FIGURES[name](ExperimentScale.quick(),
                                   runner=ParallelSweepRunner(jobs=1))
        wheel = quick_wheel_results[name]
        assert result_digest(wheel) == result_digest(heap), (
            f"{name}: wheel scheduler diverged from the heap"
        )


# -- property: identical pop order -------------------------------------------------


@st.composite
def _schedules(draw):
    """A random schedule: initial (delay, tag) pushes plus, for some
    events, a follow-up push performed while that event dispatches (the
    same-cycle-append and future-push paths the engine exercises)."""
    initial = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=40),
                  st.integers(min_value=0, max_value=10 ** 6)),
        min_size=1, max_size=40,
    ))
    chained = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(initial) - 1),
                  st.integers(min_value=0, max_value=8)),
        max_size=20,
    ))
    return initial, chained


def _drain_order(scheduler, initial, chained):
    """Dispatch order of one scheduler over the generated schedule."""
    order = []
    followups = {}
    for slot, (source, extra_delay) in enumerate(chained):
        followups.setdefault(source, []).append((slot, extra_delay))

    def make_event(tag, index):
        def event():
            order.append((tag, index))
            for slot, extra_delay in followups.get(index, []):
                scheduler.push(now + extra_delay,
                               make_event(f"chain-{slot}", -1 - slot))
        return event

    for index, (delay, tag) in enumerate(initial):
        scheduler.push(delay, make_event(tag, index))

    now = 0
    while True:
        batch = scheduler.next_batch(None)
        if batch is None:
            break
        now = scheduler.time
        i = 0
        while i < len(batch):
            batch[i]()
            i += 1
    assert len(scheduler) == 0
    return order


class TestPopOrderProperty:
    @settings(max_examples=200, deadline=None)
    @given(_schedules())
    def test_all_schedulers_pop_identically(self, schedule):
        initial, chained = schedule
        reference = _drain_order(HeapScheduler(), initial, chained)
        assert len(reference) == len(initial) + len(chained)
        wheel = _drain_order(CalendarScheduler(), initial, chained)
        assert wheel == reference


# -- differential: the wheel against the heap oracle, through the engine ----------

#: Delays on both sides of the wheel's ring edge, refresh's 6240 and far
#: ahead, plus the short delays that dominate real runs.
_DELAYS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([0, 1, 1023, 1024, 1025, 2047, 2048, 6240, 10 ** 6]),
)

_STEPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("schedule_at"), _DELAYS),
    st.tuples(st.just("cancellable"), _DELAYS),
    st.tuples(st.just("reschedule"), st.integers(0, 63), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("run_until"), _DELAYS),
    st.tuples(st.just("run_max"), st.integers(0, 12)),
    st.tuples(st.just("run"),),
)


@st.composite
def _programs(draw):
    """Driver steps, plus what each top-level event does when it runs:
    schedule one follow-up (``None``: no follow-up) and maybe ``stop()``."""
    steps = draw(st.lists(_STEPS, min_size=1, max_size=40))
    reactions = draw(st.lists(
        st.tuples(st.one_of(st.none(), _DELAYS),
                  st.sampled_from(["schedule", "cancellable", "schedule_at"]),
                  st.booleans()),
        min_size=1, max_size=16,
    ))
    return steps, reactions


def _play(scheduler, steps, reactions):
    """Run one program on a fresh engine; the observable log."""
    eng = Engine(scheduler=scheduler)
    log = []
    handles = []

    def schedule(how, delay, fn):
        if how == "schedule":
            eng.schedule(delay, fn)
        elif how == "schedule_at":
            eng.schedule_at(eng.now + delay, fn)
        else:
            handles.append(eng.schedule_cancellable(delay, fn))

    def event(tag, top_level):
        def fire():
            log.append(("fire", tag, eng.now))
            if not top_level:
                return
            follow_up, how, stop = reactions[tag % len(reactions)]
            if follow_up is not None:
                schedule(how, follow_up, event(-1 - tag, False))
            if stop:
                eng.stop()
        return fire

    def run(**kwargs):
        try:
            eng.run(**kwargs)
            outcome = "ok"
        except SimulationError:
            outcome = "error"
        log.append(("run", outcome, eng.now, len(eng.scheduler),
                    eng.pending_events, eng.events_executed))

    for tag, step in enumerate(steps):
        kind = step[0]
        if kind in ("schedule", "schedule_at", "cancellable"):
            schedule(kind, step[1], event(tag, True))
        elif kind == "reschedule" and handles:
            handle = handles[step[1] % len(handles)]
            handles.append(eng.reschedule(handle, step[2]))
        elif kind == "cancel" and handles:
            handles[step[1] % len(handles)].cancel()
        elif kind == "run_until":
            run(until=eng.now + step[1])
        elif kind == "run_max":
            run(max_events=step[1])
        elif kind == "run":
            run()
    # Drain: each run() ends with an empty queue unless a stop() cut it
    # short, and every top-level event stops at most once.
    for _ in range(len(steps) + 1):
        run()
        if not len(eng.scheduler):
            break
    occupancy = eng.scheduler.occupancy()
    del occupancy["scheduler"]
    return log, occupancy


class TestWheelMatchesHeapOracle:
    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_same_dispatch_clock_length_and_counters(self, program):
        steps, reactions = program
        reference = _play("heap", steps, reactions)
        assert _play("wheel", steps, reactions) == reference

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    @pytest.mark.parametrize("far, hop", [
        (1500, 1000), (2047, 1024), (2048, 1024), (1024, 1), (6240, 5217),
    ])
    def test_overflow_event_keeps_fifo_with_a_later_in_window_push(
            self, scheduler, far, hop):
        # Pushed `far` ahead at cycle 0 it starts in the wheel's overflow;
        # an event at `hop` then pushes for the same cycle, which by then
        # may be inside the window.  The earlier push must still run first.
        eng = Engine(scheduler=scheduler)
        order = []
        eng.schedule(far, lambda: order.append("early"))
        eng.schedule(hop, lambda: eng.schedule(
            far - hop, lambda: order.append("late")))
        eng.run()
        assert order == ["early", "late"]
        assert eng.now == far


# -- engine surface on top of the scheduler core -----------------------------------


class TestNonIntegralDelays:
    """Regression: ``int(delay)`` used to silently truncate floats."""

    def test_fractional_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            eng.schedule(1.5, lambda: None)

    def test_fractional_absolute_time_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral"):
            eng.schedule_at(2.25, lambda: None)

    def test_integral_float_normalized(self):
        eng = Engine()
        hits = []
        eng.schedule(3.0, lambda: hits.append(eng.now))
        eng.run()
        assert hits == [3]
        assert type(eng.now) is int

    def test_numpy_float_delay_rejected(self):
        np = pytest.importorskip("numpy")
        eng = Engine()
        with pytest.raises(SimulationError, match="non-integral delay"):
            eng.schedule(np.float64(2.5), lambda: None)


class TestCancellableHandles:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        hits = []
        handle = eng.schedule_cancellable(5, lambda: hits.append("x"))
        handle.cancel()
        eng.run()
        assert hits == []
        assert not handle.active

    def test_cancelled_slot_still_counts_as_executed(self):
        # The dispatch slot exists either way; skipping the callback must
        # not change event accounting between cancel-heavy and plain runs.
        eng = Engine()
        eng.schedule_cancellable(1, lambda: None).cancel()
        eng.schedule(1, lambda: None)
        eng.run()
        assert eng.events_executed == 2

    def test_reschedule_moves_the_event(self):
        eng = Engine()
        hits = []
        handle = eng.schedule_cancellable(2, lambda: hits.append(eng.now))
        eng.reschedule(handle, 7)
        eng.run()
        assert hits == [7]

    def test_cancel_then_fresh_schedule_is_the_timeout_idiom(self):
        # The packer's flush timer: cancel the pending deadline, arm a new
        # one.  Only the latest deadline fires.
        eng = Engine()
        fired = []
        handle = eng.schedule_cancellable(10, lambda: fired.append(10))
        handle.cancel()
        eng.schedule_cancellable(4, lambda: fired.append(4))
        eng.run()
        assert fired == [4]


class TestProcessCounters:
    def test_reset_zeroes_events_and_occupancy(self):
        eng = Engine()
        eng.schedule(1, lambda: None)
        eng.run()
        assert Engine.global_events_executed() > 0
        Engine.reset_process_counters()
        assert Engine.global_events_executed() == 0
        assert Engine.process_occupancy() == {}

    def test_occupancy_aggregates_batches(self):
        Engine.reset_process_counters()
        eng = Engine(scheduler="wheel")
        for _ in range(6):
            eng.schedule(3, lambda: None)  # one 6-event batch
        eng.schedule(9, lambda: None)
        eng.run()
        occ = Engine.process_occupancy()["wheel"]
        assert occ["events_enqueued"] == 7
        assert occ["cycles_started"] == 2
        assert occ["max_batch"] == 6
        assert occ["avg_batch"] == pytest.approx(3.5)
        Engine.reset_process_counters()

    def test_occupancy_keyed_by_scheduler(self):
        Engine.reset_process_counters()
        for name in sorted(SCHEDULERS):
            eng = Engine(scheduler=name)
            eng.schedule(1, lambda: None)
            eng.run()
        assert set(Engine.process_occupancy()) == set(SCHEDULERS)
        Engine.reset_process_counters()


class TestDelayHistogram:
    def test_records_all_scheduling_paths(self):
        eng = Engine()
        with Engine.record_delay_histogram() as histogram:
            eng.schedule(4, lambda: None)
            eng.schedule(4, lambda: None)
            eng.schedule_cancellable(2, lambda: None)
            eng.schedule_at(10, lambda: None)
            eng.run()
        assert histogram == {4: 2, 2: 1, 10: 1}

    def test_histogram_is_observational(self):
        def run(record):
            eng = Engine()
            order = []
            for i in range(5):
                eng.schedule(i % 2, lambda i=i: order.append((eng.now, i)))
            if record:
                with Engine.record_delay_histogram():
                    eng.run()
            else:
                eng.run()
            return order

        assert run(record=True) == run(record=False)

    def test_wrappers_removed_after_exit(self):
        # Counting lives in the schedulers' ``push``: installed on every
        # registered class while recording, the plain one restored after.
        before = {cls: cls.push for cls in SCHEDULERS.values()}
        with Engine.record_delay_histogram():
            for cls, push in before.items():
                assert cls.push is not push
        for cls, push in before.items():
            assert cls.push is push

    def test_counts_every_push_of_a_real_run(self):
        # Links and DRAM controllers push straight onto the scheduler;
        # the histogram must still see every event a figure enqueues.
        Engine.reset_process_counters()
        with Engine.record_delay_histogram() as histogram:
            BENCH_FIGURES["fig16"](ExperimentScale.quick(),
                                   runner=ParallelSweepRunner(jobs=1))
        enqueued = sum(occ["events_enqueued"]
                       for occ in Engine.process_occupancy().values())
        Engine.reset_process_counters()
        assert enqueued > 0
        assert sum(histogram.values()) == enqueued
        assert min(histogram) >= 0


class TestRegistry:
    def test_env_selects_scheduler(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER", "heap")
        assert isinstance(Engine().scheduler, HeapScheduler)
        monkeypatch.setenv("REPRO_SCHEDULER", "wheel")
        assert isinstance(Engine().scheduler, CalendarScheduler)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            create_scheduler("splay-tree")

    def test_instance_passthrough(self):
        sched = HeapScheduler()
        assert Engine(scheduler=sched).scheduler is sched
