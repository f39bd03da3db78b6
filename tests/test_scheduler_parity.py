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
from repro.perf.harness import BENCH_FIGURES, _digest
from repro.sim import (
    SCHEDULERS,
    CalendarScheduler,
    Engine,
    HeapScheduler,
    SimulationError,
    create_scheduler,
)

#: The nine figure scenarios plus the open-loop serving workload —
#: every campaign whose results the paper reproduction leans on.
PARITY_SCENARIOS = [
    "fig3", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "sec6g", "scalability", "mt-serving",
]


class TestFigureParity:
    @pytest.mark.parametrize("name", PARITY_SCENARIOS)
    def test_heap_and_wheel_fingerprints_identical(self, name, monkeypatch):
        digests = {}
        for scheduler in sorted(SCHEDULERS):
            monkeypatch.setenv("REPRO_SCHEDULER", scheduler)
            runner = ParallelSweepRunner(jobs=1)
            result = BENCH_FIGURES[name](ExperimentScale.quick(),
                                         runner=runner)
            digests[scheduler] = _digest(result)
        reference = digests.pop("heap")
        for scheduler, digest in digests.items():
            assert digest == reference, (
                f"{name}: {scheduler} scheduler diverged from the heap"
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
    while len(scheduler):
        now = scheduler.next_time()
        batch = scheduler.start_cycle()
        i = 0
        while i < len(batch):
            batch[i]()
            i += 1
        scheduler.finish_cycle()
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
        before = Engine.schedule
        with Engine.record_delay_histogram():
            assert Engine.schedule is not before
        assert Engine.schedule is before


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
