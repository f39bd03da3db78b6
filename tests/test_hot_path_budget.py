"""Host-call budget of the untraced hot path.

One quick-scale BEACON-D full-optimization FM-seeding point (dataset Pt,
11,048 events) runs under ``cProfile``; its total Python calls (functions
and builtins) per executed event must stay at or below a per-scheduler
ceiling.  The count is deterministic: it does not depend on
``PYTHONHASHSEED``, wall time or machine load.  A warm-up run of the same
point first fills the process-wide caches (index cache, lazy imports), so
the measured run does not depend on which tests ran before it.

The ceilings are the measured counts (CPython 3.11: wheel 17.28, heap
18.27 calls/event) plus 2%.  A change that adds a frame to the
per-request path fails here.  Raising a ceiling needs a measured reason
in CHANGES.md.
"""

import cProfile
import pstats

import pytest

from repro.core.config import Algorithm, OptimizationFlags
from repro.core.registry import build_system
from repro.experiments.runner import ExperimentScale
from repro.sim import SCHEDULER_ENV
from repro.sim.engine import Engine

#: Calls per executed event, per scheduler.
CEILINGS = {"wheel": 17.62, "heap": 18.63}

#: Events the point executes; a different count means the point changed,
#: not the host cost.
EVENTS = 11_048


def _run_point():
    """Build and run the point; returns (events executed, total calls)."""
    scale = ExperimentScale.quick()
    algorithm = Algorithm.FM_SEEDING
    spec = next(s for s in scale.seeding_datasets() if s.name == "Pt")
    workload = scale.seeding_workload(spec)
    _label, flags = OptimizationFlags.cumulative_steps("beacon-d", algorithm)[-1]
    system = build_system("beacon-d", scale.config_for(algorithm), flags,
                          label="call budget")
    before = Engine.global_events_executed()
    profile = cProfile.Profile()
    profile.enable()
    try:
        system.run_algorithm(algorithm, workload)
    finally:
        profile.disable()
    events = Engine.global_events_executed() - before
    return events, pstats.Stats(profile).total_calls


@pytest.mark.parametrize("scheduler", sorted(CEILINGS))
def test_calls_per_event_within_budget(scheduler, monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    monkeypatch.setattr(Engine, "default_tracer", None)
    _run_point()  # warm-up
    events, calls = _run_point()
    assert events == EVENTS
    per_event = calls / events
    assert per_event <= CEILINGS[scheduler], (
        f"{scheduler}: {per_event:.2f} calls/event "
        f"({calls} calls over {events} events) exceeds the "
        f"{CEILINGS[scheduler]} ceiling"
    )
