"""Host-call budget of the untraced hot path.

Two quick-scale BEACON-D full-optimization points run under ``cProfile``:
FM seeding on dataset Pt (11,048 events) and k-mer counting on the quick
k-mer workload (105,075 events).  Each point's total Python calls
(functions and builtins) per executed event must stay at or below a
per-scheduler ceiling.  The counts are deterministic: they do not depend
on ``PYTHONHASHSEED``, wall time or machine load.  A warm-up run of the
same point first fills the process-wide caches (index cache, lazy
imports), so the measured run does not depend on which tests ran before
it.

The ceilings (CPython 3.11) are FM seeding wheel 17.62, heap 18.63
calls/event, and k-mer counting wheel 13.55, heap 14.87: measured counts
plus 2% when they were last set.  Measured now: FM seeding 16.63 and
17.62, k-mer counting 13.20 and 14.50, so the FM ceilings sit about 6%
above the measurement since each ``Report`` makes one stat walk.
Per-event counters are attribute tallies and cost no call; reading them
back costs one ``pull`` hook call per owner scope per walk (77 hook calls
and 368 ``walk`` frames on the FM point), a per-run cost that the FM
point's 11,048 events spread to 0.04 calls/event.  A change that adds a
frame to the per-request path fails here.  Raising a ceiling needs a
measured reason in CHANGES.md.

Per-k-mer hashing is under 2% of the k-mer point's calls (hashing each
k-mer in Python gave 13.53 calls/event on the wheel), so its calls/event
ceiling alone would not notice that path coming back.  The k-mer point
therefore also caps the calls to ``repro.genomics`` functions per k-mer
step: 1.04 today (one ``insert_slots`` per k-mer, one ``kmer_slots`` per
read), 13.02 when each k-mer was hashed in Python.
"""

import cProfile
import os
import pstats

import pytest

import repro.genomics
from repro.core.config import Algorithm, OptimizationFlags
from repro.core.registry import build_system
from repro.experiments.runner import ExperimentScale
from repro.sim import SCHEDULER_ENV
from repro.sim.engine import Engine

#: Calls per executed event, per scheduler.
CEILINGS = {"wheel": 17.62, "heap": 18.63}
KMER_CEILINGS = {"wheel": 13.55, "heap": 14.87}

#: Events each point executes; a different count means the point changed,
#: not the host cost.
EVENTS = 11_048
KMER_EVENTS = 105_075

#: Calls to ``repro.genomics`` functions per k-mer step (measured 1.04).
GENOMICS_CALLS_PER_KMER = 1.06

_GENOMICS_DIR = os.path.dirname(repro.genomics.__file__) + os.sep


def _fm_point():
    """The FM-seeding point: algorithm, scale, workload, run kwargs."""
    scale = ExperimentScale.quick()
    spec = next(s for s in scale.seeding_datasets() if s.name == "Pt")
    return Algorithm.FM_SEEDING, scale, scale.seeding_workload(spec), {}


def _kmer_point():
    """The k-mer counting point: algorithm, scale, workload, run kwargs."""
    scale = ExperimentScale.quick()
    kwargs = {"k": scale.kmer_k, "num_counters": scale.num_counters}
    return Algorithm.KMER_COUNTING, scale, scale.kmer_workload(), kwargs


def _run_point(point):
    """Build and run the point; returns (events executed, pstats.Stats)."""
    algorithm, scale, workload, kwargs = point
    _label, flags = OptimizationFlags.cumulative_steps("beacon-d", algorithm)[-1]
    system = build_system("beacon-d", scale.config_for(algorithm), flags,
                          label="call budget")
    before = Engine.global_events_executed()
    profile = cProfile.Profile()
    profile.enable()
    try:
        system.run_algorithm(algorithm, workload, **kwargs)
    finally:
        profile.disable()
    events = Engine.global_events_executed() - before
    return events, pstats.Stats(profile)


def _measure(point, scheduler, monkeypatch):
    monkeypatch.setenv(SCHEDULER_ENV, scheduler)
    monkeypatch.setattr(Engine, "default_tracer", None)
    _run_point(point())  # warm-up
    return _run_point(point())


def _assert_within(scheduler, events, calls, ceiling):
    per_event = calls / events
    assert per_event <= ceiling, (
        f"{scheduler}: {per_event:.2f} calls/event "
        f"({calls} calls over {events} events) exceeds the "
        f"{ceiling} ceiling"
    )


@pytest.mark.parametrize("scheduler", sorted(CEILINGS))
def test_calls_per_event_within_budget(scheduler, monkeypatch):
    events, stats = _measure(_fm_point, scheduler, monkeypatch)
    assert events == EVENTS
    _assert_within(scheduler, events, stats.total_calls, CEILINGS[scheduler])


@pytest.mark.parametrize("scheduler", sorted(KMER_CEILINGS))
def test_kmer_counting_within_budget(scheduler, monkeypatch):
    events, stats = _measure(_kmer_point, scheduler, monkeypatch)
    assert events == KMER_EVENTS
    _assert_within(scheduler, events, stats.total_calls,
                   KMER_CEILINGS[scheduler])
    _algorithm, scale, workload, _kwargs = _kmer_point()
    kmers = sum(len(read) - scale.kmer_k + 1 for read in workload.reads)
    genomics_calls = sum(
        row[1] for (filename, _line, _name), row in stats.stats.items()
        if filename.startswith(_GENOMICS_DIR)
    )
    assert genomics_calls / kmers <= GENOMICS_CALLS_PER_KMER, (
        f"{genomics_calls} repro.genomics calls over {kmers} k-mer steps: "
        "k-mers are being hashed per step again"
    )
