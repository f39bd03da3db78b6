"""Test-suite configuration.

Hypothesis runs with a generous deadline (the event-driven simulations
inside some properties are CPU-heavy, and wall-clock varies with machine
load) and deterministic derandomization so CI failures reproduce locally.

The ``quick_wheel_results`` fixture simulates every benched scenario once
per session, so the end-to-end and parity suites share one pass.
:func:`walk_reports` finds the Reports inside a result object.
"""

from dataclasses import fields, is_dataclass

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def quick_wheel_results():
    """Every ``BENCH_FIGURES`` scenario at quick scale: name -> result.

    The same pass ``python -m repro bench`` records
    (:func:`repro.perf.simulate_figures`).  The wheel scheduler is pinned
    whatever ``REPRO_SCHEDULER`` says, so a suite run under the heap still
    compares the heap against the wheel.
    """
    from repro.perf import simulate_figures
    from repro.sim import SCHEDULER_ENV

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SCHEDULER_ENV, "wheel")
        return simulate_figures()


def walk_reports(obj):
    """Every :class:`~repro.core.metrics.Report` reachable from ``obj``:
    dataclass fields, dict values, list and tuple items, in order."""
    from repro.core.metrics import Report

    if isinstance(obj, Report):
        yield obj
    elif is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from walk_reports(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from walk_reports(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from walk_reports(value)
