"""Test-suite configuration.

Hypothesis runs with a generous deadline (the event-driven simulations
inside some properties are CPU-heavy, and wall-clock varies with machine
load) and deterministic derandomization so CI failures reproduce locally.

The ``quick_wheel_results`` fixture simulates every benched scenario once
per session, so the end-to-end and parity suites share one pass.
"""

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

    One serial runner runs them in registry order, so fig17 and sec6g
    assemble their step runs from the runner's step memo.  The wheel
    scheduler is pinned whatever ``REPRO_SCHEDULER`` says, so a suite run
    under the heap still compares the heap against the wheel.
    """
    from repro.experiments import ExperimentScale, ParallelSweepRunner
    from repro.perf.harness import BENCH_FIGURES
    from repro.sim import SCHEDULER_ENV

    scale = ExperimentScale.quick()
    runner = ParallelSweepRunner(jobs=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SCHEDULER_ENV, "wheel")
        return {name: run(scale, runner=runner)
                for name, run in BENCH_FIGURES.items()}
