"""One cold child process: a pass of one workload, or only its set-up.

    python bench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (set-up only), ``pass`` (set-up, then every point) or
``trace`` (a pass under cProfile, folded into per-layer host time).  The
child prints one JSON object as the last line of its standard output.
``run.py`` starts it with a clean environment and reads that line.

Host speed on a shared machine drifts by tens of percent within minutes,
so the child also times a fixed pure-Python kernel every
:data:`SAMPLE_PERIOD_S` seconds (from a timer signal), plus at its start
and end, with the wall clock stopped meanwhile.  ``run.py`` rescales every
host time by ``speed``, the mean of the samples' reference-to-measured
kernel time ratios, which cancels most of that drift.  A traced child
samples only at its start and end, so that the kernel stays out of the
profile.
"""

import time

T0 = time.perf_counter()

import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from digest import digest  # noqa: E402

#: Median time of :func:`calibration_kernel` on the reference host (an
#: otherwise idle 2 GHz Xeon, Python 3.11); normalized host times read in
#: seconds on that host.
REFERENCE_KERNEL_S = 0.019
SAMPLE_PERIOD_S = 0.5
#: Kernel runs at the start and at the end of a child.
EDGE_SAMPLES = 3


def calibration_kernel() -> int:
    """Fixed pure-Python work: dict stores and integer arithmetic."""
    table = {}
    acc = 0
    for i in range(150_000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1_000_003
    return acc


class Clock:
    """The child's wall time since its first statement, minus calibration."""

    def __init__(self) -> None:
        self.paused = 0.0
        self.speeds = []

    def elapsed(self) -> float:
        return time.perf_counter() - T0 - self.paused

    def sample(self, *_signal) -> None:
        """Time the kernel once (also the timer signal's handler)."""
        began = time.perf_counter()
        calibration_kernel()
        took = time.perf_counter() - began
        self.speeds.append(REFERENCE_KERNEL_S / took)
        self.paused += took

    def edge(self) -> None:
        for _ in range(EDGE_SAMPLES):
            self.sample()

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self) -> float:
        return statistics.fmean(self.speeds)


def point_record(workload, ctx, key: str, result) -> dict:
    """A point's digest and, if an invariant breaks, what broke."""
    try:
        return {"key": key, "digest": digest(result),
                "problem": workload.check(ctx, result)}
    except Exception as exc:  # a changed result shape fails the point
        return {"key": key, "digest": None,
                "problem": f"{type(exc).__name__}: {exc}"}


def main(workload: workloads.Workload, seed: int, mode: str) -> dict:
    """Set up (and unless ``mode`` is ``setup``, run) ``workload``; the
    record ``run.py`` reads."""
    clock = Clock()
    clock.edge()
    # builtins=False: time in C functions stays in the calling Python
    # function's self time, which is where the layer fold would charge it.
    profiler = cProfile.Profile(builtins=False) if mode == "trace" else None
    if profiler is None:
        clock.start_timer()
    else:
        profiler.enable()
    out = {"workload": workload.name, "seed": seed, "mode": mode, "error": None}
    results = []
    try:
        ctx = workload.setup(seed)
        out["setup_s"] = clock.elapsed()
        if mode != "setup":
            workload.run(ctx, lambda key, result: results.append((key, result)))
    except Exception:  # reported to run.py, which counts the failed point
        out["error"] = traceback.format_exc()
    out["wall_s"] = clock.elapsed()
    if profiler is None:
        clock.stop_timer()
    else:
        profiler.disable()
    clock.edge()
    out["speed"] = clock.speed()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["points"] = [point_record(workload, ctx, key, result)
                     for key, result in results]
    if mode == "setup" or out["error"]:
        return out

    from repro.genomics.index_cache import cache_stats
    from repro.sim.engine import Engine

    occupancy = Engine.process_occupancy().values()
    cycles = sum(o["cycles_started"] for o in occupancy)
    enqueued = sum(o["events_enqueued"] for o in occupancy)
    cache = cache_stats()
    out["events"] = Engine.global_events_executed()
    out["counters"] = {
        "sim.events": out["events"],
        "sim.cycles_started": cycles,
        "sim.avg_batch": enqueued / cycles if cycles else 0.0,
        "genomics.index_build_s": cache["build_s"],
        "genomics.index_cache_hits": cache["hits"],
        "genomics.index_cache_misses": cache["misses"],
        **workloads.counters([result for _key, result in results]),
    }
    if profiler is not None:
        import repro

        stats = pstats.Stats(profiler).stats
        out["layers"] = layers.fold(stats, os.path.dirname(repro.__file__))
        out["counters"]["core.driver_runs"] = layers.calls_to(
            stats, os.path.join("core", "drivers.py"), "run")
    return out


if __name__ == "__main__":
    result = main(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
    print(json.dumps(result))
