#!/usr/bin/env python
"""Trace a figure campaign and inspect where the simulated time went.

Runs the Fig. 12 FM-seeding campaign at quick scale inside a
`TraceSession`, writes a Chrome/Perfetto-loadable `trace.json` (plus a
`metrics.csv` of sampled live counters), and prints the five busiest
components by total span time.  Open the JSON in https://ui.perfetto.dev
to see DRAM commands, CXL flit traffic, PE occupancy, and task lifetimes
on one timeline; `docs/OBSERVABILITY.md` is the full reference.

Run:  python examples/trace_run.py  [figure]     (default: fig12)
"""

import sys
import time

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.obs import TraceSession, busiest_components
from repro.perf.harness import BENCH_FIGURES


def main() -> None:
    figure = sys.argv[1] if len(sys.argv) > 1 else "fig12"
    if figure not in BENCH_FIGURES:
        raise SystemExit(f"unknown figure {figure!r}; "
                         f"pick one of {sorted(BENCH_FIGURES)}")

    # Tracing is installed process-globally, so the experiment must run
    # in-process: a serial runner (jobs=1) instead of a worker pool.
    runner = ParallelSweepRunner(jobs=1)
    session = TraceSession(metrics_interval=50_000)
    started = time.time()
    with session:
        BENCH_FIGURES[figure](ExperimentScale.quick(), runner=runner)
    print(f"\n{figure} ran traced in {time.time() - started:.1f}s")

    recorder = session.recorder
    session.save("trace.json", metrics_path="metrics.csv")
    print(f"{recorder.recorded:,} events ({recorder.dropped} dropped) "
          f"across layers: {', '.join(sorted(recorder.layers()))}")
    print(f"{session.sampler.sample_count} live-metric samples")
    print("wrote trace.json + metrics.csv")

    print("\ntop 5 components by total span time:")
    for path, busy_us in busiest_components(recorder, n=5):
        print(f"  {path:48s} {busy_us:12,.1f} us")
    print("\nopen trace.json in https://ui.perfetto.dev or chrome://tracing")


if __name__ == "__main__":
    main()
