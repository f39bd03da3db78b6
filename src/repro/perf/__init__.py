"""Result digests: every benched figure stays bit-identical.

``python -m repro bench`` simulates every figure once at quick scale and
writes the full-result digests to ``BENCH_results.json``; tier-1 compares
the same pass with the committed file.  Host time is measured by
``bench/``, not here.
"""

from repro.perf.harness import (
    BENCH_SCHEMA,
    result_digest,
    run_bench,
    simulate_figures,
)

__all__ = [
    "BENCH_SCHEMA",
    "result_digest",
    "run_bench",
    "simulate_figures",
]
