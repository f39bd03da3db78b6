"""Result verifier: every benched figure stays bit-identical.

``python -m repro bench`` runs every figure twice at quick scale — once on
the production path, once on the serial/uncached/heap reference path with
every observer attached — asserts the two full-result digests match, and
writes them to ``BENCH_results.json``.  Host time is measured by
``bench/``, not here.
"""

from repro.perf.harness import (
    BENCH_SCHEMA,
    BenchMismatchError,
    bench_figures,
    fingerprint,
    run_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchMismatchError",
    "bench_figures",
    "fingerprint",
    "run_bench",
]
