"""One-pass result verifier behind ``python -m repro bench``.

Each benched figure is simulated exactly twice at quick scale:

1. a *production* run: the configured job count, the controller's timing
   plan cache and the cross-run index cache on, the default event
   scheduler, and
2. a *reference* run: serial, both caches off
   (``REPRO_DISABLE_PLAN_CACHE=1``, ``REPRO_DISABLE_INDEX_CACHE=1``), the
   ``heap`` reference scheduler, and every observer attached at once — a
   profiling :class:`~repro.obs.TraceSession` with metric sampling, a run
   ledger in a temp file, and a progress line sent to a string buffer.

The two results must have the same full-result digest (:func:`_digest`):
every field of the result object, not only its
:class:`~repro.core.metrics.Report`\\ s.  Caching, fan-out, the scheduler
choice and the observers are all pure host-side concerns, so any
divergence is a bug and raises :class:`BenchMismatchError`.

Host time is not measured here; ``bench/`` is the host-time instrument.

``BENCH_results.json`` schema (``repro-bench/4``) is deterministic — the
same code writes the same bytes, whatever the job count or environment::

    {
      "schema": "repro-bench/4",
      "scale": "quick",
      "figures": {
        "<figure>": {
          "digest": <str>,              # sha256 of the full result
          "verified_identical": <bool>  # production == reference
        }, ...
      }
    }
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.metrics import Report
from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.scenarios import (
    SCENARIOS,
    ensure_registered,
    resolve_scenario,
)
from repro.genomics import index_cache
from repro.schemas import SCHEMAS
from repro.sim.scheduler import DEFAULT_SCHEDULER, SCHEDULER_ENV, HeapScheduler

BENCH_SCHEMA = SCHEMAS["bench"]

ensure_registered()

#: The benched campaigns: name -> ``run(scale, runner)`` callable.  Built
#: from the scenario registry, so registration order *is* bench order and
#: every scenario registered by ``ensure_registered`` is benched.
BENCH_FIGURES: Dict[str, Callable[..., Any]] = {
    name: spec.run for name, spec in SCENARIOS.items()
}


def resolve_figure(name: str) -> Optional[str]:
    """Resolve a figure name or alias to its :data:`BENCH_FIGURES` key.

    Delegates to the scenario registry's
    :func:`~repro.experiments.scenarios.resolve_scenario`, so the bench
    key itself (``fig16``), declared aliases, and the experiment-module
    style (``fig16_prealignment``, ``fig16-prealignment``) all work;
    returns ``None`` when nothing matches.
    """
    canonical = resolve_scenario(name)
    return canonical if canonical in BENCH_FIGURES else None


# -- result fingerprinting ---------------------------------------------------------


def _walk_reports(obj: Any) -> Iterator[Report]:
    """Yield every :class:`Report` reachable from a result object, in a
    deterministic traversal order (dataclass field order, list order,
    insertion order for dicts)."""
    if isinstance(obj, Report):
        yield obj
        return
    if is_dataclass(obj) and not isinstance(obj, type):
        for f in fields(obj):
            yield from _walk_reports(getattr(obj, f.name))
        return
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _walk_reports(value)
        return
    if isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _walk_reports(value)


def fingerprint(result: Any) -> List[Tuple]:
    """Exact (bit-identical) digest of every report in a figure result."""
    return [
        (
            r.label,
            r.system,
            r.algorithm,
            r.dataset,
            r.runtime_cycles,
            r.energy_dram_nj,
            r.energy_comm_nj,
            r.energy_compute_nj,
            r.tasks_completed,
            r.mem_requests,
        )
        for r in _walk_reports(result)
    ]


def _canonical(obj: Any) -> str:
    """Canonical text of a whole result object.

    Dataclasses render as ``Name(field=...,...)`` in field order, dicts
    and sequences in iteration order.  Floats go through
    ``float.__repr__`` (shortest round-trip form), so a numpy float
    scalar reads the same as the Python float it equals and the text
    does not depend on the numpy version.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}" for f in fields(obj)
        )
        return f"{type(obj).__name__}({inner})"
    if isinstance(obj, dict):
        return "{" + ",".join(
            f"{_canonical(key)}:{_canonical(value)}"
            for key, value in obj.items()
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(value) for value in obj) + "]"
    if isinstance(obj, float):
        return float.__repr__(obj)
    return repr(obj)


def _digest(result: Any) -> str:
    """sha256 of :func:`_canonical`: the full-result digest.

    Stricter than :func:`fingerprint`: besides the Report fields it covers
    every derived series and scalar (fig13's chip profiles and fig17's
    energy shares publish no Report at all), with floats compared exactly.
    """
    return hashlib.sha256(_canonical(result).encode("utf-8")).hexdigest()


class BenchMismatchError(AssertionError):
    """A production run diverged from the serial/uncached reference."""


# -- the verifier ------------------------------------------------------------------


def _set_environ(values: Mapping[str, Optional[str]]) -> None:
    for name, value in values.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value


@contextlib.contextmanager
def _environ(values: Mapping[str, Optional[str]]) -> Iterator[None]:
    """Set (or, for ``None``, unset) environment variables for a block.

    Pool workers inherit the environment, so this also pins the settings
    of a fanned-out production run.
    """
    previous = {name: os.environ.get(name) for name in values}
    _set_environ(values)
    try:
        yield
    finally:
        _set_environ(previous)


_PLAN_CACHE_DISABLE_ENV = "REPRO_DISABLE_PLAN_CACHE"

#: The production path: both caches on, the default scheduler.
_PRODUCTION_ENV = {
    SCHEDULER_ENV: DEFAULT_SCHEDULER,
    _PLAN_CACHE_DISABLE_ENV: None,
    index_cache.DISABLE_ENV: None,
}

#: The always-recompute path on the reference scheduler.
_REFERENCE_ENV = {
    SCHEDULER_ENV: HeapScheduler.name,
    _PLAN_CACHE_DISABLE_ENV: "1",
    index_cache.DISABLE_ENV: "1",
}

#: Event cap for the reference run's trace recorder: small on purpose —
#: the point is exercising the instrumented code paths, not keeping events.
TRACE_VERIFY_LIMIT = 50_000


def _reference_run(fn: Callable[..., Any], scale: ExperimentScale) -> Any:
    """Serial, uncached, heap-scheduled run with every observer attached.

    The ledger goes to a throwaway temp file and the progress line to an
    in-memory stream, so the run leaves no artifacts.
    """
    from repro.obs import TraceSession
    from repro.obs.session import DEFAULT_METRICS_INTERVAL

    with tempfile.TemporaryDirectory() as tmp, _environ(_REFERENCE_ENV):
        runner = ParallelSweepRunner(
            jobs=1,
            ledger_path=os.path.join(tmp, "verify-ledger.jsonl"),
            progress=True,
            progress_stream=io.StringIO(),
        )
        with TraceSession(limit=TRACE_VERIFY_LIMIT, profile=True,
                          metrics_interval=DEFAULT_METRICS_INTERVAL):
            return fn(scale, runner=runner)


def bench_figures(
    figures: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, Any]]:
    """Verify each figure's production run against its reference run.

    Returns the ``figures`` table of ``BENCH_results.json``:
    ``{name: {"digest": ..., "verified_identical": True}}``.  Raises
    :class:`BenchMismatchError` on the first figure whose two digests
    differ.
    """
    names = list(figures) if figures is not None else list(BENCH_FIGURES)
    unknown = sorted(set(names) - set(BENCH_FIGURES))
    if unknown:
        raise ValueError(f"unknown bench figures: {unknown}")
    scale = ExperimentScale.quick()
    runner = ParallelSweepRunner(jobs=jobs)
    table: Dict[str, Dict[str, Any]] = {}
    for name in names:
        fn = BENCH_FIGURES[name]
        if progress:
            progress(f"[bench] {name}: production run, then reference run ...")
        with _environ(_PRODUCTION_ENV):
            digest = _digest(fn(scale, runner=runner))
        reference = _digest(_reference_run(fn, scale))
        if digest != reference:
            raise BenchMismatchError(
                f"{name}: the production run (jobs={runner.jobs}, caches on, "
                f"{DEFAULT_SCHEDULER} scheduler) diverges from the reference "
                f"run (serial, caches off, {HeapScheduler.name} scheduler, "
                "observers on): result digest "
                f"{digest[:12]} != {reference[:12]}"
            )
        table[name] = {"digest": digest, "verified_identical": True}
    return table


def run_bench(
    figures: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    output: str = "BENCH_results.json",
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, Any]:
    """The ``python -m repro bench`` entry point: verify, then persist."""
    payload = {
        "schema": BENCH_SCHEMA,
        "scale": "quick",
        "figures": bench_figures(figures=figures, jobs=jobs,
                                 progress=progress),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if progress:
        for name, entry in payload["figures"].items():
            progress(f"[bench] {name:14s} {entry['digest'][:16]}  [ok]")
        progress(f"[bench] wrote {output}")
    return payload
