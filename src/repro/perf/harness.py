"""Digest writer behind ``python -m repro bench``.

Each benched figure is simulated exactly once at quick scale
(:func:`simulate_figures`) and its full-result digest
(:func:`result_digest`) is written to ``BENCH_results.json``.  Tier-1
compares the same pass with the committed file.  Host time is measured by
``bench/``, not here.

``BENCH_results.json`` schema (``repro-bench/4``) is deterministic — the
same code writes the same bytes::

    {
      "schema": "repro-bench/4",
      "scale": "quick",
      "figures": {
        "<figure>": {
          "digest": <str>,              # sha256 of the full result
          "verified_identical": <bool>  # always true: tier-1 verifies it
        }, ...
      }
    }
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.experiments import ExperimentScale, ParallelSweepRunner
from repro.experiments.scenarios import SCENARIOS, ensure_registered
from repro.schemas import SCHEMAS

BENCH_SCHEMA = SCHEMAS["bench"]

ensure_registered()

#: The benched campaigns: name -> ``run(scale, runner)`` callable.  Built
#: from the scenario registry, so registration order *is* bench order and
#: every scenario registered by ``ensure_registered`` is benched.
BENCH_FIGURES: Dict[str, Callable[..., Any]] = {
    name: spec.run for name, spec in SCENARIOS.items()
}


# -- result digest -----------------------------------------------------------------


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


def result_digest(result: Any) -> str:
    """sha256 of :func:`_canonical`: the full-result digest.

    The one result-equality notion: ``BENCH_results.json`` records it per
    figure, and the run ledger per job.  It covers every field of the
    result, not only its Reports (fig13's chip profiles and fig17's
    energy shares publish no Report at all), with floats compared exactly.
    """
    return hashlib.sha256(_canonical(result).encode("utf-8")).hexdigest()


# -- the digest writer -------------------------------------------------------------


def simulate_figures(figures: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Every benched figure (or ``figures``) at quick scale: name -> result.

    One serial runner runs them in registry order, so fig17 and sec6g
    assemble their step runs from the runner's step memo.
    """
    names = list(figures) if figures is not None else list(BENCH_FIGURES)
    unknown = sorted(set(names) - set(BENCH_FIGURES))
    if unknown:
        raise ValueError(f"unknown bench figures: {unknown}")
    scale = ExperimentScale.quick()
    runner = ParallelSweepRunner(jobs=1)
    return {name: BENCH_FIGURES[name](scale, runner=runner) for name in names}


def run_bench(
    figures: Optional[Sequence[str]] = None,
    output: str = "BENCH_results.json",
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, Any]:
    """The ``python -m repro bench`` entry point: simulate, then persist."""
    payload = {
        "schema": BENCH_SCHEMA,
        "scale": "quick",
        "figures": {
            name: {"digest": result_digest(result), "verified_identical": True}
            for name, result in simulate_figures(figures).items()
        },
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if progress:
        for name, entry in payload["figures"].items():
            progress(f"[bench] {name:14s} {entry['digest'][:16]}")
        progress(f"[bench] wrote {output}")
    return payload
