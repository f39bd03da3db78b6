"""Scenario registry: every figure campaign as a declarative spec.

Layer 3 of the stack (see docs/ARCHITECTURE.md).  A *scenario* is one
reproducible campaign — a figure, a table section, an extension study —
described declaratively by a :class:`ScenarioSpec`: how to expand an
:class:`~repro.experiments.runner.ExperimentScale` into independent
:class:`~repro.experiments.parallel.SweepJob`s, how to fold the jobs'
results back into the figure's result object, and how to print the
paper-style rows.  The ``fig*`` modules shrink to their spec plus the
figure-specific result types; everything that used to be per-figure
boilerplate — runner resolution, job fan-out, ordered collection — runs
once here, through the same :class:`~repro.experiments.parallel.
ParallelSweepRunner` path serial or parallel.

The registry also owns name resolution: canonical names (``fig12``),
declared aliases, and the historical module-style spellings
(``fig12_fm_seeding``, ``fig12-fm-seeding``) all resolve via
:func:`resolve_scenario`, which the CLI's ``run``, ``trace`` and
``profile`` verbs all use.

Scenario modules register themselves at import time
(:func:`register_scenario` at module scope); :func:`ensure_registered`
imports the built-in campaign modules — the nine paper campaigns plus
the open-loop multi-tenant serving family (:mod:`repro.experiments.
tenants`) — so every consumer sees the full catalogue without importing
figure modules by hand.  Scenarios can also be authored as data files:
:mod:`repro.experiments.dsl` compiles a validated YAML/dict payload into
a :class:`ScenarioSpec` (see docs/SCENARIOS.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import (
    ParallelSweepRunner,
    SweepJob,
    resolve_runner,
)
from repro.experiments.runner import ExperimentScale


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative campaign: jobs in, result object out.

    ``build_jobs`` expands a scale into the campaign's independent sweep
    jobs (every job function must be a picklable module-level callable);
    ``collect`` folds the runner's ``{key: result}`` mapping — always in
    submission order, parallel or not — into the figure's result object;
    ``present`` prints the paper-style rows for one collected result.
    """

    name: str
    title: str
    description: str
    build_jobs: Callable[[ExperimentScale], Sequence[SweepJob]]
    collect: Callable[[ExperimentScale, Dict[str, Any]], Any]
    present: Optional[Callable[[Any], None]] = None
    aliases: Tuple[str, ...] = ()
    #: Catalogue metadata (``python -m repro catalogue``): the backends the
    #: campaign builds, the workload drivers it exercises, and the axes its
    #: jobs sweep.  Purely descriptive — execution is entirely defined by
    #: ``build_jobs``/``collect``/``present``.
    backends: Tuple[str, ...] = ()
    drivers: Tuple[str, ...] = ()
    sweep_axes: Tuple[str, ...] = ()

    def run(self, scale: Optional[ExperimentScale] = None,
            runner: Optional[ParallelSweepRunner] = None) -> Any:
        """Execute the campaign at ``scale``; returns the result object."""
        scale = scale if scale is not None else ExperimentScale.bench()
        runner = resolve_runner(runner)
        results = runner.run(list(self.build_jobs(scale)), label=self.name)
        return self.collect(scale, results)

    def main(self, scale: Optional[ExperimentScale] = None,
             runner: Optional[ParallelSweepRunner] = None) -> Any:
        """Run the campaign and print the paper-style rows."""
        result = self.run(scale, runner=runner)
        if self.present is not None:
            self.present(result)
        return result


#: Canonical name -> spec, in registration order (the bench order).
SCENARIOS: Dict[str, ScenarioSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` (and its aliases) to the registry; collisions raise."""
    for name in (spec.name,) + spec.aliases:
        if name in SCENARIOS or name in _ALIASES:
            raise ValueError(f"scenario name {name!r} is already registered")
    SCENARIOS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def ensure_registered() -> None:
    """Import the built-in campaign modules (idempotent).

    Import order is the canonical bench order; each module registers its
    spec at import time.
    """
    from repro.experiments import (  # noqa: F401  (imported for the side effect)
        fig3_idealized,
        fig12_fm_seeding,
        fig13_coalescing,
        fig14_hash_seeding,
        fig15_kmer_counting,
        fig16_prealignment,
        fig17_energy_breakdown,
        summary,
        scalability,
        tenants,
    )


def scenario_names() -> List[str]:
    """Canonical scenario names, registration (= bench) order."""
    ensure_registered()
    return list(SCENARIOS)


def resolve_scenario(name: str) -> Optional[str]:
    """Resolve a scenario name, alias, or module-style spelling.

    Accepts the canonical name (``fig16``), declared aliases, and the
    experiment-module style (``fig16_prealignment``,
    ``fig16-prealignment``); returns the canonical name, or ``None``
    when nothing matches.
    """
    ensure_registered()
    if name in SCENARIOS:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    head = re.split(r"[_\-.]", name, maxsplit=1)[0]
    if head in SCENARIOS:
        return head
    return _ALIASES.get(head)


def get_scenario(name: str) -> ScenarioSpec:
    """The spec for ``name`` (resolving aliases); ValueError if unknown."""
    canonical = resolve_scenario(name)
    if canonical is None:
        raise ValueError(
            f"unknown scenario {name!r}; registered: {scenario_names()}"
        )
    return SCENARIOS[canonical]


def run_scenario(name: str, scale: Optional[ExperimentScale] = None,
                 runner: Optional[ParallelSweepRunner] = None) -> Any:
    """Resolve ``name`` and execute it (no printing); returns the result."""
    return get_scenario(name).run(scale, runner=runner)


def main_scenario(name: str, scale: Optional[ExperimentScale] = None,
                  runner: Optional[ParallelSweepRunner] = None) -> Any:
    """Resolve ``name``, execute it, and print the paper-style rows."""
    return get_scenario(name).main(scale, runner=runner)
