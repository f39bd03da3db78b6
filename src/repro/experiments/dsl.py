"""Declarative scenario DSL: validated YAML/dict payloads -> ScenarioSpec.

Authoring a new campaign no longer requires Python: a *scenario payload*
— a YAML (or JSON, or plain dict) document — names the backends, the
workload, and the sweep axes, and :func:`compile_payload` turns it into
the same :class:`~repro.experiments.scenarios.ScenarioSpec` the built-in
figure modules register, so ``python -m repro run my_scenario.yaml``,
:class:`~repro.experiments.parallel.ParallelSweepRunner` fan-out, and
the presentation path all work unchanged.  Two payload kinds exist:

* ``kind: sweep`` — the figure shape: backends x datasets x sweep-axis
  values, one closed-loop :class:`~repro.core.metrics.Report` per point;
* ``kind: multi-tenant`` — the open-loop serving shape of
  :mod:`repro.experiments.tenants`: tenants with seeded arrival
  processes and query mixes, swept over tenant count and offered rate.

Validation is **stdlib-only** and deterministic: every rule failure
raises :class:`PayloadError` carrying the exact field path
(``tenants[0].arrival.rate``) plus a stable message, so invalid payloads
always fail with a one-line diagnostic, never a traceback (the CLI's
``validate`` verb and the rejection tests in ``tests/test_dsl.py`` pin
this).  YAML parsing itself is gated on PyYAML: when the module is
missing, JSON payloads (a YAML subset) still load.

Determinism contract: a payload is normalized into frozen dataclasses
(:class:`ScenarioPayload`), job keys are derived from the payload alone,
and every job function is a picklable module-level callable — identical
payload + seed produce bit-identical results, serial or parallel.  The
full authoring guide, schema reference, and worked examples live in
docs/SCENARIOS.md.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import Algorithm, OptimizationFlags
from repro.core.metrics import Report, geometric_mean
from repro.core.registry import backend_names, build_system, get_backend
from repro.experiments.parallel import SweepJob
from repro.experiments.runner import ExperimentScale
from repro.experiments.scenarios import ScenarioSpec, register_scenario
from repro.experiments.tenants import (
    ARRIVAL_PROCESSES,
    QUERY_KINDS,
    ArrivalConfig,
    TenantSpec,
    collect_serving,
    present_serving,
    run_serving_point,
)
from repro.genomics.workloads import dataset_by_name, make_seeding_workload

#: Payload kinds this DSL compiles.
PAYLOAD_KINDS: Tuple[str, ...] = ("sweep", "multi-tenant")

#: Scenario names must look like registry names.
NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9_-]*$")

#: Axes a ``kind: sweep`` payload may sweep, with their value domains.
SWEEP_AXES: Tuple[str, ...] = (
    "read_scale", "genome_scale", "pe_divisor",
    "num_switches", "dimms_per_switch",
)
_FLOAT_AXES = ("read_scale", "genome_scale")

#: Driver name -> the algorithm it runs (the DSL reuses the query-kind
#: spellings of :mod:`repro.experiments.tenants` for driver names).
DRIVER_ALGORITHMS: Dict[str, Algorithm] = {
    "fm-seeding": Algorithm.FM_SEEDING,
    "hash-seeding": Algorithm.HASH_SEEDING,
    "kmer-counting": Algorithm.KMER_COUNTING,
    "prealignment": Algorithm.PREALIGNMENT,
}

#: Driver name -> the keyword parameters its run method accepts.
DRIVER_PARAMS: Dict[str, Tuple[str, ...]] = {
    "fm-seeding": (),
    "hash-seeding": ("k", "bucket_load"),
    "kmer-counting": ("k", "num_counters"),
    "prealignment": ("max_edits", "candidates_per_read"),
}

#: The optimization presets a sweep payload may pick.
OPTIMIZATION_CHOICES: Tuple[str, ...] = ("full", "vanilla")


class PayloadError(ValueError):
    """A payload failed validation at ``path`` (deterministic message)."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path or "<payload>"
        self.message = message
        super().__init__(f"{self.path}: {message}")


# ---------------------------------------------------------------------------
# Normalized payload (what validation produces).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept axis of a ``kind: sweep`` payload."""

    axis: str
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class WorkloadSection:
    """The workload of a ``kind: sweep`` payload."""

    driver: str
    datasets: Tuple[str, ...] = ("Pt",)
    params: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class TenantSweep:
    """The sweep grid of a ``kind: multi-tenant`` payload."""

    tenant_counts: Tuple[int, ...]
    arrival_scales: Tuple[float, ...]


@dataclass(frozen=True)
class ScenarioPayload:
    """A fully validated, normalized scenario payload."""

    name: str
    title: str
    description: str
    kind: str
    aliases: Tuple[str, ...]
    seed: int
    backends: Tuple[str, ...]
    #: ``kind: sweep`` sections (``None`` / empty for multi-tenant).
    workload: Optional[WorkloadSection] = None
    optimizations: str = "full"
    sweep_axes: Tuple[SweepAxis, ...] = ()
    #: ``kind: multi-tenant`` sections (empty for sweep).
    dataset: str = "Pt"
    tenants: Tuple[TenantSpec, ...] = ()
    tenant_sweep: Optional[TenantSweep] = None


# ---------------------------------------------------------------------------
# Validation helpers (stdlib-only, deterministic messages).
# ---------------------------------------------------------------------------


def _type_name(value: Any) -> str:
    return type(value).__name__


def _require_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise PayloadError(path, f"expected a mapping, got {_type_name(value)}")
    return value


def _reject_unknown(data: Mapping[str, Any], allowed: Sequence[str],
                    path: str) -> None:
    for key in sorted(data):
        if key not in allowed:
            prefix = f"{path}.{key}" if path else str(key)
            raise PayloadError(
                prefix, f"unknown field; allowed: {', '.join(allowed)}"
            )


def _get_str(data: Mapping[str, Any], key: str, path: str,
             default: Optional[str] = None,
             required: bool = False) -> Optional[str]:
    if key not in data:
        if required:
            raise PayloadError(_join(path, key), "required field is missing")
        return default
    value = data[key]
    if not isinstance(value, str):
        raise PayloadError(
            _join(path, key), f"expected str, got {_type_name(value)}"
        )
    return value


def _get_int(data: Mapping[str, Any], key: str, path: str,
             default: int, minimum: int) -> int:
    if key not in data:
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise PayloadError(
            _join(path, key), f"expected int, got {_type_name(value)}"
        )
    if value < minimum:
        raise PayloadError(_join(path, key), f"must be >= {minimum}")
    return value


def _positive_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PayloadError(path, f"expected a number, got {_type_name(value)}")
    if value <= 0:
        raise PayloadError(path, "must be > 0")
    return float(value)


def _get_list(data: Mapping[str, Any], key: str, path: str,
              required: bool = False, required_note: str = "") -> List[Any]:
    missing = key not in data
    value = None if missing else data[key]
    if missing or not isinstance(value, list) or not value:
        if missing and not required:
            return []
        note = f" {required_note}" if required_note else ""
        raise PayloadError(
            _join(path, key), f"must be a non-empty list{note}"
        )
    return value


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else str(key)


def _choice(value: str, choices: Sequence[str], path: str) -> str:
    if value not in choices:
        raise PayloadError(path, f"must be one of: {', '.join(choices)}")
    return value


# ---------------------------------------------------------------------------
# Section validators.
# ---------------------------------------------------------------------------

_TOP_LEVEL_FIELDS = (
    "scenario", "title", "description", "kind", "aliases", "seed",
    "backends", "workload", "optimizations", "sweep", "dataset", "tenants",
)


def _validate_backends(data: Mapping[str, Any], kind: str) -> Tuple[str, ...]:
    raw = _get_list(data, "backends", "", required=True)
    backends = []
    for i, entry in enumerate(raw):
        path = f"backends[{i}]"
        if not isinstance(entry, str):
            raise PayloadError(path, f"expected str, got {_type_name(entry)}")
        try:
            factory = get_backend(entry)
        except ValueError:
            raise PayloadError(
                path,
                f"unknown backend {entry!r}; registered: "
                f"{', '.join(backend_names())}"
            ) from None
        if kind == "multi-tenant" and factory.name == "cpu":
            raise PayloadError(
                path, "backend 'cpu' cannot serve multi-tenant workloads "
                      "(analytic model, no simulated pool)"
            )
        backends.append(factory.name)
    return tuple(backends)


def _validate_workload(data: Mapping[str, Any]) -> WorkloadSection:
    if "workload" not in data:
        raise PayloadError(
            "workload", "required field is missing (kind=sweep)"
        )
    section = _require_mapping(data["workload"], "workload")
    _reject_unknown(section, ("driver", "datasets", "params"), "workload")
    driver = _get_str(section, "driver", "workload", required=True)
    _choice(driver, tuple(DRIVER_ALGORITHMS), "workload.driver")
    raw_datasets = section.get("datasets", ["Pt"])
    if not isinstance(raw_datasets, list) or not raw_datasets:
        raise PayloadError("workload.datasets", "must be a non-empty list")
    datasets = []
    for i, name in enumerate(raw_datasets):
        path = f"workload.datasets[{i}]"
        if not isinstance(name, str):
            raise PayloadError(path, f"expected str, got {_type_name(name)}")
        try:
            dataset_by_name(name)
        except KeyError as exc:
            raise PayloadError(path, str(exc.args[0])) from None
        datasets.append(name)
    params_raw = _require_mapping(section.get("params", {}),
                                  "workload.params")
    allowed = DRIVER_PARAMS[driver]
    params = []
    for key in sorted(params_raw):
        path = f"workload.params.{key}"
        if key not in allowed:
            allowed_note = ", ".join(allowed) if allowed else "(none)"
            raise PayloadError(
                path, f"unknown parameter for driver {driver!r}; "
                      f"allowed: {allowed_note}"
            )
        value = params_raw[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise PayloadError(path, "expected a positive int")
        params.append((key, value))
    return WorkloadSection(driver=driver, datasets=tuple(datasets),
                           params=tuple(params))


def _validate_sweep_axes(data: Mapping[str, Any]) -> Tuple[SweepAxis, ...]:
    raw = data.get("sweep", [])
    if raw == []:
        return ()
    if not isinstance(raw, list):
        raise PayloadError(
            "sweep", f"expected a list of axes, got {_type_name(raw)}"
        )
    axes = []
    seen = []
    for i, entry in enumerate(raw):
        path = f"sweep[{i}]"
        section = _require_mapping(entry, path)
        _reject_unknown(section, ("axis", "values"), path)
        axis = _get_str(section, "axis", path, required=True)
        _choice(axis, SWEEP_AXES, f"{path}.axis")
        if axis in seen:
            raise PayloadError(f"{path}.axis", f"axis {axis!r} listed twice")
        seen.append(axis)
        values_raw = _get_list(section, "values", path, required=True)
        values = []
        for j, value in enumerate(values_raw):
            vpath = f"{path}.values[{j}]"
            if axis in _FLOAT_AXES:
                values.append(_positive_number(value, vpath))
            else:
                if isinstance(value, bool) or not isinstance(value, int) \
                        or value < 1:
                    raise PayloadError(vpath, "expected a positive int")
                values.append(value)
        axes.append(SweepAxis(axis=axis, values=tuple(values)))
    return tuple(axes)


def _validate_arrival(section: Mapping[str, Any], path: str) -> ArrivalConfig:
    _reject_unknown(section, ("process", "rate", "trace"), path)
    process = _get_str(section, "process", path, default="poisson")
    _choice(process, ARRIVAL_PROCESSES, f"{path}.process")
    if process == "trace":
        if "rate" in section:
            raise PayloadError(
                f"{path}.rate", "not allowed when process is 'trace'"
            )
        if "trace" not in section:
            raise PayloadError(
                f"{path}.trace", "required when process is 'trace'"
            )
        raw = section["trace"]
        if not isinstance(raw, list) or not raw:
            raise PayloadError(f"{path}.trace", "must be a non-empty list")
        previous = 0
        for j, cycle in enumerate(raw):
            if isinstance(cycle, bool) or not isinstance(cycle, int) \
                    or cycle <= previous:
                raise PayloadError(
                    f"{path}.trace",
                    "cycles must be strictly increasing positive integers"
                )
            previous = cycle
        return ArrivalConfig(process="trace", trace=tuple(raw))
    if "trace" in section:
        raise PayloadError(
            f"{path}.trace", f"only allowed when process is 'trace' "
                             f"(process is {process!r})"
        )
    rate = _positive_number(section.get("rate", 1.0), f"{path}.rate")
    return ArrivalConfig(process=process, rate_per_kcycle=rate)


def _validate_tenants(data: Mapping[str, Any]) -> Tuple[TenantSpec, ...]:
    raw = _get_list(data, "tenants", "", required=True,
                    required_note="(kind=multi-tenant)")
    tenants = []
    names = []
    for i, entry in enumerate(raw):
        path = f"tenants[{i}]"
        section = _require_mapping(entry, path)
        _reject_unknown(section, ("name", "arrival", "mix", "queries"), path)
        name = _get_str(section, "name", path, required=True)
        if name in names:
            raise PayloadError(f"{path}.name", f"tenant {name!r} listed twice")
        names.append(name)
        arrival = _validate_arrival(
            _require_mapping(section.get("arrival", {}), f"{path}.arrival"),
            f"{path}.arrival",
        )
        mix_raw = _require_mapping(
            section.get("mix", {"fm-seeding": 1.0}), f"{path}.mix"
        )
        if not mix_raw:
            raise PayloadError(f"{path}.mix", "must be a non-empty mapping")
        mix = []
        for kind in mix_raw:
            kpath = f"{path}.mix.{kind}"
            if kind not in QUERY_KINDS:
                raise PayloadError(
                    kpath, f"unknown query kind; known: "
                           f"{', '.join(QUERY_KINDS)}"
                )
            weight = mix_raw[kind]
            if isinstance(weight, bool) \
                    or not isinstance(weight, (int, float)) or weight <= 0:
                raise PayloadError(kpath, "weight must be > 0")
            mix.append((kind, float(weight)))
        queries = _get_int(section, "queries", path, default=32, minimum=1)
        tenants.append(TenantSpec(
            name=name, arrival=arrival, mix=tuple(mix), queries=queries,
        ))
    return tuple(tenants)


def _validate_tenant_sweep(data: Mapping[str, Any],
                           num_tenants: int) -> TenantSweep:
    raw = data.get("sweep", {})
    section = _require_mapping(raw, "sweep")
    _reject_unknown(section, ("tenant_counts", "arrival_scales"), "sweep")
    counts_raw = section.get("tenant_counts", [num_tenants])
    if not isinstance(counts_raw, list) or not counts_raw:
        raise PayloadError("sweep.tenant_counts", "must be a non-empty list")
    counts = []
    for i, count in enumerate(counts_raw):
        path = f"sweep.tenant_counts[{i}]"
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise PayloadError(path, "expected a positive int")
        counts.append(count)
    scales_raw = section.get("arrival_scales", [1.0])
    if not isinstance(scales_raw, list) or not scales_raw:
        raise PayloadError("sweep.arrival_scales", "must be a non-empty list")
    scales = [
        _positive_number(value, f"sweep.arrival_scales[{i}]")
        for i, value in enumerate(scales_raw)
    ]
    return TenantSweep(tenant_counts=tuple(counts),
                       arrival_scales=tuple(scales))


def validate_payload(data: Any) -> ScenarioPayload:
    """Validate a raw payload (dict) into a :class:`ScenarioPayload`.

    Raises :class:`PayloadError` — with the offending field path and a
    deterministic message — on the first rule violation.
    """
    data = _require_mapping(data, "<payload>")
    _reject_unknown(data, _TOP_LEVEL_FIELDS, "")
    name = _get_str(data, "scenario", "", required=True)
    if not NAME_PATTERN.match(name):
        raise PayloadError(
            "scenario",
            "must match ^[a-z0-9][a-z0-9_-]*$ (lowercase name)"
        )
    title = _get_str(data, "title", "", default=name)
    description = _get_str(data, "description", "", default="")
    kind = _get_str(data, "kind", "", default="sweep")
    _choice(kind, PAYLOAD_KINDS, "kind")
    aliases_raw = data.get("aliases", [])
    if not isinstance(aliases_raw, list):
        raise PayloadError(
            "aliases", f"expected a list, got {_type_name(aliases_raw)}"
        )
    aliases = []
    for i, alias in enumerate(aliases_raw):
        if not isinstance(alias, str):
            raise PayloadError(
                f"aliases[{i}]", f"expected str, got {_type_name(alias)}"
            )
        aliases.append(alias)
    seed = _get_int(data, "seed", "", default=0, minimum=0)
    backends = _validate_backends(data, kind)

    if kind == "sweep":
        for forbidden in ("dataset", "tenants"):
            if forbidden in data:
                raise PayloadError(
                    forbidden, "only allowed when kind is 'multi-tenant'"
                )
        workload = _validate_workload(data)
        optimizations = _get_str(data, "optimizations", "", default="full")
        _choice(optimizations, OPTIMIZATION_CHOICES, "optimizations")
        sweep_axes = _validate_sweep_axes(data)
        return ScenarioPayload(
            name=name, title=title, description=description, kind=kind,
            aliases=tuple(aliases), seed=seed, backends=backends,
            workload=workload, optimizations=optimizations,
            sweep_axes=sweep_axes,
        )

    for forbidden in ("workload", "optimizations"):
        if forbidden in data:
            raise PayloadError(
                forbidden, "only allowed when kind is 'sweep'"
            )
    dataset = _get_str(data, "dataset", "", default="Pt")
    try:
        dataset_by_name(dataset)
    except KeyError as exc:
        raise PayloadError("dataset", str(exc.args[0])) from None
    tenants = _validate_tenants(data)
    tenant_sweep = _validate_tenant_sweep(data, len(tenants))
    return ScenarioPayload(
        name=name, title=title, description=description, kind=kind,
        aliases=tuple(aliases), seed=seed, backends=backends,
        dataset=dataset, tenants=tenants, tenant_sweep=tenant_sweep,
    )


# ---------------------------------------------------------------------------
# Compilation: payload -> ScenarioSpec.
# ---------------------------------------------------------------------------


def run_sweep_point(backend: str, driver: str, dataset: str,
                    scale: ExperimentScale,
                    axis_items: Tuple[Tuple[str, Any], ...],
                    params: Tuple[Tuple[str, Any], ...],
                    optimizations: str) -> Report:
    """One ``kind: sweep`` payload point (picklable sweep-job entry).

    Axis overrides apply before construction: ``read_scale`` /
    ``genome_scale`` / ``pe_divisor`` rewrite the experiment scale
    (``pe_divisor`` sets the k-mer divisor too), ``num_switches`` /
    ``dimms_per_switch`` rewrite the pool topology.
    """
    algorithm = DRIVER_ALGORITHMS[driver]
    overrides = dict(axis_items)
    scale_updates: Dict[str, Any] = {}
    if "read_scale" in overrides:
        scale_updates["read_scale"] = float(overrides["read_scale"])
    if "genome_scale" in overrides:
        scale_updates["genome_scale"] = float(overrides["genome_scale"])
    if "pe_divisor" in overrides:
        scale_updates["pe_divisor"] = int(overrides["pe_divisor"])
        scale_updates["kmer_pe_divisor"] = int(overrides["pe_divisor"])
    if scale_updates:
        scale = replace(scale, **scale_updates)
    config = scale.config_for(algorithm)
    topology = {
        key: int(overrides[key])
        for key in ("num_switches", "dimms_per_switch")
        if key in overrides
    }
    if topology:
        config = replace(config, **topology)
    if optimizations == "full" and backend in ("beacon-d", "beacon-s"):
        flags = OptimizationFlags.all_for(backend, algorithm)
    else:
        flags = OptimizationFlags.vanilla()
    workload = make_seeding_workload(
        dataset_by_name(dataset),
        scale=scale.genome_scale, read_scale=scale.read_scale,
    )
    system = build_system(backend, config, flags,
                          label=f"{backend} {driver}")
    return system.run_algorithm(algorithm, workload, **dict(params))


@dataclass
class DslSweepResult:
    """All reports of one compiled ``kind: sweep`` scenario, job order."""

    name: str
    backends: Tuple[str, ...]
    reports: Dict[str, Report]

    def speedup_vs_first_backend(self, backend: str) -> float:
        """Geomean runtime speedup of ``backend`` over the first backend
        across matching (dataset, axis) points."""
        base = self.backends[0]
        ratios = []
        for key, report in self.reports.items():
            head, _slash, rest = key.partition("/")
            if head != backend:
                continue
            twin = self.reports.get(f"{base}/{rest}")
            if twin is not None and report.runtime_cycles > 0:
                ratios.append(twin.runtime_cycles / report.runtime_cycles)
        return geometric_mean(ratios)


def _axis_key(axis_items: Tuple[Tuple[str, Any], ...]) -> str:
    parts = [f"{axis}={value:g}" for axis, value in axis_items]
    return "/".join(parts)


def _cycle_tenants(declared: Tuple[TenantSpec, ...],
                   count: int) -> Tuple[TenantSpec, ...]:
    """``count`` tenants cycled from the declared templates."""
    tenants = []
    for i in range(count):
        template = declared[i % len(declared)]
        name = template.name if i < len(declared) \
            else f"{template.name}-{i // len(declared) + 1}"
        tenants.append(replace(template, name=name))
    return tuple(tenants)


def compile_payload(payload: ScenarioPayload,
                    seed: Optional[int] = None) -> ScenarioSpec:
    """Compile a validated payload into an (unregistered) ScenarioSpec.

    ``seed`` overrides the payload's own seed (the CLI's ``--seed``).
    The spec is *not* added to the registry — use
    :func:`register_payload` when registration (name resolution through
    ``python -m repro run <name>``, bench inclusion) is wanted.
    """
    effective_seed = payload.seed if seed is None else seed
    if payload.kind == "sweep":
        workload = payload.workload
        assert workload is not None

        def build_jobs(scale: ExperimentScale) -> List[SweepJob]:
            """Expand the payload grid into independent sweep jobs."""
            combos = list(itertools.product(
                *[axis.values for axis in payload.sweep_axes]
            ))
            axis_names = [axis.axis for axis in payload.sweep_axes]
            jobs = []
            for backend in payload.backends:
                for dataset in workload.datasets:
                    for combo in combos:
                        axis_items = tuple(zip(axis_names, combo))
                        key = "/".join(
                            [backend, dataset]
                            + ([_axis_key(axis_items)] if axis_items else [])
                        )
                        jobs.append(SweepJob(
                            key=key,
                            func=run_sweep_point,
                            args=(backend, workload.driver, dataset, scale,
                                  axis_items, workload.params,
                                  payload.optimizations),
                        ))
            return jobs

        def collect(scale: ExperimentScale,
                    results: Dict[str, Any]) -> DslSweepResult:
            """Fold the reports (job order) into the sweep result."""
            return DslSweepResult(name=payload.name,
                                  backends=payload.backends,
                                  reports=dict(results))

        def present(result: DslSweepResult) -> None:
            """Print one row per point, plus cross-backend speedups."""
            for key, report in result.reports.items():
                print(
                    f"  {key:44s} {report.runtime_us:12.1f} us  "
                    f"energy {report.total_energy_nj / 1e3:10.1f} uJ  "
                    f"tasks {report.tasks_completed}"
                )
            for backend in result.backends[1:]:
                print(
                    f"  {backend} vs {result.backends[0]}: "
                    f"x{result.speedup_vs_first_backend(backend):.2f} "
                    "runtime (geomean)"
                )

        return ScenarioSpec(
            name=payload.name, title=payload.title,
            description=payload.description,
            build_jobs=build_jobs, collect=collect, present=present,
            aliases=payload.aliases,
            backends=payload.backends,
            drivers=(workload.driver,),
            sweep_axes=tuple(axis.axis for axis in payload.sweep_axes),
        )

    tenant_sweep = payload.tenant_sweep
    assert tenant_sweep is not None

    def build_tenant_jobs(scale: ExperimentScale) -> List[SweepJob]:
        """Expand backends x tenant counts x arrival scales into jobs."""
        jobs = []
        for backend in payload.backends:
            for count in tenant_sweep.tenant_counts:
                tenants = _cycle_tenants(payload.tenants, count)
                for mult in tenant_sweep.arrival_scales:
                    jobs.append(SweepJob(
                        key=(f"{backend}/tenants={count}"
                             f"/arrival=x{mult:g}"),
                        func=run_serving_point,
                        args=(backend, tenants),
                        kwargs={"dataset": payload.dataset, "scale": scale,
                                "seed": effective_seed,
                                "arrival_scale": mult},
                    ))
        return jobs

    mix_kinds = []
    for tenant in payload.tenants:
        for kind, _weight in tenant.mix:
            if kind not in mix_kinds:
                mix_kinds.append(kind)
    return ScenarioSpec(
        name=payload.name, title=payload.title,
        description=payload.description,
        build_jobs=build_tenant_jobs, collect=collect_serving,
        present=present_serving,
        aliases=payload.aliases,
        backends=payload.backends,
        drivers=tuple(mix_kinds),
        sweep_axes=("tenants", "arrival_scale"),
    )


# ---------------------------------------------------------------------------
# Loading (YAML gated on PyYAML; JSON always works) and registration.
# ---------------------------------------------------------------------------


def parse_payload_text(text: str) -> Any:
    """Parse payload text: YAML when PyYAML is installed, else JSON.

    Any parse failure is a :class:`PayloadError`, including the
    ``ValueError`` a well-formed but impossible YAML scalar raises
    (``2001-13-01``, ``!!int abc``) and the ``RecursionError`` of
    pathologically deep nesting.
    """
    try:
        import yaml
    except ImportError:
        yaml = None
    if yaml is not None:
        try:
            return yaml.safe_load(text)
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise PayloadError("<payload>", f"invalid YAML: {exc}") from None
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PayloadError(
            "<payload>",
            f"PyYAML is not installed and the payload is not valid JSON: {exc}"
        ) from None


def load_payload(path: str) -> Any:
    """Read and parse a payload file (no validation yet)."""
    with open(path, encoding="utf-8") as handle:
        return parse_payload_text(handle.read())


def load_scenario_file(path: str,
                       seed: Optional[int] = None) -> ScenarioSpec:
    """File path -> validated, compiled (unregistered) ScenarioSpec."""
    return compile_payload(validate_payload(load_payload(path)), seed=seed)


def register_payload(data: Any, seed: Optional[int] = None) -> ScenarioSpec:
    """Validate, compile, and *register* a payload (dict or parsed YAML).

    Registration makes the scenario resolvable by name (``python -m
    repro run <name>``) and benchable; a name collision with an existing
    scenario raises ``ValueError``, exactly like Python-authored specs.
    """
    return register_scenario(compile_payload(validate_payload(data),
                                             seed=seed))


# ---------------------------------------------------------------------------
# Schema reference (rendered by ``python -m repro list --dsl`` and kept
# in sync with docs/SCENARIOS.md by tests/test_dsl_docs.py).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldDoc:
    """One schema row: payload path, type, default, validation rule."""

    path: str
    type: str
    default: str
    rule: str


#: Every payload field, in document order.  docs/SCENARIOS.md must
#: mention each ``path`` (the docs meta-test enforces it).
SCHEMA_FIELDS: Tuple[FieldDoc, ...] = (
    FieldDoc("scenario", "str", "(required)",
             "lowercase name: ^[a-z0-9][a-z0-9_-]*$"),
    FieldDoc("title", "str", "= scenario", "free text"),
    FieldDoc("description", "str", "''", "free text"),
    FieldDoc("kind", "str", "'sweep'", "one of: sweep, multi-tenant"),
    FieldDoc("aliases", "list[str]", "[]", "extra registry names"),
    FieldDoc("seed", "int", "0", ">= 0; drives every stochastic choice"),
    FieldDoc("backends", "list[str]", "(required)",
             "non-empty; registered backend names/aliases; 'cpu' is "
             "sweep-only"),
    FieldDoc("workload", "mapping", "(required for sweep)",
             "sweep kind only"),
    FieldDoc("workload.driver", "str", "(required)",
             "one of: fm-seeding, hash-seeding, kmer-counting, "
             "prealignment"),
    FieldDoc("workload.datasets", "list[str]", "['Pt']",
             "known dataset names (Pt Pg Ss Am Nf Hs50x)"),
    FieldDoc("workload.params", "mapping", "{}",
             "driver keyword args, positive ints (hash-seeding: k, "
             "bucket_load; kmer-counting: k, num_counters; prealignment: "
             "max_edits, candidates_per_read)"),
    FieldDoc("optimizations", "str", "'full'",
             "one of: full, vanilla (sweep kind only)"),
    FieldDoc("sweep", "list or mapping", "[] / {}",
             "sweep kind: list of {axis, values}; multi-tenant kind: "
             "{tenant_counts, arrival_scales}"),
    FieldDoc("sweep[].axis", "str", "(required per entry)",
             "one of: read_scale, genome_scale, pe_divisor, "
             "num_switches, dimms_per_switch; no duplicates"),
    FieldDoc("sweep[].values", "list", "(required per entry)",
             "non-empty; positive numbers for *_scale, positive ints "
             "otherwise"),
    FieldDoc("sweep.tenant_counts", "list[int]", "[len(tenants)]",
             "positive ints; tenants are cycled up to each count"),
    FieldDoc("sweep.arrival_scales", "list[number]", "[1.0]",
             "positive offered-rate multipliers"),
    FieldDoc("dataset", "str", "'Pt'",
             "multi-tenant kind only; a known dataset name"),
    FieldDoc("tenants", "list", "(required for multi-tenant)",
             "non-empty; multi-tenant kind only; unique names"),
    FieldDoc("tenants[].name", "str", "(required)", "unique per payload"),
    FieldDoc("tenants[].arrival", "mapping", "poisson @ rate 1.0",
             "the tenant's arrival process"),
    FieldDoc("tenants[].arrival.process", "str", "'poisson'",
             "one of: poisson, uniform, trace"),
    FieldDoc("tenants[].arrival.rate", "number", "1.0",
             "> 0, queries per kilocycle; forbidden for trace"),
    FieldDoc("tenants[].arrival.trace", "list[int]", "(trace only)",
             "strictly increasing positive cycles; required iff "
             "process is trace"),
    FieldDoc("tenants[].mix", "mapping", "{fm-seeding: 1.0}",
             "query kind -> weight > 0; kinds: fm-seeding, hash-seeding, "
             "kmer-counting, prealignment"),
    FieldDoc("tenants[].queries", "int", "32", ">= 1 queries this tenant "
             "issues per run"),
)


def schema_reference(markdown: bool = False) -> str:
    """The payload schema as a table (plain text or markdown)."""
    if markdown:
        lines = ["| Field | Type | Default | Rule |",
                 "| --- | --- | --- | --- |"]
        for doc in SCHEMA_FIELDS:
            lines.append(
                f"| `{doc.path}` | {doc.type} | {doc.default} | {doc.rule} |"
            )
        return "\n".join(lines)
    width = max(len(doc.path) for doc in SCHEMA_FIELDS)
    lines = ["scenario payload schema (full guide: docs/SCENARIOS.md)", ""]
    for doc in SCHEMA_FIELDS:
        lines.append(
            f"  {doc.path:{width}s}  {doc.type:14s} "
            f"default {doc.default}; {doc.rule}"
        )
    return "\n".join(lines)
