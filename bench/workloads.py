"""The benchmark's three workloads, driven through the simulator's public API.

Every workload has a set-up (import the simulator, generate the inputs,
pre-build the FM-index) and a run that simulates its points back to back,
handing each finished point to ``emit(key, result)``.  Nothing here imports
``repro`` at module level: importing the simulator is part of the timed
set-up.
"""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

Emit = Callable[[str, Any], None]


class Workload:
    """One benchmark workload (subclasses fill in the three hooks)."""

    name = ""
    #: Whether ``--seed`` changes the inputs (the campaign's are fixed).
    seeded = True

    def setup(self, seed: int) -> SimpleNamespace:
        """Import, generate inputs, pre-build indexes; returns the context."""
        raise NotImplementedError

    def run(self, ctx: SimpleNamespace, emit: Emit) -> None:
        """Simulate every point, calling ``emit`` after each one."""
        raise NotImplementedError

    def check(self, ctx: SimpleNamespace, result: Any) -> Optional[str]:
        """Seed-independent invariants of one point; a message if broken."""
        from repro.core.metrics import Report

        from digest import find

        for report in find(result, Report):
            problem = _report_problem(report)
            if problem:
                return f"{report.label}: {problem}"
        return None


def _report_problem(report) -> Optional[str]:
    """Invariants every simulated or analytic report satisfies."""
    energies = (report.energy_dram_nj, report.energy_comm_nj,
                report.energy_compute_nj)
    if report.runtime_cycles <= 0:
        return f"runtime_cycles={report.runtime_cycles}"
    if report.tasks_completed <= 0:
        return f"tasks_completed={report.tasks_completed}"
    if not all(math.isfinite(e) and e >= 0 for e in energies) \
            or report.total_energy_nj <= 0:
        return f"energies={energies}"
    if report.useful_bytes > report.wire_bytes:
        return f"useful_bytes {report.useful_bytes} > wire_bytes {report.wire_bytes}"
    return None


def _prebuilt_fm_index(spec, scale):
    """Generate a seeding workload and build its FM-index into the cache."""
    from repro.genomics.index_cache import get_cache
    from repro.genomics.workloads import make_seeding_workload

    workload = make_seeding_workload(
        spec, scale=scale.genome_scale, read_scale=scale.read_scale)
    get_cache().fm_index(workload.reference)
    return workload


class FmSeeding(Workload):
    """Fig. 12's ladders on dataset Pt at bench scale: 13 points."""

    name = "fm-seeding"

    def setup(self, seed: int) -> SimpleNamespace:
        from repro.core.config import Algorithm, OptimizationFlags
        from repro.core.registry import build_system
        from repro.experiments.runner import ExperimentScale
        from repro.genomics.workloads import dataset_by_name

        scale = ExperimentScale.bench()
        base = dataset_by_name("Pt")
        spec = dataclasses.replace(base, seed=base.seed + seed)
        return SimpleNamespace(
            scale=scale, workload=_prebuilt_fm_index(spec, scale),
            Algorithm=Algorithm, OptimizationFlags=OptimizationFlags,
            build_system=build_system,
        )

    def run(self, ctx: SimpleNamespace, emit: Emit) -> None:
        algorithm = ctx.Algorithm.FM_SEEDING
        flags_cls, build = ctx.OptimizationFlags, ctx.build_system
        config = ctx.scale.config()
        workload = ctx.workload
        # The order and labels of repro.experiments.runner.run_step_sweep:
        # each variant's ladder, then its idealized twin; MEDAL and the
        # CPU model once.
        for system in ("beacon-d", "beacon-s"):
            steps = flags_cls.cumulative_steps(system, algorithm)
            for label, flags in steps:
                sys_ = build(system, config, flags, label=f"{system} {label}")
                emit(f"{system}/{label}", sys_.run_algorithm(algorithm, workload))
            twin = build(system, config.idealized(), steps[-1][1],
                         label=f"{system} ideal")
            emit(f"{system}/ideal", twin.run_algorithm(algorithm, workload))
        for baseline in ("medal", "cpu"):
            sys_ = build(baseline, config, flags_cls.vanilla())
            emit(baseline, sys_.run_algorithm(algorithm, workload))

    def check(self, ctx: SimpleNamespace, result: Any) -> Optional[str]:
        reads = len(ctx.workload.reads)
        if result.tasks_completed != reads:
            return f"{result.tasks_completed} of {reads} reads seeded"
        return super().check(ctx, result)


class MtServing(Workload):
    """Open-loop multi-tenant serving on both BEACON variants: 4 points."""

    name = "mt-serving"
    QUERIES_PER_TENANT = 64
    #: (backend, tenants, offered-rate multiplier); x16 saturates.
    POINTS = (("beacon-d", 4, 1.0), ("beacon-d", 2, 16.0),
              ("beacon-s", 4, 1.0), ("beacon-s", 2, 16.0))

    def setup(self, seed: int) -> SimpleNamespace:
        from repro.experiments import tenants
        from repro.experiments.runner import ExperimentScale
        from repro.genomics.workloads import dataset_by_name

        scale = ExperimentScale.quick()
        _prebuilt_fm_index(dataset_by_name(tenants.MT_DATASET), scale)
        return SimpleNamespace(scale=scale, tenants=tenants,
                               seed=tenants.MT_SEED + seed)

    def run(self, ctx: SimpleNamespace, emit: Emit) -> None:
        tenants = ctx.tenants
        for backend, count, rate in self.POINTS:
            point = tenants.run_serving_point(
                backend,
                tenants.default_tenants(count, self.QUERIES_PER_TENANT),
                dataset=tenants.MT_DATASET, scale=ctx.scale, seed=ctx.seed,
                arrival_scale=rate,
            )
            emit(point.key, point)

    def check(self, ctx: SimpleNamespace, result: Any) -> Optional[str]:
        if result.queries != result.tenants * self.QUERIES_PER_TENANT:
            return f"{result.queries} queries for {result.tenants} tenants"
        if result.report.tasks_completed != result.queries:
            return f"{result.report.tasks_completed} of {result.queries} queries done"
        if result.makespan_cycles < result.last_arrival_cycle:
            return "makespan ends before the last arrival"
        for stats in result.per_tenant:
            if stats.queries != self.QUERIES_PER_TENANT:
                return f"tenant {stats.tenant}: {stats.queries} queries"
            if not (stats.p50_cycles <= stats.p95_cycles <= stats.p99_cycles
                    <= stats.max_cycles):
                return f"tenant {stats.tenant}: percentiles out of order"
        return super().check(ctx, result)


class Campaign(Workload):
    """fig15 -> fig16 -> fig17 at quick scale through the scenario registry;
    one point per sweep job (8)."""

    name = "campaign"
    seeded = False

    def __init__(self, figures=("fig15", "fig16", "fig17")) -> None:
        self.figures = figures

    def setup(self, seed: int) -> SimpleNamespace:
        from repro.experiments.parallel import ParallelSweepRunner
        from repro.experiments.runner import ExperimentScale
        from repro.experiments.scenarios import get_scenario

        return SimpleNamespace(
            scale=ExperimentScale.quick(),
            specs=[get_scenario(name) for name in self.figures],
            ParallelSweepRunner=ParallelSweepRunner,
        )

    def run(self, ctx: SimpleNamespace, emit: Emit) -> None:
        class JobByJob(ctx.ParallelSweepRunner):
            """Serial runner that hands each finished sweep job to ``emit``."""

            def run(self, jobs, label=None):
                results: Dict[str, Any] = {}
                for job in jobs:
                    results[job.key] = super().run([job], label)[job.key]
                    emit(f"{label}/{job.key}", results[job.key])
                return results

        runner = JobByJob(jobs=1)
        for spec in ctx.specs:
            spec.run(ctx.scale, runner=runner)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FmSeeding(), Campaign(), MtServing())
}


def counters(results: List[Any]) -> Dict[str, float]:
    """Per-layer counters summed over the reports of simulated systems in
    one pass (the analytic CPU model has no PEs and no fabric)."""
    from repro.core.metrics import Report

    from digest import find

    reports = [r for r in find(results, Report) if "pe_utilization" in r.extra]
    requests = sum(r.mem_requests for r in reports)
    wire = sum(r.wire_bytes for r in reports)
    return {
        "dram.requests": requests,
        "dram.activations_per_request": (
            sum(r.extra.get("dram_activations", 0.0) for r in reports) / requests
            if requests else 0.0),
        "cxl.wire_bytes": wire,
        "cxl.packing_efficiency": (
            sum(r.useful_bytes for r in reports) / wire if wire else 0.0),
        "cxl.host_detours": sum(r.extra.get("host_detours", 0.0) for r in reports),
        "core.tasks": sum(r.tasks_completed for r in reports),
        "core.pe_utilization": (
            sum(r.extra["pe_utilization"] for r in reports) / len(reports) if reports else 0.0),
    }
