"""Shared experiment machinery: scales and cumulative step sweeps.

System construction is the backend registry's job
(:func:`repro.core.registry.build_system`, re-exported here for the
experiment layer); this module owns the *scale* presets mapping the
paper's workloads down to simulable sizes and the cumulative
optimization sweep every step figure replays.

Step runs are memoized per sweep runner: while a serial
:class:`~repro.experiments.parallel.ParallelSweepRunner` executes its
jobs it activates its :class:`StepMemo`, and :func:`run_step_sweep`
returns a copy of any run that runner has already simulated with the
same inputs (fig17 and sec6g replay the ladders of fig12/fig14/fig15).
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.config import Algorithm, BeaconConfig, OptimizationFlags
from repro.core.registry import build_system
from repro.core.metrics import Report
from repro.genomics.index_cache import content_key, reads_key
from repro.genomics.workloads import (
    KMER_DATASET,
    SEEDING_DATASETS,
    DatasetSpec,
    SeedingWorkload,
    make_kmer_workload,
    make_seeding_workload,
)
from repro.sim.engine import Engine


@dataclass(frozen=True)
class ExperimentScale:
    """How far the experiments are scaled down from the paper.

    The paper simulates tens-of-gigabase genomes against 256-512 PEs; a
    Python event simulator scales both down together, keeping the systems
    in the same throughput-bound operating regime (see
    :meth:`repro.core.config.BeaconConfig.scaled`).
    """

    genome_scale: float = 0.35
    read_scale: float = 4.0
    kmer_genome_scale: float = 0.25
    kmer_read_scale: float = 1.2
    prealign_genome_scale: float = 0.2
    prealign_read_scale: float = 3.0
    pe_divisor: int = 4
    #: k-mer counting runs with a deeper PE cut so tasks-per-PE stays >> 1
    #: (its read count is much smaller than the seeding studies').
    kmer_pe_divisor: int = 8
    num_counters: int = 1 << 16
    kmer_k: int = 15
    max_edits: int = 3
    #: How many of the five seeding datasets to run (5 = the full figure).
    num_datasets: int = 5
    #: Whether benches apply the full paper-shape thresholds.  The quick
    #: scale is a smoke mode: workloads are too small to be in the paper's
    #: throughput-bound regime, so only sanity thresholds apply.
    strict: bool = True

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """Small enough for unit tests (seconds, not minutes)."""
        return cls(
            genome_scale=0.08, read_scale=2.0,
            kmer_genome_scale=0.08, kmer_read_scale=0.3,
            prealign_genome_scale=0.08, prealign_read_scale=1.0,
            pe_divisor=8, kmer_pe_divisor=16, num_counters=1 << 14,
            num_datasets=2, strict=False,
        )

    @classmethod
    def bench(cls) -> "ExperimentScale":
        """The benchmark suite's default (minutes for the whole suite)."""
        return cls()

    def config(self) -> BeaconConfig:
        return BeaconConfig().scaled(self.pe_divisor)

    def config_for(self, algorithm: Algorithm) -> BeaconConfig:
        if algorithm is Algorithm.KMER_COUNTING:
            return BeaconConfig().scaled(self.kmer_pe_divisor)
        return self.config()

    def seeding_datasets(self) -> Sequence[DatasetSpec]:
        return SEEDING_DATASETS[: self.num_datasets]

    def seeding_workload(self, spec: DatasetSpec) -> SeedingWorkload:
        return make_seeding_workload(
            spec, scale=self.genome_scale, read_scale=self.read_scale
        )

    def kmer_workload(self) -> SeedingWorkload:
        return make_kmer_workload(
            scale=self.kmer_genome_scale, read_scale=self.kmer_read_scale
        )

    def prealign_workload(self, spec: DatasetSpec) -> SeedingWorkload:
        return make_seeding_workload(
            spec, scale=self.prealign_genome_scale,
            read_scale=self.prealign_read_scale,
        )


@dataclass
class StepResult:
    """One point of a cumulative optimization sweep."""

    label: str
    flags: OptimizationFlags
    report: Report
    #: Speedup over the previous step (1.0 for the first).
    step_speedup: float = 1.0


@dataclass
class SweepResult:
    """A full step-by-step sweep plus its idealized twin."""

    system: str
    algorithm: Algorithm
    dataset: str
    steps: List[StepResult]
    ideal: Optional[Report] = None
    baseline: Optional[Report] = None       # MEDAL or NEST
    cpu: Optional[Report] = None

    @property
    def vanilla(self) -> Report:
        return self.steps[0].report

    @property
    def full(self) -> Report:
        return self.steps[-1].report

    @property
    def total_opt_speedup(self) -> float:
        return self.full.speedup_vs(self.vanilla)

    @property
    def total_opt_energy_gain(self) -> float:
        return self.full.energy_reduction_vs(self.vanilla)

    @property
    def percent_of_ideal(self) -> float:
        if self.ideal is None:
            raise ValueError("sweep has no idealized twin")
        return self.full.percent_of_ideal(self.ideal)

    def speedup_vs_baseline(self) -> float:
        if self.baseline is None:
            raise ValueError("sweep has no hardware baseline")
        return self.full.speedup_vs(self.baseline)

    def speedup_vs_cpu(self) -> float:
        if self.cpu is None:
            raise ValueError("sweep has no CPU baseline")
        return self.full.speedup_vs(self.cpu)


class StepMemo:
    """Reports of the runs one sweep runner has already simulated.

    A key holds every input a run reads: backend, config, flags, system
    label, algorithm, the workload's content and the run kwargs.  Reports
    are stored and handed out as copies (``extra`` is a mutable dict), so
    no hit aliases another result.
    """

    def __init__(self) -> None:
        self.reports: Dict[Tuple[Any, ...], Report] = {}
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def report(self, key: Tuple[Any, ...],
               simulate: Callable[[], Report]) -> Report:
        """The stored report for ``key``, else ``simulate()`` (stored)."""
        stored = self.reports.get(key)
        if stored is not None:
            self.hits += 1
            return copy.deepcopy(stored)
        self.misses += 1
        report = simulate()
        self.reports[key] = copy.deepcopy(report)
        return report


#: The memo of the serial runner whose jobs are executing, else ``None``.
_active_memo: Optional[StepMemo] = None


@contextlib.contextmanager
def active_step_memo(memo: StepMemo) -> Iterator[StepMemo]:
    """Let :func:`run_step_sweep` use ``memo`` for the enclosed block."""
    global _active_memo
    previous, _active_memo = _active_memo, memo
    try:
        yield memo
    finally:
        _active_memo = previous


def step_memo_stats() -> Dict[str, int]:
    """Counters of the active memo (zeros when none is active)."""
    if _active_memo is None:
        return {"hits": 0, "misses": 0}
    return _active_memo.stats()


def run_step_sweep(
    system: str,
    algorithm: Algorithm,
    workload: SeedingWorkload,
    scale: ExperimentScale,
    with_ideal: bool = True,
    baseline: Optional[str] = None,
    with_cpu: bool = False,
    **run_kwargs,
) -> SweepResult:
    """Run the paper's cumulative optimization sweep for one dataset.

    Inside a serial sweep runner every run goes through the runner's
    :class:`StepMemo`, except while a tracer is installed: a traced or
    profiled job simulates, and records, every run.
    """
    memo = _active_memo if Engine.default_tracer is None else None
    inputs: Tuple[Any, ...] = ()
    if memo is not None:
        inputs = (algorithm, workload.spec, content_key(workload.reference),
                  reads_key(workload.reads), tuple(workload.read_origins),
                  tuple(sorted(run_kwargs.items())))

    def run(backend: str, config: BeaconConfig, flags: OptimizationFlags,
            label: str = "") -> Report:
        def simulate() -> Report:
            sys_ = build_system(backend, config, flags, label=label)
            return sys_.run_algorithm(algorithm, workload, **run_kwargs)

        if memo is None:
            return simulate()
        return memo.report((backend, config, flags, label) + inputs, simulate)

    config = scale.config_for(algorithm)
    steps: List[StepResult] = []
    for label, flags in OptimizationFlags.cumulative_steps(system, algorithm):
        report = run(system, config, flags, label=f"{system} {label}")
        step = StepResult(label=label, flags=flags, report=report)
        if steps:
            step.step_speedup = report.speedup_vs(steps[-1].report)
        steps.append(step)
    result = SweepResult(system=system, algorithm=algorithm,
                         dataset=workload.name, steps=steps)
    if with_ideal:
        result.ideal = run(system, config.idealized(), steps[-1].flags,
                           label=f"{system} ideal")
    if baseline is not None:
        result.baseline = run(baseline, config, OptimizationFlags.vanilla())
    if with_cpu:
        result.cpu = run("cpu", config, OptimizationFlags.vanilla())
    return result


def print_sweep(result: SweepResult) -> None:
    """Paper-style step table for one sweep."""
    print(f"\n[{result.system} / {result.algorithm.value} / {result.dataset}]")
    for step in result.steps:
        report = step.report
        print(
            f"  {step.label:26s} {report.runtime_us:10.1f} us"
            f"  step x{step.step_speedup:5.2f}"
            f"  comm {report.comm_energy_fraction:6.1%}"
            f"  energy {report.total_energy_nj / 1e3:9.1f} uJ"
        )
    if result.ideal is not None:
        print(f"  {'(idealized comm)':26s} {result.ideal.runtime_us:10.1f} us"
              f"  -> full = {result.percent_of_ideal:.1%} of ideal")
    if result.baseline is not None:
        print(f"  vs {result.baseline.system}: x{result.speedup_vs_baseline():.2f} perf, "
              f"x{result.full.energy_reduction_vs(result.baseline):.2f} energy")
    if result.cpu is not None:
        print(f"  vs cpu48: x{result.speedup_vs_cpu():.1f} perf, "
              f"x{result.full.energy_reduction_vs(result.cpu):.1f} energy")
