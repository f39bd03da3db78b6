"""Open-loop multi-tenant serving against the shared CXL memory pool.

The paper's evaluation is closed-loop: every figure dispatches its whole
read set at cycle 0 and measures the makespan.  This module adds the
workload family the paper never ran — the pooling/sharing regime of the
CXL cluster studies (CXL-ClusterSim, CXLMemSim): several *tenants*, each
with its own seeded stochastic arrival process and its own mix of query
kinds (FM seeding, hash seeding, k-mer abundance, pre-alignment), share
one memory pool **open-loop**.  Queries arrive on the host at their
scheduled cycles whether or not earlier queries finished, so queueing is
real: the collected latency percentiles (p50/p95/p99), the queue-depth
timeline, and the per-backend saturation verdicts measure how a backend
degrades under offered load instead of how fast it drains a batch.

Determinism contract: every stochastic choice (inter-arrival gaps, the
per-query kind drawn from the tenant's mix) comes from a
``numpy.random.default_rng`` seeded from the point's ``seed`` and the
tenant index, arrivals are pre-scheduled on the engine before ``run()``,
and ties are broken by (cycle, tenant, query) order — identical
``(tenants, dataset, seed, arrival_scale)`` inputs produce bit-identical
:class:`ServingPoint`s, which the perf harness fingerprints through the
``mt-*`` bench entries.

The family is exposed as two registered scenarios:

* ``mt-serving`` — tenant-count sweep at a fixed offered rate;
* ``mt-saturation`` — offered-rate sweep at a fixed tenant count.

Custom studies (different mixes, rates, trace replays) are authored as
data files through :mod:`repro.experiments.dsl` (see docs/SCENARIOS.md
and ``examples/multi_tenant.yaml``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import Algorithm, OptimizationFlags
from repro.core.drivers import profile_fm_blocks
from repro.core.metrics import Report
from repro.core.registry import build_system
from repro.core.task import (
    BloomAccessor,
    FmIndexAccessor,
    HashIndexAccessor,
    ReferenceAccessor,
    Task,
    fm_seeding_steps,
    hash_seeding_steps,
    kmer_query_steps,
    prealign_steps,
)
from repro.cxl.flit import MessageKind
from repro.experiments.parallel import SweepJob
from repro.experiments.runner import ExperimentScale
from repro.experiments.scenarios import (
    ScenarioSpec,
    ensure_registered,
    register_scenario,
)
from repro.genomics.fm_index import FMIndex
from repro.genomics.index_cache import fresh_bloom_filter, get_cache
from repro.genomics.kmer import iter_kmers
from repro.genomics.prealign import ShoujiFilter
from repro.genomics.workloads import (
    SeedingWorkload,
    dataset_by_name,
    make_prealign_pairs,
    make_seeding_workload,
)
from repro.memmgmt.framework import AllocationRequest
from repro.sim.engine import SimulationError

#: The query kinds a tenant mix may draw from, in canonical order (also
#: the order serving indexes are placed in the pool, which keeps
#: allocation deterministic across identical points).
QUERY_KINDS: Tuple[str, ...] = (
    "fm-seeding", "hash-seeding", "kmer-counting", "prealignment",
)

#: Arrival process names :class:`ArrivalConfig` understands.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "uniform", "trace")

#: Saturation criterion: a point is saturated when more than this
#: fraction of all queries is still in flight at the moment the last
#: query arrives.  In a keeping-up system the backlog at end-of-arrivals
#: is the steady-state in-flight population (Little's law: offered rate
#: x mean latency); a backlog of most of the *entire run's* queries
#: means the queue grew for the whole arrival window instead of
#: reaching a steady state.
SATURATION_BACKLOG_FRACTION: float = 0.5

#: Queue-depth timelines are downsampled to at most this many buckets
#: (each keeping the bucket's peak depth) so result objects stay small.
QUEUE_TIMELINE_BUCKETS: int = 32


@dataclass(frozen=True)
class ArrivalConfig:
    """One tenant's arrival process (all cycles are DRAM cycles).

    ``poisson`` draws exponential inter-arrival gaps with mean
    ``1000 / rate_per_kcycle``; ``uniform`` draws gaps uniformly from
    ``[0, 2000 / rate_per_kcycle]`` (same mean, bounded burstiness);
    ``trace`` replays the explicit ``trace`` cycle list, wrapping with
    its own span when more queries are requested than the trace holds.
    An ``arrival_scale`` > 1 multiplies the offered rate (divides every
    gap), which is how the saturation sweeps turn up the load.
    """

    process: str = "poisson"
    rate_per_kcycle: float = 1.0
    trace: Tuple[int, ...] = ()

    def arrival_cycles(self, count: int, rng: np.random.Generator,
                       arrival_scale: float = 1.0) -> List[int]:
        """``count`` strictly increasing arrival cycles for this process."""
        if self.process == "trace":
            span = self.trace[-1]
            cycles = []
            prev = 0
            for i in range(count):
                raw = self.trace[i % len(self.trace)] + (i // len(self.trace)) * span
                scaled = max(1, int(raw / arrival_scale))
                prev = max(prev + 1, scaled)
                cycles.append(prev)
            return cycles
        mean_gap = 1000.0 / (self.rate_per_kcycle * arrival_scale)
        if self.process == "poisson":
            gaps = rng.exponential(mean_gap, size=count)
        elif self.process == "uniform":
            gaps = rng.uniform(0.0, 2.0 * mean_gap, size=count)
        else:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"known: {ARRIVAL_PROCESSES}"
            )
        cycles = []
        now = 0
        for gap in gaps:
            now += max(1, int(gap))
            cycles.append(now)
        return cycles


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an arrival process plus a weighted mix of query kinds.

    ``mix`` is an ordered tuple of ``(kind, weight)`` pairs (kinds from
    :data:`QUERY_KINDS`); each of the tenant's ``queries`` draws its kind
    from the mix with probability proportional to its weight.
    """

    name: str
    arrival: ArrivalConfig = ArrivalConfig()
    mix: Tuple[Tuple[str, float], ...] = (("fm-seeding", 1.0),)
    queries: int = 32


@dataclass(frozen=True)
class _Query:
    """One scheduled query: who issues it, when, and what kind it is."""

    arrival: int
    tenant: int
    kind: str
    index: int


@dataclass
class TenantStats:
    """Per-tenant latency summary of one serving point (cycles)."""

    tenant: str
    queries: int
    p50_cycles: int
    p95_cycles: int
    p99_cycles: int
    mean_cycles: float
    max_cycles: int


@dataclass
class ServingPoint:
    """One (backend, tenant set, arrival scale) open-loop serving run."""

    backend: str
    tenants: int
    arrival_scale: float
    queries: int
    last_arrival_cycle: int
    makespan_cycles: int
    #: Offered / achieved throughput in queries per kilocycle.
    offered_per_kcycle: float
    achieved_per_kcycle: float
    #: Queries still in flight when the last query arrived.
    backlog_at_last_arrival: int
    #: Whether the backend failed to keep up with the offered rate (see
    #: :data:`SATURATION_BACKLOG_FRACTION`).
    saturated: bool
    peak_queue_depth: int
    per_tenant: List[TenantStats] = field(default_factory=list)
    #: ``(cycle, peak depth within bucket)`` samples, at most
    #: :data:`QUEUE_TIMELINE_BUCKETS` of them.
    queue_depth: List[Tuple[int, int]] = field(default_factory=list)
    #: The machine-level report (cycles, energy, traffic) the perf
    #: harness fingerprints.
    report: Optional[Report] = None

    @property
    def key(self) -> str:
        """Stable identity of this point within a sweep."""
        return (f"{self.backend}/tenants={self.tenants}"
                f"/arrival=x{self.arrival_scale:g}")


@dataclass
class MultiTenantResult:
    """All serving points of one ``mt-*`` campaign, in job order."""

    points: List[ServingPoint]

    def backends(self) -> List[str]:
        """Backends present, in first-appearance order."""
        seen: List[str] = []
        for point in self.points:
            if point.backend not in seen:
                seen.append(point.backend)
        return seen

    def saturation_table(self) -> List[Tuple[str, Optional[ServingPoint]]]:
        """Per backend: the first swept point that saturated (or ``None``)."""
        table: List[Tuple[str, Optional[ServingPoint]]] = []
        for backend in self.backends():
            first = None
            for point in self.points:
                if point.backend == backend and point.saturated:
                    first = point
                    break
            table.append((backend, first))
        return table


def percentile_cycles(sorted_latencies: Sequence[int], pct: float) -> int:
    """Nearest-rank percentile of pre-sorted integer latencies."""
    if not sorted_latencies:
        raise ValueError("no latencies to take a percentile of")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_latencies)))
    return int(sorted_latencies[rank - 1])


def _tenant_rng(seed: int, tenant_index: int) -> np.random.Generator:
    """The per-tenant random stream (independent across tenants)."""
    return np.random.default_rng(seed * 1_000_003 + tenant_index * 7_919 + 1)


def build_query_schedule(tenants: Sequence[TenantSpec], seed: int,
                         arrival_scale: float = 1.0) -> List[_Query]:
    """Expand the tenant specs into one merged, deterministic schedule."""
    queries: List[_Query] = []
    for t_idx, tenant in enumerate(tenants):
        rng = _tenant_rng(seed, t_idx)
        arrivals = tenant.arrival.arrival_cycles(
            tenant.queries, rng, arrival_scale
        )
        weights = [w for _kind, w in tenant.mix]
        total = float(sum(weights))
        probs = [w / total for w in weights]
        choices = rng.choice(len(tenant.mix), size=tenant.queries, p=probs)
        for q_idx, (cycle, pick) in enumerate(zip(arrivals, choices)):
            queries.append(_Query(
                arrival=int(cycle), tenant=t_idx,
                kind=tenant.mix[int(pick)][0], index=q_idx,
            ))
    queries.sort(key=lambda q: (q.arrival, q.tenant, q.index))
    return queries


class ServingWorkbench:
    """Shared serving state on one system: indexes built and placed once.

    Mirrors the allocation order of the workload drivers
    (:mod:`repro.core.drivers`) for each query kind it serves, in
    :data:`QUERY_KINDS` order, then mints one :class:`Task` per query on
    demand.  K-mer abundance queries run against a counting Bloom filter
    pre-populated host-side from the reference, so counter reads return
    real abundances; pre-alignment queries cycle through the dataset's
    candidate pairs.
    """

    def __init__(self, system, workload: SeedingWorkload,
                 scale: ExperimentScale, kinds: Sequence[str]) -> None:
        self.system = system
        self.workload = workload
        self.scale = scale
        self._setups = {
            "fm-seeding": self._setup_fm,
            "hash-seeding": self._setup_hash,
            "kmer-counting": self._setup_kmer,
            "prealignment": self._setup_prealign,
        }
        for kind in QUERY_KINDS:
            if kind in tuple(kinds):
                self._setups[kind]()

    # -- per-kind placement (driver allocation order, one structure each) --

    def _setup_fm(self) -> None:
        system, workload = self.system, self.workload
        cache = get_cache()
        fm = cache.fm_index(workload.reference)
        hot = (
            cache.fm_hot_profile(
                fm, workload.reads[: max(1, int(len(workload.reads) * 0.1))],
                lambda: profile_fm_blocks(fm, workload.reads),
            )
            if system.flags.data_placement
            else None
        )
        region = system._allocate(
            AllocationRequest(
                application="mt_serving", algorithm="fm_backward_search",
                dataset=workload.name, size_bytes=fm.size_bytes,
            ),
            lambda: system.planner.fm_index(
                "mt_fm_index", fm.num_blocks, FMIndex.BLOCK_BYTES, hot
            ),
        )
        self.fm_accessor = FmIndexAccessor(fm, region)

    def _setup_hash(self, k: int = 13, bucket_load: int = 4) -> None:
        system, workload = self.system, self.workload
        positions = len(workload.reference) - k + 1
        index = get_cache().hash_index(
            workload.reference, k=k, stride=1,
            num_buckets=max(64, positions // bucket_load),
        )
        directory = system._allocate(
            AllocationRequest(
                application="mt_serving", algorithm="hash_index",
                dataset=workload.name, size_bytes=index.directory_bytes,
            ),
            lambda: system.planner.hash_directory(
                "mt_hash_dir", index.directory_bytes
            ),
        )
        locations = system._allocate(
            AllocationRequest(
                application="mt_serving", algorithm="hash_index",
                dataset=workload.name, size_bytes=index.locations_bytes,
            ),
            lambda: system.planner.hash_locations(
                "mt_hash_loc", index.locations_bytes
            ),
        )
        self.hash_accessor = HashIndexAccessor(index, directory, locations)

    def _setup_kmer(self) -> None:
        system, workload, scale = self.system, self.workload, self.scale
        bloom = fresh_bloom_filter(scale.num_counters)
        # Host-side pre-population (no simulated cost): abundance queries
        # then read real counter values, as a serving deployment would.
        for kmer in iter_kmers(workload.reference, scale.kmer_k):
            bloom.insert(kmer)
        region = system._allocate(
            AllocationRequest(
                application="mt_serving", algorithm="kmer_abundance",
                dataset=workload.name, size_bytes=bloom.size_bytes,
            ),
            lambda: system.planner.bloom_filter(
                "mt_bloom", bloom.size_bytes, home_switch=None
            ),
        )
        self.bloom_accessor = BloomAccessor(bloom, region)

    def _setup_prealign(self) -> None:
        system, workload, scale = self.system, self.workload, self.scale
        self.prealign_pairs = make_prealign_pairs(workload, scale.max_edits)
        ref_bytes = -(-len(workload.reference) // 4)
        region = system._allocate(
            AllocationRequest(
                application="mt_serving", algorithm="shouji",
                dataset=workload.name, size_bytes=ref_bytes,
            ),
            lambda: system.planner.reference("mt_reference", ref_bytes),
        )
        self.ref_accessor = ReferenceAccessor(region)
        self.shouji = ShoujiFilter(max_edits=scale.max_edits)
        system.prealign_results = []

    # -- task minting ------------------------------------------------------

    def make_task(self, kind: str, query_index: int) -> Task:
        """A fresh task of ``kind``; ``query_index`` picks its input."""
        reads = self.workload.reads
        if kind == "fm-seeding":
            read = reads[query_index % len(reads)]
            return Task(
                algorithm=Algorithm.FM_SEEDING,
                steps=fm_seeding_steps(self.fm_accessor, read),
                payload_bytes=self.system._task_payload(read),
            )
        if kind == "hash-seeding":
            read = reads[query_index % len(reads)]
            return Task(
                algorithm=Algorithm.HASH_SEEDING,
                steps=hash_seeding_steps(self.hash_accessor, read),
                payload_bytes=self.system._task_payload(read),
            )
        if kind == "kmer-counting":
            read = reads[query_index % len(reads)]
            return Task(
                algorithm=Algorithm.KMER_COUNTING,
                steps=kmer_query_steps(
                    self.bloom_accessor, read, self.scale.kmer_k
                ),
                payload_bytes=self.system._task_payload(read),
            )
        if kind == "prealignment":
            pair = self.prealign_pairs[query_index % len(self.prealign_pairs)]
            return Task(
                algorithm=Algorithm.PREALIGNMENT,
                steps=prealign_steps(
                    self.ref_accessor, self.shouji, pair, pair.window_start,
                    self.system.prealign_results,
                ),
                payload_bytes=self.system._task_payload(pair.read),
            )
        raise ValueError(
            f"unknown query kind {kind!r}; known: {QUERY_KINDS}"
        )


class _QueryDispatch:
    """Arrival event for one pre-scheduled serving query.

    A slotted callable replacing the historical pair of nested closures
    per query: ``__call__`` fires at the arrival cycle and ships the task
    message; ``_deliver`` hands the task to its NDP module on arrival.
    """

    __slots__ = ("fabric", "route", "module", "task")

    def __init__(self, fabric, route, module, task: Task) -> None:
        self.fabric = fabric
        self.route = route
        self.module = module
        self.task = task

    def __call__(self) -> None:
        self.fabric.send(self.route, MessageKind.TASK,
                         self.task.payload_bytes, on_delivered=self._deliver)

    def _deliver(self) -> None:
        self.module.submit_task(self.task)


def _flags_for(backend: str) -> OptimizationFlags:
    """Full optimization stack for BEACON variants, vanilla otherwise."""
    if backend in ("beacon-d", "beacon-s"):
        return OptimizationFlags.all_for(backend, Algorithm.FM_SEEDING)
    return OptimizationFlags.vanilla()


def _downsample_depth(events: List[Tuple[int, int]],
                      buckets: int = QUEUE_TIMELINE_BUCKETS
                      ) -> Tuple[List[Tuple[int, int]], int]:
    """(timeline, peak): bucketed peak-depth samples over +1/-1 events."""
    events.sort(key=lambda e: (e[0], e[1]))
    if not events:
        return [], 0
    span = max(1, events[-1][0])
    bucket_cycles = max(1, -(-span // buckets))
    timeline: List[Tuple[int, int]] = []
    depth = 0
    peak = 0
    bucket_end = bucket_cycles
    bucket_peak = 0
    for cycle, delta in events:
        while cycle > bucket_end:
            timeline.append((bucket_end, bucket_peak))
            bucket_end += bucket_cycles
            bucket_peak = depth
        depth += delta
        bucket_peak = max(bucket_peak, depth)
        peak = max(peak, depth)
    timeline.append((bucket_end, bucket_peak))
    return timeline, peak


def run_serving_point(
    backend: str,
    tenants: Sequence[TenantSpec],
    dataset: str = "Pt",
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    arrival_scale: float = 1.0,
) -> ServingPoint:
    """One open-loop serving run: build, pre-schedule arrivals, measure.

    This is the picklable sweep-job entry point of the ``mt-*`` family
    (and of DSL-authored multi-tenant scenarios): every argument is a
    plain value or frozen dataclass, and identical arguments produce a
    bit-identical :class:`ServingPoint`.
    """
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError("a serving point needs at least one tenant")
    scale = scale if scale is not None else ExperimentScale.quick()
    spec = dataset_by_name(dataset)
    workload = make_seeding_workload(
        spec, scale=scale.genome_scale, read_scale=scale.read_scale
    )
    system = build_system(
        backend, scale.config(), _flags_for(backend),
        label=f"{backend} mt x{len(tenants)}",
    )
    system._consume()
    used = {kind for tenant in tenants for kind, _w in tenant.mix}
    kinds = [kind for kind in QUERY_KINDS if kind in used]
    bench = ServingWorkbench(system, workload, scale, kinds)
    queries = build_query_schedule(tenants, seed, arrival_scale)

    fabric = system.pool.fabric
    modules = system.ndp_modules
    routes = [fabric.route(fabric.host.name, m.node) for m in modules]
    latencies: Dict[int, List[int]] = {i: [] for i in range(len(tenants))}
    depth_events: List[Tuple[int, int]] = []
    for pos, query in enumerate(queries):
        task = bench.make_task(query.kind, query.tenant * 101 + query.index)
        depth_events.append((query.arrival, 1))

        def _on_done(done: Task, tenant: int = query.tenant,
                     arrival: int = query.arrival) -> None:
            latencies[tenant].append(done.finished_at - arrival)
            depth_events.append((done.finished_at, -1))

        task.on_done = _on_done
        module = modules[pos % len(modules)]
        route = routes[pos % len(modules)]
        system.engine.schedule_at(
            query.arrival, _QueryDispatch(fabric, route, module, task)
        )
    system.engine.run()

    completed = sum(len(v) for v in latencies.values())
    if completed != len(queries):
        raise SimulationError(
            f"{backend}: {completed}/{len(queries)} queries completed; "
            "the serving simulation deadlocked"
        )
    makespan = system.engine.now
    last_arrival = queries[-1].arrival
    offered = 1000.0 * len(queries) / max(1, last_arrival)
    achieved = 1000.0 * len(queries) / max(1, makespan)
    done_by_last_arrival = sum(
        1 for cycle, delta in depth_events
        if delta < 0 and cycle <= last_arrival
    )
    backlog = len(queries) - done_by_last_arrival
    timeline, peak = _downsample_depth(depth_events)
    per_tenant = []
    for t_idx, tenant in enumerate(tenants):
        lat = sorted(latencies[t_idx])
        per_tenant.append(TenantStats(
            tenant=tenant.name,
            queries=len(lat),
            p50_cycles=percentile_cycles(lat, 50),
            p95_cycles=percentile_cycles(lat, 95),
            p99_cycles=percentile_cycles(lat, 99),
            mean_cycles=sum(lat) / len(lat),
            max_cycles=int(lat[-1]),
        ))
    report = system._finish_report(
        Algorithm.CUSTOM,
        f"{dataset}+mt{len(tenants)}x{arrival_scale:g}",
        len(queries),
    )
    return ServingPoint(
        backend=backend,
        tenants=len(tenants),
        arrival_scale=arrival_scale,
        queries=len(queries),
        last_arrival_cycle=last_arrival,
        makespan_cycles=makespan,
        offered_per_kcycle=offered,
        achieved_per_kcycle=achieved,
        backlog_at_last_arrival=backlog,
        saturated=backlog > SATURATION_BACKLOG_FRACTION * len(queries),
        peak_queue_depth=peak,
        per_tenant=per_tenant,
        queue_depth=timeline,
        report=report,
    )


# ---------------------------------------------------------------------------
# The built-in mt-* scenario family.
# ---------------------------------------------------------------------------

#: Backends the built-in serving campaigns compare.
MT_BACKENDS: Tuple[str, ...] = ("beacon-d", "beacon-s")

#: Dataset the built-in campaigns serve.
MT_DATASET = "Pt"

#: Seed of the built-in campaigns' arrival/mix streams.
MT_SEED = 2022

#: Tenant templates the built-in campaigns cycle through: an aligner
#: (seeding-heavy), an abundance counter, a pre-alignment filter, and a
#: mixed pipeline tenant.
TENANT_TEMPLATES: Tuple[TenantSpec, ...] = (
    TenantSpec(
        name="aligner",
        arrival=ArrivalConfig("poisson", rate_per_kcycle=0.12),
        mix=(("fm-seeding", 3.0), ("hash-seeding", 1.0)),
    ),
    TenantSpec(
        name="counter",
        arrival=ArrivalConfig("uniform", rate_per_kcycle=0.12),
        mix=(("kmer-counting", 1.0),),
    ),
    TenantSpec(
        name="filter",
        arrival=ArrivalConfig("poisson", rate_per_kcycle=0.16),
        mix=(("prealignment", 1.0),),
    ),
    TenantSpec(
        name="pipeline",
        arrival=ArrivalConfig("poisson", rate_per_kcycle=0.10),
        mix=(("fm-seeding", 1.0), ("kmer-counting", 1.0),
             ("prealignment", 1.0)),
    ),
)

#: Tenant counts the ``mt-serving`` scenario sweeps.
MT_TENANT_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: Offered-rate multipliers the ``mt-saturation`` scenario sweeps.
MT_ARRIVAL_SCALES: Tuple[float, ...] = (1.0, 4.0, 16.0)

#: Tenant count the saturation sweep holds fixed.
MT_SATURATION_TENANTS = 2


def default_tenants(count: int,
                    queries_per_tenant: int) -> Tuple[TenantSpec, ...]:
    """``count`` tenants cycled from :data:`TENANT_TEMPLATES`."""
    tenants = []
    for i in range(count):
        template = TENANT_TEMPLATES[i % len(TENANT_TEMPLATES)]
        name = template.name if i < len(TENANT_TEMPLATES) \
            else f"{template.name}-{i // len(TENANT_TEMPLATES) + 1}"
        tenants.append(TenantSpec(
            name=name, arrival=template.arrival, mix=template.mix,
            queries=queries_per_tenant,
        ))
    return tuple(tenants)


def serving_queries_per_tenant(scale: ExperimentScale) -> int:
    """Queries each tenant issues at ``scale`` (rides ``read_scale``)."""
    return max(8, int(12 * scale.read_scale))


def build_serving_jobs(scale: ExperimentScale) -> List[SweepJob]:
    """``mt-serving`` jobs: backends x tenant counts at the base rate."""
    queries = serving_queries_per_tenant(scale)
    jobs = []
    for backend in MT_BACKENDS:
        for count in MT_TENANT_COUNTS:
            jobs.append(SweepJob(
                key=f"{backend}/tenants={count}",
                func=run_serving_point,
                args=(backend, default_tenants(count, queries)),
                kwargs={"dataset": MT_DATASET, "scale": scale,
                        "seed": MT_SEED, "arrival_scale": 1.0},
            ))
    return jobs


def build_saturation_jobs(scale: ExperimentScale) -> List[SweepJob]:
    """``mt-saturation`` jobs: backends x offered rates, 2 tenants."""
    queries = serving_queries_per_tenant(scale)
    tenants = default_tenants(MT_SATURATION_TENANTS, queries)
    jobs = []
    for backend in MT_BACKENDS:
        for mult in MT_ARRIVAL_SCALES:
            jobs.append(SweepJob(
                key=f"{backend}/arrival=x{mult:g}",
                func=run_serving_point,
                args=(backend, tenants),
                kwargs={"dataset": MT_DATASET, "scale": scale,
                        "seed": MT_SEED, "arrival_scale": mult},
            ))
    return jobs


def collect_serving(scale: ExperimentScale,
                    results: Dict[str, Any]) -> MultiTenantResult:
    """Fold finished serving points (job order) into the family result."""
    return MultiTenantResult(points=list(results.values()))


def present_serving(result: MultiTenantResult) -> None:
    """Print the serving points and the per-backend saturation table."""
    for point in result.points:
        verdict = "SATURATED" if point.saturated else "ok"
        print(
            f"\n[{point.backend} | tenants={point.tenants} "
            f"| arrival x{point.arrival_scale:g}] "
            f"{point.queries} queries  "
            f"offered {point.offered_per_kcycle:.3f}/kcyc  "
            f"achieved {point.achieved_per_kcycle:.3f}/kcyc  "
            f"backlog {point.backlog_at_last_arrival}/{point.queries}  "
            f"peak depth {point.peak_queue_depth}  [{verdict}]"
        )
        for stats in point.per_tenant:
            print(
                f"  {stats.tenant:12s} {stats.queries:4d} queries  "
                f"p50 {stats.p50_cycles:8d}  p95 {stats.p95_cycles:8d}  "
                f"p99 {stats.p99_cycles:8d}  max {stats.max_cycles:8d} cyc"
            )
    print("\nsaturation:")
    for backend, first in result.saturation_table():
        if first is None:
            print(f"  {backend:10s} not saturated within the swept range")
        else:
            backlog_pct = 100 * first.backlog_at_last_arrival // first.queries
            print(
                f"  {backend:10s} first saturates at tenants="
                f"{first.tenants}, arrival x{first.arrival_scale:g} "
                f"({backlog_pct}% of queries backlogged at last arrival)"
            )


# Catalogue order must not depend on which module gets imported first:
# pull in the paper campaigns (idempotent; this module is already in
# sys.modules, so the circular import resolves to the partial module)
# before appending the mt-* family to the registry.
ensure_registered()

SERVING_SPEC = register_scenario(ScenarioSpec(
    name="mt-serving",
    title="open-loop multi-tenant serving (extension)",
    description="tenant-count sweep of seeded stochastic query streams "
                "sharing the pool open-loop: latency percentiles, "
                "queue-depth timelines, saturation verdicts",
    build_jobs=build_serving_jobs,
    collect=collect_serving,
    present=present_serving,
    aliases=("mt_serving", "multi-tenant"),
    backends=MT_BACKENDS,
    drivers=QUERY_KINDS,
    sweep_axes=("tenants",),
))

SATURATION_SPEC = register_scenario(ScenarioSpec(
    name="mt-saturation",
    title="multi-tenant saturation sweep (extension)",
    description="offered-rate sweep at a fixed tenant count: where each "
                "backend stops keeping up with open-loop arrivals",
    build_jobs=build_saturation_jobs,
    collect=collect_serving,
    present=present_serving,
    aliases=("mt_saturation",),
    backends=MT_BACKENDS,
    drivers=QUERY_KINDS,
    sweep_axes=("arrival_scale",),
))


def run(scale: ExperimentScale = ExperimentScale.bench(),
        runner=None) -> MultiTenantResult:
    """Execute the ``mt-serving`` campaign at ``scale``."""
    return SERVING_SPEC.run(scale, runner=runner)


def main(scale: ExperimentScale = ExperimentScale.bench(),
         runner=None) -> MultiTenantResult:
    """Run ``mt-serving`` and print the serving/saturation tables."""
    return SERVING_SPEC.main(scale, runner=runner)


if __name__ == "__main__":
    main()
