"""BEACON system assembly: the machine layer of the stack.

:class:`BeaconSystem` builds one complete simulated machine — pool topology,
NDP modules, Switch-Logic, memory-management framework — for one
(variant, optimization-flags) point.  *Running* a workload on the built
machine is the job of the workload drivers (:mod:`repro.core.drivers`):
the system exposes the machinery drivers need (allocation, task
dispatch, sharding, report assembly) plus the variant hooks that make
MEDAL/NEST/BEACON-S differ (Bloom-filter placement, filter-merge
communication, the default k-mer pass structure), and thin ``run_*``
wrappers that delegate to the shared driver instances.

A system instance is single-shot: build, run one workload, read the report.
The experiment harness creates a fresh instance per matrix point — via
:func:`repro.core.registry.build_system` — which keeps runs independent
and deterministic; running a second workload on a consumed system raises
:class:`~repro.sim.engine.SimulationError`.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence

import numpy as np

from repro.core.config import Algorithm, BeaconConfig, OptimizationFlags
from repro.core.drivers import driver_for, profile_fm_blocks
from repro.core.hwmodel import PE_HARDWARE
from repro.core.metrics import Report
from repro.core.ndp_module import NdpModule
from repro.core.switch_logic import SwitchLogicD, SwitchLogicS
from repro.core.task import Task
from repro.cxl.flit import MessageKind
from repro.cxl.topology import MemoryPool
from repro.dram.dimm import DimmKind
from repro.genomics.fm_index import FMIndex
from repro.genomics.workloads import SeedingWorkload
from repro.memmgmt.allocator import PoolAllocator
from repro.memmgmt.framework import AllocationRequest, MemoryManagementFramework
from repro.memmgmt.placement import PlacementPlanner
from repro.sim.component import Component
from repro.sim.engine import Engine, SimulationError

#: The counters a :class:`Report` sums over the whole statistics tree.
_REPORT_KEYS = (
    "energy_act_nj", "energy_rw_nj", "energy_refresh_nj",
    "energy_background_nj", "energy_pj", "mem_requests", "wire_bytes",
    "useful_bytes", "local_requests", "detour_messages",
    "in_switch_turnarounds",
)


class BeaconSystem:
    """One simulated accelerator system (base for BEACON-D / BEACON-S)."""

    #: Subclasses set these.
    variant: str = "beacon"
    pe_hw_key: str = "BEACON"
    #: One-line description shown by the backend registry.
    backend_description: str = "abstract BEACON system (not registered)"
    #: Whether k-mer counting uses the single-pass global-filter flow even
    #: without the BEACON-S flag.  BEACON-D's Atomic Engines make the
    #: global filter the natural flow (one pass over the input, RMWs
    #: resolved at the owning switch); NEST and BEACON-S-without-the-
    #: optimization run the multi-pass flow of Section IV-D.
    kmer_single_pass_default: bool = False

    def __init__(
        self,
        config: BeaconConfig = BeaconConfig(),
        flags: OptimizationFlags = OptimizationFlags(),
        label: str = "",
    ) -> None:
        self.config = config.with_flags(flags)
        self.flags = flags
        self.label = label or self.variant
        self.engine = Engine()
        self.root = Component(self.engine, self.label)
        self.pool = MemoryPool(
            self.engine, "pool", self.root, self.config.comm,
            geometry=self.config.geometry, timing=self.config.timing,
        )
        self.allocator = PoolAllocator()
        self.ndp_modules: List[NdpModule] = []
        self._build_topology()
        self.framework = MemoryManagementFramework(
            self.engine, "framework", self.root, self.pool, self.allocator
        )
        self.planner = self._make_planner()
        self.framework.dedicate_dimms(self.allocator.all_dimms(), owner=self.label)
        self._consumed = False

    # -- construction (variant-specific) -------------------------------------------

    def _build_topology(self) -> None:
        raise NotImplementedError

    def _make_planner(self) -> PlacementPlanner:
        cfg = self.config
        fine = (
            cfg.coalesce_chips
            if self.flags.multi_chip_coalescing
            else cfg.fine_grained_chips
        )
        return PlacementPlanner(
            self.allocator, cfg.geometry,
            optimized=self.flags.data_placement,
            fine_grained_chips=fine,
            near_fraction=cfg.near_fraction,
        )

    # -- machinery the drivers use ----------------------------------------------------

    def _allocate(self, request: AllocationRequest, build) -> object:
        response = self.framework.allocate(request, build)
        if not response.success:
            raise RuntimeError(f"allocation failed: {response.error}")
        return response.region

    def _dispatch_and_run(self, tasks_per_module: Sequence[Sequence[Task]]) -> None:
        """Stream tasks host -> NDP modules, then run to completion."""
        total = sum(len(t) for t in tasks_per_module)
        if total == 0:
            return
        fabric = self.pool.fabric
        assert fabric.host is not None
        before = sum(m.tasks_completed for m in self.ndp_modules)
        for module, tasks in zip(self.ndp_modules, tasks_per_module):
            route = fabric.route(fabric.host.name, module.node)
            submit = module.submit_task
            for task in tasks:
                fabric.send(
                    route, MessageKind.TASK, task.payload_bytes,
                    on_delivered=partial(submit, task),
                )
        self.engine.run()
        completed = sum(m.tasks_completed for m in self.ndp_modules) - before
        if completed != total:
            raise SimulationError(
                f"{self.label}: {completed}/{total} tasks completed; "
                "the simulation deadlocked"
            )

    def _shard(self, items: Sequence) -> List[List]:
        """Round-robin split across the NDP modules."""
        shards: List[List] = [[] for _ in self.ndp_modules]
        for i, item in enumerate(items):
            shards[i % len(shards)].append(item)
        return shards

    def _task_payload(self, read: str) -> int:
        """TASK message payload: 2-bit-packed read + metadata."""
        return len(read) // 4 + 8

    def _finish_report(
        self, algorithm: Algorithm, dataset: str, tasks_completed: int
    ) -> Report:
        end = self.engine.now
        for dimm in self.pool.dimms:
            dimm.energy.finalize(end)
        totals = self.root.stats.totals(_REPORT_KEYS)
        dram_nj = (
            totals["energy_act_nj"]
            + totals["energy_rw_nj"]
            + totals["energy_refresh_nj"]
            + totals["energy_background_nj"]
        )
        comm_nj = totals["energy_pj"] / 1000.0
        busy = sum(m.pes.total_compute_cycles for m in self.ndp_modules)
        num_pes = sum(m.pes.num_pes for m in self.ndp_modules)
        compute_nj = PE_HARDWARE[self.pe_hw_key].compute_energy_nj(
            busy_cycles=busy, total_cycles=end,
            tck_ns=self.config.timing.tck_ns, num_pes=num_pes,
        )
        return Report(
            label=self.label,
            system=self.variant,
            algorithm=algorithm.value,
            dataset=dataset,
            runtime_cycles=end,
            tck_ns=self.config.timing.tck_ns,
            energy_dram_nj=dram_nj,
            energy_comm_nj=comm_nj,
            energy_compute_nj=compute_nj,
            tasks_completed=tasks_completed,
            mem_requests=int(totals["mem_requests"]),
            wire_bytes=totals["wire_bytes"],
            useful_bytes=totals["useful_bytes"],
            extra={
                "pe_utilization": float(np.mean(
                    [m.pes.utilization(end) for m in self.ndp_modules]
                )) if self.ndp_modules else 0.0,
                "local_requests": totals["local_requests"],
                "host_detours": totals["detour_messages"],
                "in_switch_turnarounds": totals["in_switch_turnarounds"],
                "dram_activations": float(sum(
                    d.total_activations for d in self.pool.dimms
                )),
            },
        )

    def _consume(self) -> None:
        if self._consumed:
            raise SimulationError(
                f"{self.label}: {type(self).__name__} instances are "
                "single-shot and this one already ran a workload (its event "
                "engine is drained and its statistics are final); build a "
                "fresh system per run via repro.core.registry.build_system"
            )
        self._consumed = True

    # -- variant hooks the k-mer driver consults -----------------------------------

    def _bloom_region_for(self, module_index: int, size: int):
        """Placement home of one module's Bloom filter (variant hook)."""
        module = self.ndp_modules[module_index]
        home_switch = self.pool.owner_switch(self._module_dimm(module_index)) \
            if module.node in self.pool.dimm_nodes else module.node
        return self.planner.bloom_filter(
            f"bloom{module_index}", size, home_switch=home_switch
        )

    def _module_dimm(self, module_index: int) -> int:
        module = self.ndp_modules[module_index]
        return self.pool.dimm_nodes.index(module.node)

    def _transfer_filters(self, filter_bytes: int) -> None:
        """Merge-phase communication: locals to the host, global back out."""
        fabric = self.pool.fabric
        assert fabric.host is not None
        pending = {"n": 2 * len(self.ndp_modules)}

        def arrived() -> None:
            pending["n"] -= 1

        for module in self.ndp_modules:
            up = fabric.route(module.node, fabric.host.name)
            down = fabric.route(fabric.host.name, module.node)
            fabric.send(up, MessageKind.CONTROL, filter_bytes, on_delivered=arrived)
            fabric.send(down, MessageKind.CONTROL, filter_bytes, on_delivered=arrived)
        self.engine.run()
        if pending["n"]:
            raise SimulationError("filter merge transfers did not complete")

    # -- workload runners (delegating to repro.core.drivers) -------------------------

    def _profile_fm_blocks(self, fm: FMIndex, reads: Sequence[str],
                           sample_fraction: float = 0.1) -> np.ndarray:
        """Access-frequency profile used for hot-block placement (see
        :func:`repro.core.drivers.profile_fm_blocks`)."""
        return profile_fm_blocks(fm, reads, sample_fraction)

    def run_fm_seeding(self, workload: SeedingWorkload) -> Report:
        """FM-index based DNA seeding over one dataset."""
        return driver_for(Algorithm.FM_SEEDING).run(self, workload)

    def run_hash_seeding(
        self,
        workload: SeedingWorkload,
        k: int = 13,
        bucket_load: int = 4,
    ) -> Report:
        """Hash-index (SMALT-style) DNA seeding over one dataset."""
        return driver_for(Algorithm.HASH_SEEDING).run(
            self, workload, k=k, bucket_load=bucket_load
        )

    def run_kmer_counting(
        self,
        workload: SeedingWorkload,
        k: int = 15,
        num_counters: int = 1 << 18,
    ) -> Report:
        """k-mer counting: single-pass when the flag is set, else multi-pass.

        Returns the report; the functional filters are exposed afterwards as
        ``self.kmer_filters`` (per module) / ``self.kmer_global_filter``.
        """
        return driver_for(Algorithm.KMER_COUNTING).run(
            self, workload, k=k, num_counters=num_counters
        )

    def run_prealignment(
        self,
        workload: SeedingWorkload,
        max_edits: int = 3,
        candidates_per_read: int = 4,
    ) -> Report:
        """Shouji-style pre-alignment over seeding candidates."""
        return driver_for(Algorithm.PREALIGNMENT).run(
            self, workload, max_edits=max_edits,
            candidates_per_read=candidates_per_read,
        )

    # -- Section V extension point -----------------------------------------------------------------

    def allocate_custom_region(self, name: str, size_bytes: int,
                               spatially_local: bool = False):
        """Allocate a region for a custom application (Section V).

        ``spatially_local`` picks between the two data-aware mapping
        families: row-major placement for streaming/sequential structures,
        or fine-grained interleaving for random-probe structures.
        """
        build = (
            (lambda: self.planner.reference(name, size_bytes))
            if spatially_local
            else (lambda: self.planner.hash_directory(name, size_bytes))
        )
        return self._allocate(
            AllocationRequest(application="custom", algorithm="custom",
                              dataset=name, size_bytes=size_bytes),
            build,
        )

    def run_custom(self, app, tasks: Sequence[Task]) -> Report:
        """Run a custom application's tasks on the unchanged NDP machinery."""
        self._consume()
        tasks = list(tasks)
        self._dispatch_and_run(self._shard(tasks))
        return self._finish_report(Algorithm.CUSTOM, app.name, len(tasks))

    # -- generic dispatch --------------------------------------------------------------------------

    def run_algorithm(self, algorithm: Algorithm, workload: SeedingWorkload,
                      **kwargs) -> Report:
        """Run any of the four applications by enum (harness convenience)."""
        return driver_for(algorithm).run(self, workload, **kwargs)


class BeaconD(BeaconSystem):
    """BEACON-D: Processing-In-DIMM on CXLG-DIMMs (Fig. 4 (a))."""

    variant = "beacon-d"
    pe_hw_key = "BEACON"
    backend_description = ("BEACON-D: Processing-In-DIMM NDP modules on "
                           "CXLG-DIMMs (Fig. 4 (a))")
    kmer_single_pass_default = True

    def _build_topology(self) -> None:
        cfg = self.config
        fabric = self.pool.fabric
        fabric.add_host()
        self.switch_logics: List[SwitchLogicD] = []
        for s in range(cfg.num_switches):
            switch = fabric.add_switch(f"sw{s}")
            self.switch_logics.append(
                SwitchLogicD(
                    self.engine, f"swlogic{s}", self.root, switch, self.pool,
                    num_atomic_engines=cfg.atomic_engines_per_switch,
                    atomic_compute_cycles=cfg.atomic_compute_cycles,
                )
            )
            for j in range(cfg.dimms_per_switch):
                is_cxlg = j < cfg.cxlg_per_switch
                node = f"d{s}.{j}"
                index = self.pool.add_dimm(
                    node, f"sw{s}",
                    DimmKind.CXLG if is_cxlg else DimmKind.UNMODIFIED_CXL,
                )
                self.allocator.register_dimm(
                    index, node, f"sw{s}", is_cxlg=is_cxlg,
                    tenant_bytes=1 << 20,
                )
                if is_cxlg:
                    self.ndp_modules.append(
                        NdpModule(
                            self.engine, f"ndp{index}", self.root, node=node,
                            num_pes=cfg.pes_per_cxlg, pool=self.pool,
                            region_map=self.allocator.region_map,
                        )
                    )


class BeaconS(BeaconSystem):
    """BEACON-S: Processing-In-Switch, all DIMMs unmodified (Fig. 4 (b))."""

    variant = "beacon-s"
    pe_hw_key = "BEACON"
    backend_description = ("BEACON-S: Processing-In-Switch NDP modules, all "
                           "DIMMs unmodified (Fig. 4 (b))")

    def _build_topology(self) -> None:
        cfg = self.config
        fabric = self.pool.fabric
        fabric.add_host()
        self.switch_logics: List[SwitchLogicS] = []
        for s in range(cfg.num_switches):
            switch = fabric.add_switch(f"sw{s}")
            logic = SwitchLogicS(
                self.engine, f"swlogic{s}", self.root, switch, self.pool,
                region_map=self.allocator.region_map,
                num_pes=cfg.pes_per_switch,
                atomic_compute_cycles=cfg.atomic_compute_cycles,
            )
            self.switch_logics.append(logic)
            self.ndp_modules.append(logic.ndp)
            for j in range(cfg.dimms_per_switch):
                node = f"d{s}.{j}"
                index = self.pool.add_dimm(node, f"sw{s}", DimmKind.UNMODIFIED_CXL)
                self.allocator.register_dimm(
                    index, node, f"sw{s}", is_cxlg=False,
                    tenant_bytes=1 << 20,
                )
