"""Tests for the core building blocks: config, PEs, scheduler, tasks,
metrics, hardware model, atomic engines."""

import pytest

from repro.core import (
    Algorithm,
    BeaconConfig,
    ComputeStep,
    MemStep,
    OptimizationFlags,
    PE_COMPUTE_CYCLES,
    PE_HARDWARE,
    Report,
    Task,
)
from repro.core.hwmodel import beacon_overhead_vs
from repro.core.metrics import geometric_mean
from repro.core.pe import PePool
from repro.core.task import AccessSpec
from repro.core.task_scheduler import TaskScheduler
from repro.sim import Engine
from repro.sim.component import Component


class TestOptimizationFlags:
    def test_vanilla_has_nothing(self):
        v = OptimizationFlags.vanilla()
        assert not any([v.data_packing, v.memory_access_opt, v.data_placement,
                        v.multi_chip_coalescing, v.single_pass_kmer])

    def test_cumulative_order_matches_paper(self):
        steps = OptimizationFlags.cumulative_steps(
            "beacon-d", Algorithm.FM_SEEDING)
        labels = [label for label, _ in steps]
        assert labels == ["CXL-vanilla", "+data packing", "+memory access opt",
                          "+placement & mapping", "+multi-chip coalescing"]
        assert steps[-1][1].multi_chip_coalescing

    def test_algorithm_specific_steps(self):
        d_kmer = OptimizationFlags.cumulative_steps(
            "beacon-d", Algorithm.KMER_COUNTING)
        assert all("coalescing" not in label for label, _ in d_kmer)
        s_kmer = OptimizationFlags.cumulative_steps(
            "beacon-s", Algorithm.KMER_COUNTING)
        assert s_kmer[-1][0] == "+single-pass counting"
        assert s_kmer[-1][1].single_pass_kmer

    def test_cumulative_monotone(self):
        steps = OptimizationFlags.cumulative_steps(
            "beacon-s", Algorithm.HASH_SEEDING)
        enabled = 0
        for _label, flags in steps:
            now = sum([flags.data_packing, flags.memory_access_opt,
                       flags.data_placement, flags.multi_chip_coalescing,
                       flags.single_pass_kmer])
            assert now >= enabled
            enabled = now

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            OptimizationFlags.cumulative_steps("beacon-x", Algorithm.FM_SEEDING)


class TestBeaconConfig:
    def test_table1_defaults(self):
        cfg = BeaconConfig()
        assert cfg.total_dimms == 8
        assert cfg.total_pes_d == 256
        assert cfg.total_pes_s == 512
        assert cfg.baseline_pes_per_dimm * cfg.total_dimms == cfg.total_pes_d

    def test_with_flags_propagates_comm(self):
        cfg = BeaconConfig().with_flags(
            OptimizationFlags(data_packing=True, memory_access_opt=True))
        assert cfg.comm.data_packing
        assert cfg.comm.device_bias

    def test_idealized(self):
        assert BeaconConfig().idealized().comm.ideal

    def test_scaled(self):
        cfg = BeaconConfig().scaled(8)
        assert cfg.pes_per_cxlg == 16
        assert cfg.pes_per_switch == 32
        with pytest.raises(ValueError):
            BeaconConfig().scaled(0)

    def test_pe_latencies_from_paper(self):
        assert PE_COMPUTE_CYCLES[Algorithm.FM_SEEDING] == 16
        assert PE_COMPUTE_CYCLES[Algorithm.HASH_SEEDING] == 10
        assert PE_COMPUTE_CYCLES[Algorithm.KMER_COUNTING] == 59
        assert PE_COMPUTE_CYCLES[Algorithm.PREALIGNMENT] == 82


class TestPePool:
    def test_acquire_release(self):
        engine = Engine()
        root = Component(engine, "sys")
        pool = PePool(engine, "pes", root, num_pes=2)
        assert pool.acquire() and pool.acquire()
        assert not pool.acquire()
        pool.release()
        assert pool.available == 1
        with pytest.raises(ValueError):
            PePool(engine, "bad", root, num_pes=0)

    def test_release_without_acquire(self):
        engine = Engine()
        root = Component(engine, "sys")
        pool = PePool(engine, "pes", root, num_pes=1)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_utilization_accounting(self):
        engine = Engine()
        root = Component(engine, "sys")
        pool = PePool(engine, "pes", root, num_pes=2)
        pool.acquire()
        engine.schedule(100, pool.release)
        engine.run()
        assert abs(pool.utilization(100) - 0.5) < 1e-9

    def test_compute_recording(self):
        engine = Engine()
        root = Component(engine, "sys")
        pool = PePool(engine, "pes", root, num_pes=1)
        pool.record_compute(Algorithm.FM_SEEDING, 16)
        pool.record_compute(Algorithm.KMER_COUNTING, 59)
        assert pool.total_compute_cycles == 75
        assert pool.stats.get("compute_cycles.fm_seeding") == 16


class TestTaskScheduler:
    def _sched(self):
        engine = Engine()
        root = Component(engine, "sys")
        return TaskScheduler(engine, "sched", root)

    def _task(self):
        return Task(algorithm=Algorithm.FM_SEEDING, steps=iter(()))

    def test_ready_queue_fifo(self):
        sched = self._sched()
        t1, t2 = self._task(), self._task()
        sched.push_ready(t1)
        sched.push_ready(t2)
        assert list(sched.ready) == [t1, t2]

    def test_operand_scoreboard(self):
        sched = self._sched()
        task = self._task()
        sched.park(task, operands=3)
        assert sched.waiting_count == 1
        sched.operand_ready(task)
        sched.operand_ready(task)
        assert not sched.ready
        sched.operand_ready(task)
        assert list(sched.ready) == [task]
        assert sched.waiting_count == 0

    def test_on_ready_hook(self):
        sched = self._sched()
        hits = []
        sched.on_ready = lambda: hits.append(1)
        sched.push_ready(self._task())
        assert hits == [1]

    def test_park_validation(self):
        sched = self._sched()
        with pytest.raises(ValueError):
            sched.park(self._task(), operands=0)
        with pytest.raises(RuntimeError):
            sched.operand_ready(self._task())

    def test_idle(self):
        sched = self._sched()
        assert sched.idle
        task = self._task()
        sched.park(task, 1)
        assert not sched.idle


class TestReport:
    def _report(self, runtime, energy):
        return Report(label="x", system="s", algorithm="a", dataset="d",
                      runtime_cycles=runtime, tck_ns=1.25,
                      energy_dram_nj=energy * 0.5, energy_comm_nj=energy * 0.4,
                      energy_compute_nj=energy * 0.1, tasks_completed=1)

    def test_ratios(self):
        fast = self._report(100, 10)
        slow = self._report(400, 40)
        assert fast.speedup_vs(slow) == 4.0
        assert fast.energy_reduction_vs(slow) == 4.0
        assert fast.percent_of_ideal(self._report(90, 9)) == 0.9

    def test_fractions(self):
        r = self._report(100, 10)
        assert abs(r.comm_energy_fraction - 0.4) < 1e-9
        assert abs(r.compute_energy_fraction - 0.1) < 1e-9

    def test_units(self):
        r = self._report(800, 10)
        assert r.runtime_ns == 1000.0
        assert r.runtime_us == 1.0

    def test_summary_contains_key_numbers(self):
        text = self._report(800, 10).summary()
        assert "us" in text and "tasks" in text

    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1, 0])


class TestHardwareModel:
    def test_table2_values(self):
        assert PE_HARDWARE["MEDAL"].area_um2 == pytest.approx(8941.39)
        assert PE_HARDWARE["NEST"].area_um2 == pytest.approx(16721.12)
        assert PE_HARDWARE["BEACON"].area_um2 == pytest.approx(14090.23)

    def test_paper_relations(self):
        beacon = PE_HARDWARE["BEACON"]
        assert PE_HARDWARE["MEDAL"].area_um2 < beacon.area_um2 < \
            PE_HARDWARE["NEST"].area_um2
        # BEACON has the lowest leakage of the three.
        assert beacon.leakage_power_uw == min(
            hw.leakage_power_uw for hw in PE_HARDWARE.values())

    def test_overhead_ratios(self):
        ratios = beacon_overhead_vs("NEST")
        assert ratios["area_ratio"] < 1.0
        ratios = beacon_overhead_vs("MEDAL")
        assert ratios["area_ratio"] > 1.0

    def test_compute_energy_model(self):
        hw = PE_HARDWARE["BEACON"]
        energy = hw.compute_energy_nj(busy_cycles=1000, total_cycles=2000,
                                      tck_ns=1.25, num_pes=4)
        assert energy > 0
        more = hw.compute_energy_nj(busy_cycles=2000, total_cycles=2000,
                                    tck_ns=1.25, num_pes=4)
        assert more > energy


class TestTaskSteps:
    def test_step_types(self):
        c = ComputeStep(16)
        m = MemStep([AccessSpec(addr=0, size=32)])
        assert c.cycles == 16
        assert m.accesses[0].size == 32

    def test_task_ids_unique(self):
        a = Task(algorithm=Algorithm.FM_SEEDING, steps=iter(()))
        b = Task(algorithm=Algorithm.FM_SEEDING, steps=iter(()))
        assert a.task_id != b.task_id


class TestReportSerialization:
    def _report(self):
        return Report(label="x", system="beacon-d", algorithm="fm_seeding",
                      dataset="Pt", runtime_cycles=1000, tck_ns=1.25,
                      energy_dram_nj=10.0, energy_comm_nj=5.0,
                      energy_compute_nj=1.0, tasks_completed=7,
                      mem_requests=42, wire_bytes=100.0, useful_bytes=80.0,
                      extra={"pe_utilization": 0.5})

    def test_roundtrip_dict(self):
        report = self._report()
        clone = Report.from_dict(report.to_dict())
        assert clone.runtime_cycles == report.runtime_cycles
        assert clone.total_energy_nj == report.total_energy_nj
        assert clone.extra == report.extra

    def test_derived_fields_in_dict(self):
        data = self._report().to_dict()
        assert data["total_energy_nj"] == 16.0
        assert data["comm_energy_fraction"] == pytest.approx(5 / 16)

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        report.save_json(path)
        loaded = Report.load_json(path)
        assert loaded.to_dict() == report.to_dict()
