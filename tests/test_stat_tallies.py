"""Per-event counters are their owners' tallies, read through one pull.

The components on the per-request path keep their counters as plain
attributes and install a read hook on their ``StatScope``
(``StatScope.pull``); ``get``, ``total``, ``walk`` and ``as_dict`` run it,
so every reader sees the floats the zero-default counter dict used to
hold, under the same keys.

* ``TestPinnedTrees`` compares the whole ``as_dict()`` tree of two small
  runs with ``data/stats_trees.json``.  The file was recorded while the
  counters were still dict writes; only the two write-only counters since
  deleted (the controller's ``bursts`` and the Task Scheduler's
  ``ready_pushes``) were dropped from it.  Bench digests cover only the
  ``Report`` fields, so this is what pins the rest of the tree.
* ``TestPerEventGuard`` reads the source of the per-event functions and
  fails if one writes a ``counters[...]`` subscript or calls
  ``stats.add``: those are a dict write each, where a tally is an
  attribute increment.
"""

import ast
import importlib
import json
import os
from collections import defaultdict

import pytest

from repro.core import BeaconConfig, BeaconD
from repro.core.config import Algorithm, OptimizationFlags
from repro.core.custom import CustomApplication, probe_steps
from repro.core.pe import PePool
from repro.core.registry import build_system
from repro.cxl import (
    IDEAL_LINK_PARAMS,
    Link,
    LinkParams,
    Message,
    MessageKind,
    PackedChannel,
)
from repro.dram.power import DramEnergyModel, DramEnergyParams
from repro.experiments.runner import ExperimentScale
from repro.obs import TraceSession
from repro.sim import Engine
from repro.sim.component import Component
from repro.sim.stats import StatScope

TREES = os.path.join(os.path.dirname(__file__), "data", "stats_trees.json")


def _fm_system():
    """Quick BEACON-D FM seeding on Pt with data packing and device bias
    (``+memory access opt``): host detours and switch turn-arounds both
    occur."""
    scale = ExperimentScale.quick()
    spec = next(s for s in scale.seeding_datasets() if s.name == "Pt")
    flags = OptimizationFlags(data_packing=True, memory_access_opt=True)
    system = build_system("beacon-d", scale.config_for(Algorithm.FM_SEEDING),
                          flags)
    system.run_algorithm(Algorithm.FM_SEEDING, scale.seeding_workload(spec))
    return system


def _kmer_system():
    """Quick BEACON-D k-mer counting, every optimization on: atomics
    routed to the switches' Atomic Engines."""
    scale = ExperimentScale.quick()
    algorithm = Algorithm.KMER_COUNTING
    system = build_system("beacon-d", scale.config_for(algorithm),
                          OptimizationFlags.all_for("beacon-d", algorithm))
    system.run_algorithm(algorithm, scale.kmer_workload(), k=scale.kmer_k,
                         num_counters=scale.num_counters)
    return system


def _leaves(tree, path=""):
    """``(scope path, key, value)`` for every counter in an ``as_dict``
    tree (keys may contain dots, as ``compute_cycles.<algorithm>`` does)."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}.{key}")
        else:
            yield path, key, value


class TestPinnedTrees:
    @pytest.mark.parametrize("name, run", [("fm", _fm_system),
                                           ("kmer", _kmer_system)])
    def test_tree_equals_the_recorded_one(self, name, run):
        with open(TREES) as f:
            expected = json.load(f)[name]
        tree = run().root.stats.as_dict()
        assert tree == expected
        assert all(type(value) is float for *_where, value in _leaves(tree))

    def test_routed_atomics_are_in_the_kmer_tree(self):
        with open(TREES) as f:
            keys = {key for _path, key, _value
                    in _leaves(json.load(f)["kmer"])}
        assert {"rmw_ops", "queued", "compute_cycles.kmer_counting"} <= keys


class TestPull:
    def _scope(self):
        root = StatScope("root")
        child = root.child("c")
        calls = []

        def pull():
            calls.append(1)
            child.counters["k"] = float(len(calls))

        child.pull = pull
        return root, child, calls

    @pytest.mark.parametrize("read", [
        lambda root, child: child.get("k"),
        lambda root, child: root.total("k"),
        lambda root, child: list(root.walk()),
        lambda root, child: root.as_dict(),
        lambda root, child: child.as_dict(),
    ])
    def test_every_reader_pulls(self, read):
        root, child, calls = self._scope()
        read(root, child)
        assert calls == [1]
        assert child.counters["k"] == 1.0

    def test_walk_pulls_each_scope_before_yielding_it(self):
        root, child, calls = self._scope()
        for scope in root.walk():
            if scope is child:
                assert calls == [1]
                assert scope.counters["k"] == 1.0

    def test_scope_without_owner_reads_as_before(self):
        root = StatScope("root")
        root.add("x", 2)
        assert root.get("x") == 2.0
        assert root.as_dict() == {"x": 2.0}


def _message(payload_bytes=8):
    return Message(MessageKind.MEM_RESPONSE, payload_bytes=payload_bytes,
                   on_delivered=lambda: None)


class TestKeysOnFirstWrite:
    """A key exists from its first write, also when that write adds zero,
    and never before."""

    def _channel(self, params, packing=False):
        engine = Engine()
        root = Component(engine, "sys")
        link = Link(engine, "l", root, params)
        return engine, link, PackedChannel(engine, "chan", link, link,
                                           packing=packing)

    def test_idle_link_and_channel_report_nothing(self):
        _engine, link, chan = self._channel(LinkParams(16, 1, 1.0))
        assert link.stats.as_dict() == {"chan": {}}
        assert chan.stats.as_dict() == {}

    def test_zero_energy_link_still_reports_energy(self):
        engine, link, chan = self._channel(LinkParams(16, 1, 0.0))
        chan.send(_message(62))
        engine.run()
        assert link.stats.get("energy_pj", None) == 0.0
        assert link.stats.get("busy_cycles") == 4.0
        assert chan.stats.as_dict() == {"payload_bytes": 62.0,
                                        "direct_messages": 1.0}

    def test_ideal_link_has_no_busy_cycles(self):
        engine, link, chan = self._channel(IDEAL_LINK_PARAMS)
        chan.send(_message(62))
        engine.run()
        counters = link.stats.as_dict()
        assert counters.pop("chan") == {"payload_bytes": 62.0,
                                        "direct_messages": 1.0}
        assert counters == {"messages": 1.0, "wire_bytes": 64.0,
                            "energy_pj": 0.0}

    def test_buffered_message_reports_its_payload(self):
        engine, link, chan = self._channel(LinkParams(16, 1, 1.0),
                                           packing=True)
        link.free_at = 100  # busy link: the packed message waits
        chan.send(_message(8))
        assert chan.pending == 1
        assert chan.stats.as_dict() == {"payload_bytes": 8.0}
        engine.run()
        assert chan.stats.as_dict() == {"payload_bytes": 8.0,
                                        "packed_flits": 1.0,
                                        "packed_messages": 1.0}

    def test_zero_energy_dram_events_create_their_keys(self):
        stats = StatScope("dimm")
        model = DramEnergyModel(stats, total_chips=8, tck_ns=1.25,
                                params=DramEnergyParams(0.0, 0.0, 0.0, 0.0))
        assert stats.as_dict() == {}
        model.on_activate(chips=8)
        assert stats.as_dict() == {"energy_act_nj": 0.0}
        model.on_burst(chips=8, bursts=1, is_write=False)
        assert stats.as_dict() == {"energy_act_nj": 0.0, "energy_rw_nj": 0.0}

    def test_alternating_algorithms_sum_per_algorithm(self):
        engine = Engine()
        pool = PePool(engine, "pes", Component(engine, "sys"), num_pes=1)
        assert pool.stats.as_dict() == {}
        for algorithm, cycles in [(Algorithm.FM_SEEDING, 3),
                                  (Algorithm.KMER_COUNTING, 0),
                                  (Algorithm.FM_SEEDING, 5),
                                  (Algorithm.KMER_COUNTING, 7),
                                  (Algorithm.FM_SEEDING, 11)]:
            pool.record_compute(algorithm, cycles)
        assert pool.stats.as_dict() == {
            "compute_cycles": 26.0,
            "compute_cycles.fm_seeding": 19.0,
            "compute_cycles.kmer_counting": 7.0,
        }

    def test_zero_cycle_compute_step_creates_its_keys(self):
        flags = OptimizationFlags(data_packing=True, memory_access_opt=True,
                                  data_placement=True)
        system = BeaconD(config=BeaconConfig().scaled(16), flags=flags)
        app = CustomApplication(name="probe", compute_cycles=0)
        region = system.allocate_custom_region("idx", 1 << 14)
        tasks = [app.task(probe_steps(app, [0, 8, 64], region.base))
                 for _ in range(5)]
        system.run_custom(app, tasks)
        trees = [m.pes.stats.as_dict() for m in system.ndp_modules]
        ran = [tree for tree in trees if tree]
        assert ran
        assert all(tree == {"compute_cycles": 0.0,
                            "compute_cycles.custom": 0.0} for tree in ran)


#: Keys the sampler must see growing while the run is in flight, one per
#: tally owner on the FM point.
LIVE_KEYS = ("payload_bytes", "wire_bytes", "energy_pj", "busy_cycles",
             "issued", "useful_bytes", "energy_rw_nj", "translations",
             "mem_requests", "parked", "compute_cycles", "detour_messages",
             "in_switch_turnarounds")


def test_metrics_sampler_sees_live_tallies():
    with TraceSession(metrics_interval=500) as session:
        system = _fm_system()
    end = system.engine.now
    final = {scope.path: dict(scope.counters)
             for scope in system.root.stats.walk()}
    series = defaultdict(list)
    for sample in session.sampler.samples:
        series[sample.path, sample.key].append((sample.cycle, sample.value))
    for (path, key), points in series.items():
        values = [value for _cycle, value in points]
        assert values == sorted(values), (path, key)
        assert values[-1] <= final[path][key], (path, key)
    for key in LIVE_KEYS:
        assert any(
            cycle < end and 0 < value < final[path][key]
            for (path, sampled), points in series.items() if sampled == key
            for cycle, value in points
        ), key


#: The per-event functions, by module: each runs once or more per message,
#: memory request, operand or compute step.
PER_EVENT = {
    "repro.cxl.packer": ["PackedChannel.send", "PackedChannel._take_batch"],
    "repro.cxl.topology": ["Fabric.route", "Fabric.round_trip",
                           "MemoryPool.access", "MemoryPool._launch"],
    "repro.dram.request": ["MemoryRequest.respond", "MemoryRequest.deliver"],
    "repro.cxl.host": ["Host.record_detour"],
    "repro.cxl.switch": ["CxlSwitch.record_turnaround"],
    "repro.dram.controller": ["DimmController.submit_when_possible",
                              "DimmController._schedule_pass",
                              "DimmController._issue"],
    "repro.dram.power": ["DramEnergyModel.on_activate",
                         "DramEnergyModel.on_burst"],
    "repro.core.address_translator": ["AddressTranslator.translate"],
    "repro.core.task_scheduler": ["TaskScheduler.push_ready",
                                  "TaskScheduler.park",
                                  "TaskScheduler.operand_ready"],
    "repro.core.ndp_module": ["NdpModule._advance",
                              "NdpModule._issue_mem_step"],
    "repro.core.pe": ["PePool.record_compute"],
    "repro.core.atomic_engine": ["AtomicEngineBank.perform",
                                 "AtomicEngineBank._claim_engine"],
}


def _terminal(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dict_counter_writes(function):
    """``(line, what)`` for each ``counters[...]`` store and each
    ``stats.add`` call in ``function`` (an ``ast.FunctionDef``)."""
    found = []
    for node in ast.walk(function):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and "counters" in (_terminal(node.value) or "")):
            found.append((node.lineno, "counters[...] write"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add"
              and _terminal(node.func.value) == "stats"):
            found.append((node.lineno, "stats.add call"))
    return found


def _functions(module_name):
    """``{"Class.method": FunctionDef}`` of a module's classes."""
    module = importlib.import_module(module_name)
    with open(module.__file__) as f:
        tree = ast.parse(f.read())
    return {
        f"{cls.name}.{fn.name}": fn
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    }


class TestPerEventGuard:
    @pytest.mark.parametrize("module_name", sorted(PER_EVENT))
    def test_per_event_functions_write_no_counter_dict(self, module_name):
        functions = _functions(module_name)
        for qualname in PER_EVENT[module_name]:
            assert qualname in functions, f"{module_name}.{qualname} is gone"
            assert dict_counter_writes(functions[qualname]) == [], (
                f"{module_name}.{qualname}: keep per-event counters as "
                "tallies of the owner (see repro.sim.stats)")

    @pytest.mark.parametrize("source", [
        "def f(self):\n    self._counters['k'] += 1\n",
        "def f(self):\n    counters = self.stats.counters\n"
        "    counters['k'] = 2\n",
        "def f(self):\n    self.stats.counters['k'] += 1\n",
        "def f(self):\n    self.stats.add('k', 1)\n",
        "def f(dimm):\n    dimm.stats.add('k')\n",
    ])
    def test_guard_catches_dict_writes(self, source):
        assert dict_counter_writes(ast.parse(source).body[0])

    @pytest.mark.parametrize("source", [
        "def f(self):\n    self.issued += 1\n",
        "def f(self):\n    link = self.link\n    link.wire_bytes += 64\n",
        "def f(self):\n    return self.stats.get('k')\n",
    ])
    def test_guard_passes_tallies(self, source):
        assert dict_counter_writes(ast.parse(source).body[0]) == []
