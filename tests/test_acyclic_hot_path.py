"""The fabric and access hot path builds no reference cycles.

``Engine.run`` pauses the cyclic garbage collector while it drains events.
That is only safe if the objects the hot path allocates per message and per
memory access are freed by reference counting: anything caught in a cycle
(or hanging off one) would pile up until the next collection.  These tests
run quick-scale BEACON-D points with the collector off and
``gc.DEBUG_SAVEALL`` on, keep the system alive, and then check that a
collection finds no message, flight or memory request.
"""

import gc
from collections import Counter
from functools import partial

from repro.core import Algorithm, OptimizationFlags
from repro.core.registry import build_system
from repro.cxl.flit import Message
from repro.cxl.topology import RmwFlight
from repro.dram.request import MemoryRequest
from repro.experiments.runner import ExperimentScale

#: Per-message and per-access objects that must never be cyclic garbage.
#: A ``MemoryRequest`` is its own round trip's flight and points at its
#: ``Message`` until the response leg starts; a ``partial`` is a message's
#: next step on the wire (the next hop's ``send`` bound to the message) or
#: a request leg's arrival step (the controller's or Atomic Engine's entry
#: bound to the request).
HOT_PATH_TYPES = (Message, partial, RmwFlight, MemoryRequest)


def _run_and_collect(run):
    """Call ``run()`` with the collector off, then collect while its
    result is still alive.  Returns the result and the hot-path objects
    the collection found unreachable, counted by type name."""
    was_enabled = gc.isenabled()
    old_debug = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        found = Counter(
            type(obj).__name__ for obj in gc.garbage
            if isinstance(obj, HOT_PATH_TYPES)
        )
    finally:
        gc.set_debug(old_debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return result, found


def _quick_point(algorithm):
    """A quick-scale BEACON-D point with every optimization on; returns
    the system and its report."""
    scale = ExperimentScale.quick()
    system = build_system("beacon-d", scale.config_for(algorithm),
                          OptimizationFlags.all_for("beacon-d", algorithm))
    if algorithm is Algorithm.KMER_COUNTING:
        report = system.run_algorithm(
            algorithm, scale.kmer_workload(), k=scale.kmer_k,
            num_counters=scale.num_counters,
        )
    else:
        spec = scale.seeding_datasets()[0]
        report = system.run_algorithm(algorithm, scale.seeding_workload(spec))
    return system, report


def test_kmer_atomics_leave_no_cyclic_garbage():
    """Routed atomics, module-local atomics and the ``dram_access`` halves
    of both, over packed channels."""
    (system, _report), garbage = _run_and_collect(
        lambda: _quick_point(Algorithm.KMER_COUNTING))
    assert garbage == Counter()
    banks = system.pool._atomic_engines.values()
    routed = sum(bank.stats.get("rmw_ops") for bank in banks)
    issued = sum(mc.stats.get("issued") for mc in system.pool.controllers)
    assert routed > 0
    # Every atomic issues a read and a write; more DRAM accesses than the
    # routed atomics account for means module-local atomics ran too.
    assert issued > 2 * routed


def test_plain_accesses_leave_no_cyclic_garbage():
    """Plain read round trips (``MemoryPool.access``) over packed channels."""
    (_system, report), garbage = _run_and_collect(
        lambda: _quick_point(Algorithm.FM_SEEDING))
    assert garbage == Counter()
    assert report.mem_requests > 0


def test_check_reports_a_request_cycle():
    """The check itself can fail: a request in a cycle is reported."""

    class Holder:
        pass

    def run():
        holder = Holder()
        holder.request = MemoryRequest(addr=0, size=8)
        holder.request.on_complete = lambda _r, holder=holder: None

    assert _run_and_collect(run)[1] == Counter({"MemoryRequest": 1})
