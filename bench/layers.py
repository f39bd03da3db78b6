"""Fold a cProfile run into per-layer host time.

A layer is one package of the simulator (``repro.sim``, ``repro.dram``,
...).  Each profiled function's self time goes to the layer its module
belongs to.  Time spent in code outside ``repro`` (builtins, numpy, the
standard library) is charged to the nearest ``repro`` caller, split in
proportion to pstats' per-caller times; time with no ``repro`` caller at
all (the benchmark's own loop, interpreter start-up) lands in ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: The simulator's packages, in the order they are reported.
LAYERS: Tuple[str, ...] = (
    "sim", "dram", "cxl", "core", "genomics", "memmgmt", "baselines",
    "experiments", "obs",
)

#: Everything that is not one of :data:`LAYERS`.
OTHER = "other"

#: pstats key: (filename, first line, function name).
FuncKey = Tuple[str, int, str]


def layer_of(filename: str, package_dir: str) -> Optional[str]:
    """Layer of a function defined in ``filename``, or ``None`` if the file
    is not part of the ``repro`` package rooted at ``package_dir``.

    Modules of ``repro`` outside the nine layers (``repro/__init__.py``,
    ``repro.perf``, ``repro.analysis``, ...) count as :data:`OTHER`.
    """
    root = os.path.normcase(os.path.abspath(package_dir)) + os.sep
    path = os.path.normcase(os.path.abspath(filename))
    if not path.startswith(root):
        return None
    head = path[len(root):].split(os.sep, 1)[0]
    return head if head in LAYERS else OTHER


def fold(stats: Dict[FuncKey, tuple], package_dir: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": n}}`` for every layer and OTHER.

    ``stats`` is ``pstats.Stats(...).stats``: each value is ``(primitive
    calls, total calls, self time, cumulative time, callers)`` where
    ``callers`` maps a caller key to the same four numbers restricted to
    calls from that caller.  ``calls`` counts calls of the layer's own
    functions; time charged from non-``repro`` callees adds no calls.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}
    own = {key: layer_of(key[0], package_dir) for key in stats}
    upstream: Dict[FuncKey, Dict[str, float]] = {}

    def caller_layers(key: FuncKey, weight_index: int,
                      visiting: frozenset) -> Dict[str, float]:
        """Where ``key``'s time goes, as layer -> fraction (sums to 1)."""
        callers = stats[key][4] if key in stats else {}
        weights = {c: v[weight_index] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            return {OTHER: 1.0}
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, part in through(caller, visiting).items():
                mix[name] = mix.get(name, 0.0) + part * weight / total
        return mix

    def through(key: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Layers that time flowing *out of* ``key`` is charged to."""
        layer = own.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in visiting:
            return {OTHER: 1.0}
        if key not in upstream:
            # Time entering ``key`` from each caller: cumulative time per
            # caller (index 3).
            upstream[key] = caller_layers(key, 3, visiting | {key})
        return upstream[key]

    for key, (_cc, calls, self_s, _ct, _callers) in stats.items():
        layer = own[key]
        if layer is not None:
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += calls
            continue
        # Self time of a non-repro function, split by per-caller self time
        # (index 2).
        for name, part in caller_layers(key, 2, frozenset({key})).items():
            layers[name]["self_s"] += self_s * part
    return layers


def shares(folded: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's fraction of all folded self time (OTHER included)."""
    total = sum(entry["self_s"] for entry in folded.values())
    return {
        name: (entry["self_s"] / total if total > 0 else 0.0)
        for name, entry in folded.items()
    }


def calls_to(stats: Dict[FuncKey, tuple], path_suffix: str, name: str) -> int:
    """Total calls of functions called ``name`` defined in a file whose path
    ends with ``path_suffix`` (for example the workload drivers' ``run``)."""
    suffix = os.path.normcase(path_suffix)
    return sum(
        value[1] for (filename, _line, func), value in stats.items()
        if func == name and os.path.normcase(filename).endswith(suffix)
    )
