"""Hierarchical simulation statistics.

A :class:`StatScope` is a node in a tree of named scopes.  Each scope holds
counters (monotonic integers/floats), gauges (last value + time-weighted
average support), and histograms (value lists with summary helpers).  The
experiment harness aggregates counters across subtrees with
:meth:`StatScope.total`, which is how, for example, total DRAM energy is
summed over every bank of every DIMM in a pool.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional


class Histogram:
    """A memory-bounded value accumulator with summary statistics.

    Summary aggregates (``count``, ``total``, ``mean``, ``minimum``,
    ``maximum``) are maintained as running values and are **always exact**,
    no matter how many samples are recorded.  The retained sample list
    (``values``) is capped at :data:`CAP` entries so arbitrarily long
    (e.g. traced) runs cannot grow memory without bound: up to the cap
    every sample is kept and :meth:`percentile` is exact; beyond it the
    list becomes a uniform reservoir (Vitter's Algorithm R with a fixed
    seed, so results stay deterministic for a given record sequence) and
    percentiles are estimates over the reservoir.
    """

    #: Maximum retained samples per histogram (64 Ki values ≈ 0.5 MB).
    CAP = 65536

    #: Fixed seed for the reservoir's replacement decisions.  Must never be
    #: None: an unseeded RNG would make the retained sample set (and thus
    #: percentile estimates) differ between otherwise identical runs.
    RESERVOIR_SEED = 0x5EED

    def __init__(self, cap: Optional[int] = None) -> None:
        self.cap = self.CAP if cap is None else cap
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        self.values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng: Optional[random.Random] = None

    def record(self, value: float) -> None:
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self.values) < self.cap:
            self.values.append(value)
            return
        # Reservoir sampling keeps each seen value with equal probability.
        # The seeded RNG is created lazily so bounded histograms cost
        # nothing extra, and deterministically so reruns are identical.
        if self._rng is None:
            assert self.RESERVOIR_SEED is not None, (
                "reservoir RNG must be seeded before the first replacement "
                "decision; unseeded sampling breaks run-to-run determinism"
            )
            self._rng = random.Random(self.RESERVOIR_SEED)
        slot = self._rng.randrange(self._count)
        if slot < self.cap:
            self.values[slot] = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def saturated(self) -> bool:
        """Whether more samples were seen than the retention cap."""
        return self._count > self.cap

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100) by nearest rank.

        Exact while ``count <= cap``; a reservoir estimate afterwards.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(0, min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]


class StatScope:
    """A named node in the statistics tree."""

    def __init__(self, name: str, parent: Optional["StatScope"] = None) -> None:
        self.name = name
        self.parent = parent
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.children: Dict[str, "StatScope"] = {}

    # -- tree structure ----------------------------------------------------

    @property
    def path(self) -> str:
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def child(self, name: str) -> "StatScope":
        """Return (creating if needed) the child scope called ``name``."""
        if name not in self.children:
            self.children[name] = StatScope(name, parent=self)
        return self.children[name]

    def walk(self) -> Iterator["StatScope"]:
        """Yield this scope and every descendant, depth-first."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    # -- counters ----------------------------------------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` by ``amount``."""
        # Hottest method in the simulator (millions of calls per figure);
        # the try/except beats dict.get because existing keys — the common
        # case by far — cost a single subscript.  ``amount + 0.0`` keeps
        # first-write values float, matching the historical ``0.0 + amount``.
        counters = self.counters
        try:
            counters[key] += amount
        except KeyError:
            counters[key] = amount + 0.0

    def get(self, key: str, default: float = 0.0) -> float:
        return self.counters.get(key, default)

    def set(self, key: str, value: float) -> None:
        self.counters[key] = value

    def total(self, key: str) -> float:
        """Sum of counter ``key`` over this scope and all descendants."""
        return sum(scope.counters.get(key, 0.0) for scope in self.walk())

    # -- histograms ----------------------------------------------------------

    def histogram(self, key: str) -> Histogram:
        if key not in self.histograms:
            self.histograms[key] = Histogram()
        return self.histograms[key]

    def record(self, key: str, value: float) -> None:
        self.histogram(key).record(value)

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict snapshot (for tests and JSON dumps)."""
        out: Dict[str, object] = dict(self.counters)
        for key, hist in self.histograms.items():
            out[f"{key}:count"] = hist.count
            out[f"{key}:mean"] = hist.mean
        for name, child in self.children.items():
            out[name] = child.as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatScope {self.path} counters={len(self.counters)}>"
