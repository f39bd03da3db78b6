"""Hierarchical simulation statistics.

A :class:`StatScope` is a node in a tree of named scopes.  Each scope holds
named counters (integers/floats), mostly incremented with :meth:`add` and
occasionally overwritten with :meth:`set`.  The experiment harness
aggregates counters across subtrees with :meth:`StatScope.total`, which is
how, for example, total DRAM energy is summed over every bank of every
DIMM in a pool.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional


class StatScope:
    """A named node in the statistics tree."""

    def __init__(self, name: str, parent: Optional["StatScope"] = None) -> None:
        self.name = name
        self.parent = parent
        self.counters: Dict[str, float] = {}
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

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict snapshot (for tests and JSON dumps)."""
        out: Dict[str, object] = dict(self.counters)
        for name, child in self.children.items():
            out[name] = child.as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatScope {self.path} counters={len(self.counters)}>"
