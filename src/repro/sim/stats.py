"""Hierarchical simulation statistics.

A :class:`StatScope` is a node in a tree of named scopes.  Each scope holds
named counters (integers/floats), mostly incremented with :meth:`add` and
occasionally overwritten with :meth:`set`.  ``counters`` is a
``defaultdict(float)``, so a hot path may increment ``counters[key]``
directly: a missing key starts at ``0.0`` and is created on first write,
in first-write order.  Readers use ``get``/``in``/``items()``, never a
subscript, so reading a counter never creates it.  The experiment harness
aggregates counters across subtrees with :meth:`StatScope.total`, which is
how, for example, total DRAM energy is summed over every bank of every
DIMM in a pool.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, Iterator, Optional


class StatScope:
    """A named node in the statistics tree."""

    def __init__(self, name: str, parent: Optional["StatScope"] = None) -> None:
        self.name = name
        self.parent = parent
        self.counters: DefaultDict[str, float] = defaultdict(float)
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
        """Increment counter ``key`` by ``amount``.

        A first write stores ``0.0 + amount``, a float.  Per-request sites
        skip this frame and write ``stats.counters[key] += amount`` themselves.
        """
        self.counters[key] += amount

    def get(self, key: str, default: float = 0.0) -> float:
        return self.counters.get(key, default)

    def set(self, key: str, value: float) -> None:
        self.counters[key] = value

    def total(self, key: str) -> float:
        """Sum of counter ``key`` over this scope and all descendants."""
        return sum(scope.counters.get(key, 0.0) for scope in self.walk())

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict snapshot (for tests and JSON dumps).

        Counters are copied into a plain ``dict``, so subscripting the
        snapshot raises ``KeyError`` for a counter that was never written.
        """
        out: Dict[str, object] = dict(self.counters)
        for name, child in self.children.items():
            out[name] = child.as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatScope {self.path} counters={len(self.counters)}>"
