"""Hierarchical simulation statistics.

A :class:`StatScope` is a node in a tree of named scopes.  Each scope holds
named float counters in ``counters``, a ``defaultdict(float)``: a key is
created by its first write (:meth:`add`, or :meth:`set` to overwrite).

Per-event counters do not live there.  The component that owns them keeps
them as plain attributes (*tallies*: ints for counts, floats for
energies, each added in event order) and installs a read hook on its
scope, :attr:`StatScope.pull`, which writes those tallies into
``counters`` as the floats repeated :meth:`add` calls would have left
there, creating exactly the keys those calls would have created.  Every
reader runs the hook first: :meth:`get`, :meth:`total`, :meth:`walk`
(and so the metrics sampler, which walks the tree) and :meth:`as_dict`.
Read through those, never through a ``counters`` subscript, which neither
pulls nor leaves a missing key missing.  The experiment harness
aggregates counters across subtrees with :meth:`StatScope.total`, which
is how, for example, total DRAM energy is summed over every bank of
every DIMM in a pool.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, Iterator, Optional


class StatScope:
    """A named node in the statistics tree."""

    def __init__(self, name: str, parent: Optional["StatScope"] = None) -> None:
        self.name = name
        self.parent = parent
        self.counters: DefaultDict[str, float] = defaultdict(float)
        self.children: Dict[str, "StatScope"] = {}
        #: The owner's read hook (at most one owner per scope): writes its
        #: tallies into ``counters``.  Every reader calls it first.
        self.pull: Optional[Callable[[], None]] = None

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
        """Yield this scope and every descendant, depth-first, each one
        pulled just before it is yielded."""
        if self.pull is not None:
            self.pull()
        yield self
        for child in self.children.values():
            yield from child.walk()

    # -- counters ----------------------------------------------------------

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` by ``amount``.

        A first write stores ``0.0 + amount``, a float.  Per-event
        counters are tallies of their owner instead (see the module
        docstring).
        """
        self.counters[key] += amount

    def get(self, key: str, default: float = 0.0) -> float:
        if self.pull is not None:
            self.pull()
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
        if self.pull is not None:
            self.pull()
        out: Dict[str, object] = dict(self.counters)
        for name, child in self.children.items():
            out[name] = child.as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<StatScope {self.path} counters={len(self.counters)}>"
