"""The built-in simulator-specific lint rules.

Each rule targets a determinism bug class that no test or runtime check
catches on its own (see docs/ANALYSIS.md for rationale, worked examples,
and the planted defect each one is kept for):

========================== ====================================================
``no-wall-clock``          wall-clock reads inside simulation code
``seeded-rng-only``        RNGs constructed without an explicit seed
``no-set-iteration-order`` hash-order-dependent set iteration in sim layers
``no-id-order``            ``id()`` (address-dependent) in ordering-sensitive
                           simulator layers
========================== ====================================================

Rules yield ``(line, col, message)``; scoping, suppressions, and reports
are the framework's job (:mod:`repro.analysis.framework`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.framework import (
    Module,
    RawFinding,
    excluding,
    in_dirs,
    register,
)

#: The event-ordering-sensitive simulator layers: everything that runs
#: inside (or schedules onto) the discrete-event engine.
SIM_DIRS = ("sim", "dram", "cxl", "core", "memmgmt")

#: Layers whose *outputs* feed fingerprinted results even though they run
#: host-side: the genomics index structures (shared across runs by the
#: cross-run cache, so any iteration-order dependence would leak between
#: sweep points) and the experiment/scenario layer (job keys and
#: collection order define the bench fingerprint traversal).  The
#: ordering rules cover these in addition to :data:`SIM_DIRS`.
ORDERED_OUTPUT_DIRS = SIM_DIRS + ("genomics", "experiments")


# -- shared AST helpers --------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _imports(tree: ast.Module) -> Dict[str, str]:
    """Map each locally bound import alias to its canonical dotted origin.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter`` -> ``{"perf_counter":
    "time.perf_counter"}``.  Relative imports are repo-internal and
    ignored on purpose.
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _canonical(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the file's imports.

    Returns ``None`` unless the chain's first segment is an imported
    name, so a local variable that happens to be called ``time`` never
    false-positives.
    """
    dotted = _dotted(node)
    if dotted is None:
        return None
    first, _, rest = dotted.partition(".")
    origin = imports.get(first)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


# -- no-wall-clock -------------------------------------------------------------

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register(
    "no-wall-clock",
    "simulation code must not read the wall clock; results depend only on "
    "simulated time (Engine.now)",
    scope=excluding("perf/", "repro/__main__.py", "repro/obs/export.py",
                    "repro/obs/telemetry/"),
    scope_note="src/repro except repro/perf, repro/__main__.py, "
               "repro/obs/export.py, repro/obs/telemetry/ (fleet "
               "telemetry measures host wall time by design and never "
               "touches simulated state)",
)
def check_wall_clock(module: Module) -> Iterator[RawFinding]:
    """Flag wall-clock reads (time.*, datetime.now) in simulation code."""
    imports = _imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        canon = _canonical(node.func, imports)
        if canon in _WALL_CLOCK_CALLS:
            yield (
                node.lineno, node.col_offset,
                f"wall-clock read {canon}() in simulator code: timing must "
                "come from the engine clock, not the host",
            )


# -- seeded-rng-only -----------------------------------------------------------

_GLOBAL_RANDOM_FUNCS = frozenset({
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
    "expovariate", "normalvariate", "triangular", "vonmisesvariate",
})
_GLOBAL_NUMPY_FUNCS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "choice", "shuffle", "permutation", "normal", "uniform", "binomial",
})


@register(
    "seeded-rng-only",
    "RNGs must be constructed with an explicit seed; interpreter-global "
    "RNG state is banned",
)
def check_seeded_rng(module: Module) -> Iterator[RawFinding]:
    """Flag unseeded RNG construction and interpreter-global RNG use."""
    imports = _imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        canon = _canonical(node.func, imports)
        if canon is None:
            continue
        if canon == "random.Random" and not node.args and not node.keywords:
            yield (
                node.lineno, node.col_offset,
                "random.Random() without an explicit seed: identical runs "
                "would diverge",
            )
        elif (canon == "numpy.random.default_rng"
              and not node.args and not node.keywords):
            yield (
                node.lineno, node.col_offset,
                "np.random.default_rng() without an explicit seed: "
                "identical runs would diverge",
            )
        elif canon.startswith("random."):
            func = canon.split(".", 1)[1]
            if "." not in func and func in _GLOBAL_RANDOM_FUNCS:
                yield (
                    node.lineno, node.col_offset,
                    f"random.{func}() uses the interpreter-global RNG; use "
                    "a local random.Random(seed) instead",
                )
        elif canon.startswith("numpy.random."):
            func = canon.rsplit(".", 1)[1]
            if func in _GLOBAL_NUMPY_FUNCS:
                yield (
                    node.lineno, node.col_offset,
                    f"np.random.{func}() uses numpy's global RNG; use "
                    "np.random.default_rng(seed) instead",
                )


# -- no-set-iteration-order ----------------------------------------------------

_ITERATING_BUILTINS = frozenset({
    "list", "tuple", "iter", "enumerate", "reversed", "next",
})


class _SetOrderScope(ast.NodeVisitor):
    """Per-scope tracker: which local names currently hold a set, and
    where a set expression is iterated without ``sorted(...)``."""

    def __init__(self, emit) -> None:
        self.emit = emit
        self.env: set = set()

    # -- set-expression classification ------------------------------------

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.env
        return False

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        target = annotation
        if isinstance(target, ast.Subscript):
            target = target.value
        name = _terminal_name(target)
        return name in ("Set", "FrozenSet", "set", "frozenset", "MutableSet")

    def _describe(self, node: ast.AST) -> str:
        name = _terminal_name(node)
        return f"set {name!r}" if name else "a set expression"

    def _flag(self, node: ast.AST) -> None:
        self.emit((
            node.lineno, node.col_offset,
            f"iterating {self._describe(node)} has hash-seed-dependent "
            "order; wrap it in sorted(...) before it can influence "
            "simulation or output order",
        ))

    # -- scope boundaries ---------------------------------------------------

    def _enter_subscope(self, body) -> None:
        sub = _SetOrderScope(self.emit)
        for stmt in body:
            sub.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        self._enter_subscope(node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._enter_subscope(node.body)

    # -- environment updates ------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self.env.add(target.id)
                else:
                    self.env.discard(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            if self._annotation_is_set(node.annotation) or (
                node.value is not None and self._is_set_expr(node.value)
            ):
                self.env.add(node.target.id)
            else:
                self.env.discard(node.target.id)

    # -- iteration sites ----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter)
        else:
            self.visit(node.iter)
        if isinstance(node.target, ast.Name):
            self.env.discard(node.target.id)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def _check_generators(self, node) -> None:
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._flag(gen.iter)
            else:
                self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_generators(node)
        self.visit(node.elt)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_generators(node)
        self.visit(node.elt)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # Dict insertion order leaks the iteration order, so building a
        # dict from a set is just as order-dependent as a list.
        self._check_generators(node)
        self.visit(node.key)
        self.visit(node.value)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building a *set* from a set is order-independent: do not flag
        # the generators, but keep walking for nested iteration sites.
        for gen in node.generators:
            self.visit(gen.iter)
            for cond in gen.ifs:
                self.visit(cond)
        self.visit(node.elt)

    def visit_Call(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in _ITERATING_BUILTINS
                and node.args and self._is_set_expr(node.args[0])):
            self._flag(node.args[0])
            for arg in node.args[1:]:
                self.visit(arg)
        else:
            self.generic_visit(node)


@register(
    "no-set-iteration-order",
    "iterating a set in the simulator layers is hash-seed-dependent; "
    "wrap in sorted(...)",
    scope=in_dirs(*ORDERED_OUTPUT_DIRS),
    scope_note="sim/, dram/, cxl/, core/, memmgmt/, genomics/, "
               "experiments/",
)
def check_set_iteration(module: Module) -> List[RawFinding]:
    """Flag iteration over set-typed values in order-sensitive layers."""
    out: List[RawFinding] = []
    scope = _SetOrderScope(out.append)
    for stmt in module.tree.body:
        scope.visit(stmt)
    return out


# -- no-id-order ---------------------------------------------------------------

@register(
    "no-id-order",
    "id() is an interpreter address: it varies run-to-run and must never "
    "influence ordering in the simulator layers",
    scope=in_dirs(*ORDERED_OUTPUT_DIRS),
    scope_note="sim/, dram/, cxl/, core/, memmgmt/, genomics/, "
               "experiments/",
)
def check_id_order(module: Module) -> Iterator[RawFinding]:
    """Flag id() in the ordering-sensitive simulator layers."""
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id" and len(node.args) == 1):
            yield (
                node.lineno, node.col_offset,
                "id() is address-dependent and differs between runs; it "
                "may back identity-membership tables only (suppress with "
                "a justification), never ordering or iteration",
            )
