"""Whole-program analysis: the call graph behind the transitive taint rule.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time, so a wall-clock read hidden two calls deep in a "utility" module
passes them clean.  This module closes that gap: :class:`Project` takes
the :class:`~repro.analysis.framework.Module` of every file the per-file
pass already parsed, walks each tree once for its imports, functions
(with their call sites and direct taint sources) and classes, and
assembles a project-wide symbol table and approximate call graph that
the taint rule walks.

Call-graph approximation (documented precision/soundness caveats in
docs/ANALYSIS.md):

* bare-name calls resolve to module-level defs, then through the import
  map (including re-exports chased through package ``__init__`` files);
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class, then
  one base-class walk by name;
* ``obj.m()`` resolves through the receiver's annotated or
  constructor-inferred type when available, else to the *unique* class
  in the project defining ``m`` (builtin-ish method names such as
  ``update``/``get``/``pop`` are excluded from the uniqueness fallback
  so ``dict.update`` never aliases a project method);
* unresolvable calls produce no edge — the analysis under-approximates
  rather than false-positives.

Rule registered here (into :data:`repro.analysis.framework.PROGRAM_RULES`):
``transitive-wall-clock``.  (Unseeded RNG use needs no transitive twin:
``seeded-rng-only`` scans every file, so it already flags every root a
call chain could reach.)  Findings
carry a cross-file ``paths`` witness chain (schema ``repro-lint/2``) and
honour the same ``# repro: allow[rule-id]`` suppression comments as the
per-file pass, resolved through each file's :class:`Module`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    Finding,
    Module,
    ProgramRawFinding,
    ProgramRule,
    WitnessHop,
    in_dirs,
    register_program,
)
from repro.analysis.rules import (
    ORDERED_OUTPUT_DIRS,
    _WALL_CLOCK_CALLS,
    _canonical,
    _dotted,
    _imports as _absolute_imports,
)

#: Method names excluded from the unique-name receiver fallback: they
#: collide with builtin container/str/IO methods, so "only one project
#: class defines it" says nothing about what ``obj.update()`` calls.
_AMBIGUOUS_METHOD_NAMES = frozenset({
    "add", "append", "clear", "close", "copy", "count", "decode",
    "discard", "done", "encode", "endswith", "extend", "flush", "format",
    "get", "index", "insert", "intersection", "items", "join", "keys",
    "lower", "map", "mkdir", "open", "partition", "pop", "popitem",
    "put", "read", "readline", "readlines", "remove", "replace",
    "resolve", "result", "reverse", "rstrip", "setdefault", "shutdown",
    "sort", "split", "splitlines", "startswith", "strip", "submit",
    "union", "update", "upper", "values", "write",
})

_MODULE_FN = "<module>"

#: Where the taint rules report: call sites in the ordered-output layers.
_in_ordered_dirs = in_dirs(*ORDERED_OUTPUT_DIRS)


# -- per-module symbols --------------------------------------------------------

def _module_name(relpath: str) -> Tuple[str, bool]:
    """Dotted module name for a repo relpath, plus is-package-__init__."""
    posix = relpath.replace("\\", "/")
    if posix.endswith(".py"):
        posix = posix[:-3]
    is_init = posix.endswith("/__init__") or posix == "__init__"
    if is_init:
        posix = posix[: -len("/__init__")] if "/" in posix else ""
    return posix.replace("/", "."), is_init


def _resolve_relative(
    module: str, is_init: bool, level: int, source: Optional[str]
) -> Optional[str]:
    """Absolute dotted base for a ``from ...x import y`` statement."""
    parts = [p for p in module.split(".") if p]
    if not is_init:
        parts = parts[:-1]
    if level - 1 > len(parts):
        return None
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if source:
        base = f"{base}.{source}" if base else source
    return base or None


def _annotation_typename(node: Optional[ast.AST]) -> Optional[str]:
    """Terminal class name of an annotation (``Optional[X]`` -> ``X``)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip() or None
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if head and head.split(".")[-1] in ("Optional", "Final",
                                            "Annotated", "ClassVar"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_typename(inner)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if not (isinstance(side, ast.Constant) and side.value is None):
                name = _annotation_typename(side)
                if name is not None:
                    return name
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = _dotted(node)
        return dotted.split(".")[-1] if dotted else None
    return None


#: A call site: ``(line, col, kind, operands)`` where ``kind`` is
#: ``name`` (``f()``), ``self`` (``self.m()``), ``attr`` (``x.m()``) or
#: ``dotted`` (``a.b.m()``).
CallSite = Tuple[int, int, str, Tuple[str, ...]]


@dataclass
class Function:
    """One def (or a module's top-level code) as the call graph sees it."""

    line: int
    cls: Optional[str]
    calls: List[CallSite] = field(default_factory=list)
    #: Direct wall-clock reads: ``[(line, canonical call)]``.
    taint: List[Tuple[int, str]] = field(default_factory=list)
    #: Local name -> class name, from annotations and constructor calls.
    locals: Dict[str, str] = field(default_factory=dict)


@dataclass
class Unit:
    """One analyzed module: its parsed file plus the symbols the call
    graph resolves against."""

    source: Module
    name: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, Function] = field(default_factory=dict)
    #: Class name -> ``(methods, base class names)``.
    classes: Dict[str, Tuple[frozenset, Tuple[str, ...]]] = field(
        default_factory=dict
    )


class _FunctionVisitor(ast.NodeVisitor):
    """Collect call sites, taint sources and typed locals within one
    function body (nested defs are summarized by the outer walk)."""

    def __init__(self, func: Function, imports: Dict[str, str]) -> None:
        self.func = func
        self.imports = imports

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            typename = _annotation_typename(node.annotation)
            if typename:
                self.func.locals[node.target.id] = typename
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            ctor = _dotted(node.value.func)
            if ctor:
                tail = ctor.split(".")[-1]
                if tail and tail[0].isupper():
                    self.func.locals[node.targets[0].id] = tail
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self._record_taint(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        site = (node.lineno, node.col_offset)
        if isinstance(func, ast.Name):
            self.func.calls.append(site + ("name", (func.id,)))
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")):
                self.func.calls.append(site + ("self", (func.attr,)))
            elif isinstance(func.value, ast.Name):
                self.func.calls.append(
                    site + ("attr", (func.value.id, func.attr))
                )
            else:
                dotted = _dotted(func)
                if dotted:
                    self.func.calls.append(site + ("dotted", (dotted,)))

    def _record_taint(self, node: ast.Call) -> None:
        canon = _canonical(node.func, self.imports)
        if canon is None:
            return
        if canon in _WALL_CLOCK_CALLS:
            self.func.taint.append((node.lineno, canon))


def _immediate_defs(node) -> List[ast.AST]:
    """Function defs nested directly inside ``node`` (not transitively
    inside a deeper def/class, which summarizes its own children)."""
    found: List[ast.AST] = []
    stack = list(node.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(stmt)
            continue
        if isinstance(stmt, ast.ClassDef):
            continue
        for child in ast.iter_child_nodes(stmt):
            stack.append(child)
    return found


def _imports(tree: ast.Module, module: str, is_init: bool) -> Dict[str, str]:
    """Local alias -> dotted origin, relative imports made absolute."""
    out = _absolute_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = _resolve_relative(module, is_init, node.level, node.module)
            if base is not None:
                for alias in node.names:
                    out[alias.asname or alias.name] = f"{base}.{alias.name}"
    return out


def _summarize(source: Module) -> Unit:
    """One walk over an already-parsed module's tree."""
    name, is_init = _module_name(source.relpath)
    unit = Unit(source=source, name=name,
                imports=_imports(source.tree, name, is_init))

    def function(node, qualname: str, class_name: Optional[str]) -> None:
        func = Function(line=node.lineno, cls=class_name)
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            typename = _annotation_typename(arg.annotation)
            if typename:
                func.locals[arg.arg] = typename
        visitor = _FunctionVisitor(func, unit.imports)
        for stmt in node.body:
            visitor.visit(stmt)
        unit.functions[qualname] = func
        # Nested defs are graph nodes too: their bodies can carry taint
        # that the enclosing function reaches by calling them.
        for stmt in _immediate_defs(node):
            function(stmt, f"{qualname}.<locals>.{stmt.name}", class_name)

    toplevel = Function(line=1, cls=None)
    toplevel_visitor = _FunctionVisitor(toplevel, unit.imports)
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            methods = []
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(stmt.name)
                    function(stmt, f"{node.name}.{stmt.name}", node.name)
            bases = tuple(
                dotted.split(".")[-1]
                for dotted in map(_dotted, node.bases) if dotted
            )
            unit.classes[node.name] = (frozenset(methods), bases)
        else:
            toplevel_visitor.visit(node)
    if toplevel.calls or toplevel.taint:
        unit.functions[_MODULE_FN] = toplevel
    return unit


# -- the project-wide view -----------------------------------------------------

class Project:
    """Symbol table + call graph over every analyzed module."""

    def __init__(self, modules: Sequence[Module]) -> None:
        self.units: Dict[str, Unit] = {}
        for source in sorted(modules, key=lambda m: m.relpath):
            unit = _summarize(source)
            self.units[unit.name] = unit
        self._method_index: Dict[str, List[str]] = {}
        self._class_index: Dict[str, List[str]] = {}
        for name in sorted(self.units):
            classes = self.units[name].classes
            for cname in sorted(classes):
                self._class_index.setdefault(cname, []).append(name)
                for method in sorted(classes[cname][0]):
                    self._method_index.setdefault(method, []).append(
                        f"{name}.{cname}"
                    )

    # -- symbol resolution -------------------------------------------------

    def resolve(self, dotted: str, _depth: int = 0):
        """Resolve a canonical dotted path to ``(kind, fid)``.

        ``kind`` is ``"func"``/``"class"``/``"module"``; ``fid`` is
        ``module[.Class].name``.  Returns ``None`` for anything outside
        the analyzed project (stdlib, third-party) or not callable.
        Re-exports are chased through package ``__init__`` import maps.
        """
        if _depth > 10 or not dotted:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            module = ".".join(parts[:i])
            if module in self.units:
                rest = parts[i:]
                if not rest:
                    return ("module", module)
                return self._resolve_member(module, rest, _depth)
        return None

    def _resolve_member(self, module: str, rest: List[str], depth: int):
        unit = self.units[module]
        head, tail = rest[0], rest[1:]
        if not tail:
            func = unit.functions.get(head)
            if func is not None and func.cls is None:
                return ("func", f"{module}.{head}")
            if head in unit.classes:
                return ("class", f"{module}.{head}")
        elif len(tail) == 1 and head in unit.classes:
            if tail[0] in unit.classes[head][0]:
                return ("func", f"{module}.{head}.{tail[0]}")
            return None
        if head in unit.imports:
            return self.resolve(".".join([unit.imports[head]] + tail),
                                depth + 1)
        return None

    def _method_on(self, class_fid: str, method: str,
                   _depth: int = 0) -> Optional[str]:
        """``module.Class.method`` if the class (or a base) defines it."""
        if _depth > 3:
            return None
        module, _, cname = class_fid.rpartition(".")
        unit = self.units.get(module)
        if unit is None or cname not in unit.classes:
            return None
        methods, bases = unit.classes[cname]
        if method in methods:
            return f"{class_fid}.{method}"
        for base in bases:
            for base_fid in self._classes_named(base):
                found = self._method_on(base_fid, method, _depth + 1)
                if found:
                    return found
        return None

    def _classes_named(self, name: str) -> List[str]:
        return [f"{m}.{name}" for m in self._class_index.get(name, [])]

    def _unique_method(self, method: str) -> Optional[str]:
        if method in _AMBIGUOUS_METHOD_NAMES:
            return None
        owners = self._method_index.get(method, [])
        if len(owners) == 1:
            return f"{owners[0]}.{method}"
        return None

    def _constructor_target(self, class_fid: str) -> str:
        """Edge target for ``Cls(...)``: ``__init__`` if defined, else
        the class node itself (still a graph node so taint in any method
        does not leak through bare construction)."""
        init = self._method_on(class_fid, "__init__")
        return init if init else class_fid

    # -- call graph --------------------------------------------------------

    def iter_functions(self) -> Iterator[Tuple[str, Unit, Function]]:
        """Yield ``(fid, unit, function)`` sorted by fid."""
        for name in sorted(self.units):
            unit = self.units[name]
            for qual in sorted(unit.functions):
                yield f"{name}.{qual}", unit, unit.functions[qual]

    def edges(self) -> Dict[str, List[Tuple[int, int, str]]]:
        """``caller fid -> sorted [(line, col, callee fid)]``."""
        out: Dict[str, List[Tuple[int, int, str]]] = {}
        for fid, unit, func in self.iter_functions():
            qual = fid[len(unit.name) + 1:]
            sites = set()
            for line, col, kind, operands in func.calls:
                target = self._resolve_call(unit, qual, func, kind, operands)
                if target is not None:
                    sites.add((line, col, target))
            out[fid] = sorted(sites)
        return out

    def _resolve_call(self, unit: Unit, qual: str, func: Function,
                      kind: str, operands: Tuple[str, ...]) -> Optional[str]:
        module = unit.name
        if kind == "self":
            if func.cls is None:
                return None
            return self._method_on(f"{module}.{func.cls}", operands[0])
        if kind == "attr":
            receiver, method = operands
            typename = func.locals.get(receiver)
            if typename:
                for class_fid in self._classes_named(typename):
                    found = self._method_on(class_fid, method)
                    if found:
                        return found
                return None
            return self._unique_method(method)
        if kind == "name":
            (name,) = operands
            nested = f"{qual}.<locals>.{name}"
            if nested in unit.functions:
                return f"{module}.{nested}"
            resolved = self.resolve(f"{module}.{name}")
        else:  # "dotted"
            (dotted,) = operands
            if dotted.split(".")[0] in unit.classes:
                resolved = self._resolve_member(module, dotted.split("."), 0)
            else:
                resolved = (self.resolve(f"{module}.{dotted}")
                            or self.resolve(dotted))
        if resolved and resolved[0] == "func":
            return resolved[1]
        if resolved and resolved[0] == "class":
            return self._constructor_target(resolved[1])
        return None


# -- taint propagation ---------------------------------------------------------

_RULE_ID = "transitive-wall-clock"


@register_program(
    _RULE_ID,
    "ordered-output code must not reach a wall-clock read through any "
    "call chain, even via helpers outside the simulator layers",
    scope_note="whole program; findings in sim/dram/cxl/core/memmgmt/"
               "genomics/experiments call sites",
)
def check_transitive_wall_clock(project: Project) -> Iterator[ProgramRawFinding]:
    """Taint-propagate wall-clock reads through the call graph."""
    # 1. Roots: functions with an unsanctioned direct source.  A source
    # already suppressed in place (for the per-file or the transitive
    # rule) is sanctioned — the author vouched for it — and does not
    # propagate.
    tainted: Dict[str, Tuple[WitnessHop, ...]] = {}
    for fid, unit, func in project.iter_functions():
        source = unit.source
        for line, canon in sorted(func.taint):
            sanctioned = (source.suppression("no-wall-clock", line)
                          or source.suppression(_RULE_ID, line))
            if not sanctioned and fid not in tainted:
                tainted[fid] = ((source.relpath, line, f"{canon}()"),)

    # 2. Propagate up the reverse call graph, breadth-first so every
    # witness chain is shortest; sorted worklists keep it deterministic.
    edges = project.edges()
    callers: Dict[str, Unit] = {}
    reverse: Dict[str, List[Tuple[str, int, int]]] = {}
    for fid, unit, _func in project.iter_functions():
        callers[fid] = unit
        for line, col, callee in edges[fid]:
            reverse.setdefault(callee, []).append((fid, line, col))
    frontier = sorted(tainted)
    while frontier:
        discovered: Dict[str, Tuple[WitnessHop, ...]] = {}
        for callee in frontier:
            for caller, line, col in sorted(reverse.get(callee, [])):
                if caller in tainted or caller in discovered:
                    continue
                source = callers[caller].source
                if source.suppression(_RULE_ID, line):
                    continue  # suppressed boundary: cascade stops here
                discovered[caller] = (
                    (source.relpath, line, callee),
                ) + tainted[callee]
        tainted.update(discovered)
        frontier = sorted(discovered)

    # 3. Report: call sites in ordered-output code whose callee is
    # tainted.  Directly tainted functions are the per-file rule's job;
    # this rule owns the cross-function (and cross-module) hops.
    for fid, unit, _func in project.iter_functions():
        relpath = unit.source.relpath
        if not _in_ordered_dirs(relpath):
            continue
        for line, col, callee in edges[fid]:
            chain = tainted.get(callee)
            if chain is None:
                continue
            yield (
                relpath, line, col,
                f"{fid.rsplit('.', 1)[-1]}() calls {callee}(), which "
                f"reaches a wall-clock read ({chain[-1][2]}) "
                f"{len(chain)} call(s) away; deterministic code must not "
                f"depend on it (see the witness chain)",
                ((relpath, line, callee),) + chain,
            )


# -- entry point ---------------------------------------------------------------

def analyze(
    modules: Sequence[Module],
    rules: Sequence[ProgramRule],
) -> List[Finding]:
    """Run the selected whole-program rules over the parsed modules.

    Returns :class:`Finding` objects (suppression resolved through the
    ``# repro: allow[...]`` tables of the file each finding lands in),
    sorted by the standard finding key.
    """
    project = Project(modules)
    by_path = {unit.source.relpath: unit.source
               for unit in project.units.values()}
    findings: List[Finding] = []
    for rule in sorted(rules, key=lambda r: r.id):
        for relpath, line, col, message, paths in rule.check(project):
            findings.append(by_path[relpath].finding(
                rule.id, line, col, message, paths=tuple(paths),
            ))
    findings.sort(key=Finding.sort_key)
    return findings
