"""Whole-program analysis: cross-module call-graph rules for the lint pass.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time, so a wall-clock read hidden two calls deep in a "utility" module,
or a lambda handed to :class:`~repro.experiments.parallel.SweepJob`,
passes them clean.  This module closes that gap: :func:`summarize_source`
reduces each file to a JSON-serializable :data:`ModuleSummary` (imports,
functions and their call sites, classes, schema-id sites, suppression
tables), and :class:`Project` assembles every summary into a
project-wide symbol table and approximate call graph that the
interprocedural rules walk.

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

Rules registered here (into :data:`repro.analysis.framework.PROGRAM_RULES`):
``transitive-wall-clock``, ``transitive-unseeded-rng``,
``sweep-job-picklable``, ``schema-id-registry``, ``export-doc-sync``.
Findings carry a cross-file ``paths`` witness chain (schema
``repro-lint/2``) and honour the same ``# repro: allow[rule-id]``
suppression comments as the per-file pass.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.framework import (
    Finding,
    ProgramRawFinding,
    ProgramRule,
    Suppression,
    WitnessHop,
    register_program,
)
from repro.analysis.rules import (
    ORDERED_OUTPUT_DIRS,
    _GLOBAL_NUMPY_FUNCS,
    _GLOBAL_RANDOM_FUNCS,
    _WALL_CLOCK_CALLS,
    _canonical,
    _dotted,
)

#: Schema-id shape every ``repro-*/N`` identifier must match.
SCHEMA_ID_RE = re.compile(r"repro-[a-z][a-z0-9-]*/\d+")

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

#: Names whose calls construct sweep jobs; the callable argument they
#: receive crosses a process boundary and must pickle by reference.
_JOB_CTOR_NAMES = ("SweepJob", "pipeline")

_MODULE_FN = "<module>"


# -- summarization (per file) --------------------------------------------------

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


def _value_desc(node: ast.AST) -> List[object]:
    """JSON descriptor of an expression that may denote a schema id."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ["lit", node.value]
    if isinstance(node, ast.Subscript):
        head = _dotted(node.value)
        if (head and head.split(".")[-1] == "SCHEMAS"
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            return ["sub", node.slice.value]
        return ["opaque"]
    if isinstance(node, ast.Attribute):
        if (isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            return ["selfattr", node.attr]
        dotted = _dotted(node)
        return ["ref", dotted] if dotted else ["opaque"]
    if isinstance(node, ast.Name):
        return ["ref", node.id]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return ["tuple", [_value_desc(e) for e in node.elts]]
    if isinstance(node, ast.Call):
        head = _dotted(node.func)
        if (head and head.split(".")[-1] in ("frozenset", "tuple", "set",
                                             "list", "sorted")
                and len(node.args) == 1):
            return _value_desc(node.args[0])
        if (head and head.split(".")[-1] == "schema_id"
                and node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            return ["sub", node.args[0].value]
        return ["opaque"]
    if isinstance(node, ast.Starred):
        return _value_desc(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return ["tuple", [_value_desc(node.left), _value_desc(node.right)]]
    return ["opaque"]


def _is_schema_access(node: ast.AST) -> bool:
    """Does this expression read a ``schema`` field/variable?"""
    if isinstance(node, ast.Name):
        return node.id == "schema"
    if isinstance(node, ast.Attribute):
        return node.attr == "schema"
    if isinstance(node, ast.Subscript):
        return (isinstance(node.slice, ast.Constant)
                and node.slice.value == "schema")
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and bool(node.args)
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "schema")
    return False


def _callable_desc(node: ast.AST, local_defs: frozenset) -> List[object]:
    """Descriptor for a callable flowing into a sweep-job construction."""
    if isinstance(node, ast.Lambda):
        return ["lambda", node.lineno]
    if isinstance(node, ast.Name):
        if node.id in local_defs:
            return ["local", node.id, node.lineno]
        return ["name", node.id]
    if isinstance(node, ast.Call):
        head = _dotted(node.func)
        if head and head.split(".")[-1] == "partial" and node.args:
            return ["partial", _callable_desc(node.args[0], local_defs)]
        return ["opaque"]
    if isinstance(node, ast.Attribute):
        dotted = _dotted(node)
        return ["dotted", dotted] if dotted else ["opaque"]
    return ["opaque"]


class _FunctionVisitor(ast.NodeVisitor):
    """Collect call sites, taint sources, locals, and job sites within
    one function body (nested defs are visited by the outer walk)."""

    def __init__(self, summary: "_Summarizer", qualname: str,
                 imports: Dict[str, str]) -> None:
        self.s = summary
        self.qual = qualname
        self.imports = imports
        self.local_defs: set = set()
        self.locals: Dict[str, str] = {}
        self.calls: List[List[object]] = []
        self.taint: Dict[str, List[List[object]]] = {"wall": [], "rng": []}

    # Nested function/class defs: record the name (for picklability
    # classification) but do not descend — the outer walk summarizes
    # nested defs as their own pseudo-functions.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.local_defs.add(node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.local_defs.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            typename = _annotation_typename(node.annotation)
            if typename:
                self.locals[node.target.id] = typename
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            ctor = _dotted(node.value.func)
            if ctor:
                tail = ctor.split(".")[-1]
                if tail and tail[0].isupper():
                    self.locals[node.targets[0].id] = tail
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node)
        self._record_taint(node)
        self._record_job_site(node)
        self.generic_visit(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        site = [node.lineno, node.col_offset]
        if isinstance(func, ast.Name):
            self.calls.append(site + ["name", func.id])
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")):
                self.calls.append(site + ["self", func.attr])
            elif isinstance(func.value, ast.Name):
                self.calls.append(site + ["attr", func.value.id, func.attr])
            else:
                dotted = _dotted(func)
                if dotted:
                    self.calls.append(site + ["dotted", dotted])

    def _record_taint(self, node: ast.Call) -> None:
        canon = _canonical(node.func, self.imports)
        if canon is None:
            return
        if canon in _WALL_CLOCK_CALLS:
            self.taint["wall"].append([node.lineno, canon])
            return
        unseeded = not node.args and not node.keywords
        if canon in ("random.Random", "numpy.random.default_rng"):
            if unseeded:
                self.taint["rng"].append([node.lineno, canon])
        elif canon.startswith("random."):
            func = canon.split(".", 1)[1]
            if "." not in func and func in _GLOBAL_RANDOM_FUNCS:
                self.taint["rng"].append([node.lineno, canon])
        elif canon.startswith("numpy.random."):
            if canon.rsplit(".", 1)[1] in _GLOBAL_NUMPY_FUNCS:
                self.taint["rng"].append([node.lineno, canon])

    def _record_job_site(self, node: ast.Call) -> None:
        head = _dotted(node.func)
        if head is None or head.split(".")[-1] not in _JOB_CTOR_NAMES:
            return
        ctor = head.split(".")[-1]
        frozen = frozenset(self.local_defs)
        candidates: List[ast.AST] = []
        if ctor == "SweepJob":
            if len(node.args) >= 2:
                candidates.append(node.args[1])
            candidates.extend(
                kw.value for kw in node.keywords if kw.arg == "func"
            )
        else:  # pipeline(f, g, ...) — every positional stage is a callable
            candidates.extend(node.args)
        for arg in candidates:
            self.s.job_sites.append([
                node.lineno, node.col_offset, ctor, self.qual,
                _callable_desc(arg, frozen),
            ])


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


class _Summarizer:
    """Single pass over one module's AST producing the summary dict."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.module, self.is_init = _module_name(relpath)
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, Dict[str, object]] = {}
        self.classes: Dict[str, Dict[str, object]] = {}
        self.constants: Dict[str, List[object]] = {}
        self.defs: set = set()
        self.exports: Optional[List[str]] = None
        self.exports_line = 1
        self.schema_registry: Optional[Dict[str, str]] = None
        self.legacy_ids: List[str] = []
        self.schema_sites: List[List[object]] = []
        self.schema_literals: List[List[object]] = []
        self.job_sites: List[List[object]] = []

    def run(self, tree: ast.Module) -> Dict[str, object]:
        self._collect_imports(tree)
        self._collect_toplevel(tree)
        self._collect_schema_artifacts(tree)
        return {
            "module": self.module,
            "is_init": self.is_init,
            "imports": dict(sorted(self.imports.items())),
            "functions": {k: self.functions[k]
                          for k in sorted(self.functions)},
            "classes": {k: self.classes[k] for k in sorted(self.classes)},
            "constants": {k: self.constants[k]
                          for k in sorted(self.constants)},
            "defs": sorted(self.defs),
            "exports": self.exports,
            "exports_line": self.exports_line,
            "schema_registry": self.schema_registry,
            "legacy_schema_ids": sorted(self.legacy_ids),
            "schema_sites": self.schema_sites,
            "schema_literals": self.schema_literals,
            "job_sites": self.job_sites,
        }

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        self.imports[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(
                        self.module, self.is_init, node.level, node.module
                    )
                    if base is None:
                        continue
                elif node.module is None:
                    continue
                else:
                    base = node.module
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        self.defs.update(self.imports)

    def _summarize_function(
        self, node, qualname: str, class_name: Optional[str]
    ) -> None:
        visitor = _FunctionVisitor(self, qualname, self.imports)
        params: Dict[str, str] = {}
        all_args = (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs))
        for arg in all_args:
            typename = _annotation_typename(arg.annotation)
            if typename:
                params[arg.arg] = typename
        for stmt in node.body:
            visitor.visit(stmt)
        self.functions[qualname] = {
            "line": node.lineno,
            "class": class_name,
            "calls": visitor.calls,
            "taint": visitor.taint,
            "locals": dict(sorted({**params, **visitor.locals}.items())),
        }
        # Summarize immediate nested defs too (their bodies can carry
        # taint that the enclosing function reaches by calling them).
        for stmt in _immediate_defs(node):
            self._summarize_function(
                stmt, f"{qualname}.<locals>.{stmt.name}", class_name
            )

    def _collect_toplevel(self, tree: ast.Module) -> None:
        module_visitor = _FunctionVisitor(self, _MODULE_FN, self.imports)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.defs.add(node.name)
                self._summarize_function(node, node.name, None)
            elif isinstance(node, ast.ClassDef):
                self.defs.add(node.name)
                self._collect_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_assignment(node)
                module_visitor.visit(node)
            else:
                module_visitor.visit(node)
        if module_visitor.calls or any(module_visitor.taint.values()):
            self.functions[_MODULE_FN] = {
                "line": 1,
                "class": None,
                "calls": module_visitor.calls,
                "taint": module_visitor.taint,
                "locals": dict(sorted(module_visitor.locals.items())),
            }

    def _collect_class(self, node: ast.ClassDef) -> None:
        methods: List[str] = []
        attrs: List[str] = []
        schema_default: Optional[List[object]] = None
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._summarize_function(
                    stmt, f"{node.name}.{stmt.name}", node.name
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                attrs.append(stmt.target.id)
                if stmt.target.id == "schema" and stmt.value is not None:
                    schema_default = _value_desc(stmt.value)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        attrs.append(target.id)
                        if target.id == "schema":
                            schema_default = _value_desc(stmt.value)
        bases = []
        for base in node.bases:
            dotted = _dotted(base)
            if dotted:
                bases.append(dotted.split(".")[-1])
        self.classes[node.name] = {
            "line": node.lineno,
            "methods": sorted(set(methods)),
            "attrs": sorted(set(attrs)),
            "bases": bases,
            "schema_default": schema_default,
        }

    def _collect_assignment(self, node) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            self.defs.add(name)
            if value is None:
                continue
            if name == "__all__" and isinstance(value, (ast.List, ast.Tuple)):
                self.exports = [
                    e.value for e in value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                ]
                self.exports_line = node.lineno
            elif name == "SCHEMAS" and isinstance(value, ast.Dict):
                registry: Dict[str, str] = {}
                for key, val in zip(value.keys, value.values):
                    if (isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(val, ast.Constant)
                            and isinstance(val.value, str)):
                        registry[key.value] = val.value
                self.schema_registry = registry
            elif name == "LEGACY_SCHEMA_IDS":
                desc = _value_desc(value)
                if desc[0] == "tuple":
                    self.legacy_ids = [
                        d[1] for d in desc[1]
                        if isinstance(d, list) and d[0] == "lit"
                    ]
            else:
                desc = _value_desc(value)
                if desc != ["opaque"]:
                    self.constants[name] = desc

    def _collect_schema_artifacts(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and SCHEMA_ID_RE.fullmatch(node.value)):
                self.schema_literals.append(
                    [node.lineno, node.col_offset, node.value]
                )
            if isinstance(node, ast.Dict):
                for key, val in zip(node.keys, node.values):
                    if (isinstance(key, ast.Constant)
                            and key.value == "schema" and val is not None):
                        self.schema_sites.append([
                            val.lineno, val.col_offset, "emit",
                            _value_desc(val),
                        ])
            elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
                left, right = node.left, node.comparators[0]
                if _is_schema_access(left) and not _is_schema_access(right):
                    self.schema_sites.append([
                        right.lineno, right.col_offset, "check",
                        _value_desc(right),
                    ])
                elif _is_schema_access(right) and not _is_schema_access(left):
                    self.schema_sites.append([
                        left.lineno, left.col_offset, "check",
                        _value_desc(left),
                    ])
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and node.args
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == "schema"
                        and len(node.args) == 2):
                    self.schema_sites.append([
                        node.args[1].lineno, node.args[1].col_offset,
                        "check", _value_desc(node.args[1]),
                    ])


def summarize_source(source: str, relpath: str) -> Dict[str, object]:
    """Reduce one file to its whole-program summary (JSON-serializable).

    Includes the file's suppression tables so the program rules resolve
    ``# repro: allow[...]`` comments without re-reading the source.
    Unparseable files yield an empty summary (the per-file pass already
    reports ``parse-error``).
    """
    from repro.analysis.framework import (
        _extract_comments,
        _parse_suppressions,
    )

    try:
        tree = ast.parse(source)
    except SyntaxError:
        module, is_init = _module_name(relpath)
        return {"module": module, "is_init": is_init, "unparsed": True}
    summary = _Summarizer(relpath).run(tree)
    comments, comment_only = _extract_comments(source)
    by_line, file_level, _ = _parse_suppressions(comments)
    summary["suppressions"] = {
        "by_line": {
            str(line): {"rules": list(supp.rules), "reason": supp.reason}
            for line, supp in sorted(by_line.items())
        },
        "file_level": [
            {"rules": list(supp.rules), "reason": supp.reason}
            for supp in file_level
        ],
        "comment_only": sorted(comment_only),
    }
    return summary


# -- the project-wide view -----------------------------------------------------

class Project:
    """Symbol table + call graph assembled from every module summary."""

    def __init__(
        self,
        summaries: Sequence[Tuple[str, Dict[str, object]]],
        api_doc: Optional[Path] = None,
    ) -> None:
        self.api_doc = api_doc
        self.modules: Dict[str, Dict[str, object]] = {}
        self.relpath_of: Dict[str, str] = {}
        for relpath, summary in sorted(summaries):
            if summary.get("unparsed"):
                continue
            module = str(summary["module"])
            self.modules[module] = summary
            self.relpath_of[module] = relpath
        self._method_index: Dict[str, List[str]] = {}
        self._class_index: Dict[str, List[str]] = {}
        for module in sorted(self.modules):
            classes = self.modules[module].get("classes", {})
            for cname in sorted(classes):
                self._class_index.setdefault(cname, []).append(module)
                for method in classes[cname]["methods"]:
                    self._method_index.setdefault(method, []).append(
                        f"{module}.{cname}"
                    )
        self._edges: Optional[Dict[str, List[Tuple[int, int, str]]]] = None

    # -- symbol resolution -------------------------------------------------

    def resolve(self, dotted: str, _depth: int = 0):
        """Resolve a canonical dotted path to ``(kind, fid)``.

        ``kind`` is ``"func"``/``"class"``/``"module"``/``"const"``;
        ``fid`` is ``module[.Class].name``.  Returns ``None`` for
        anything outside the analyzed project (stdlib, third-party).
        Re-exports are chased through package ``__init__`` import maps.
        """
        if _depth > 10 or not dotted:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                rest = parts[i:]
                if not rest:
                    return ("module", module)
                return self._resolve_member(module, rest, _depth)
        return None

    def _resolve_member(self, module: str, rest: List[str], depth: int):
        summary = self.modules[module]
        head, tail = rest[0], rest[1:]
        functions = summary.get("functions", {})
        classes = summary.get("classes", {})
        if not tail:
            if head in functions and functions[head]["class"] is None:
                return ("func", f"{module}.{head}")
            if head in classes:
                return ("class", f"{module}.{head}")
            if head in summary.get("constants", {}):
                return ("const", f"{module}.{head}")
        elif len(tail) == 1 and head in classes:
            if tail[0] in classes[head]["methods"]:
                return ("func", f"{module}.{head}.{tail[0]}")
            return None
        imports = summary.get("imports", {})
        if head in imports:
            target = ".".join([imports[head]] + tail)
            return self.resolve(target, depth + 1)
        if not tail and head in summary.get("defs", []):
            return ("const", f"{module}.{head}")
        return None

    def class_summary(self, class_fid: str) -> Optional[Dict[str, object]]:
        module, _, cname = class_fid.rpartition(".")
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.get("classes", {}).get(cname)

    def _method_on(self, class_fid: str, method: str,
                   _depth: int = 0) -> Optional[str]:
        """``module.Class.method`` if the class (or a base) defines it."""
        if _depth > 3:
            return None
        cls = self.class_summary(class_fid)
        if cls is None:
            return None
        if method in cls["methods"]:
            return f"{class_fid}.{method}"
        for base in cls.get("bases", []):
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

    def iter_functions(self) -> Iterator[Tuple[str, str, Dict[str, object]]]:
        """Yield ``(fid, module, function-summary)`` sorted by fid."""
        for module in sorted(self.modules):
            functions = self.modules[module].get("functions", {})
            for qual in sorted(functions):
                yield f"{module}.{qual}", module, functions[qual]

    def edges(self) -> Dict[str, List[Tuple[int, int, str]]]:
        """``caller fid -> sorted [(line, col, callee fid)]``."""
        if self._edges is not None:
            return self._edges
        out: Dict[str, List[Tuple[int, int, str]]] = {}
        for fid, module, func in self.iter_functions():
            qual = fid[len(module) + 1:]
            sites: List[Tuple[int, int, str]] = []
            for call in func.get("calls", []):
                line, col, kind = call[0], call[1], call[2]
                target = self._resolve_call(module, qual, func, kind,
                                            call[3:])
                if target is not None:
                    sites.append((line, col, target))
            out[fid] = sorted(set(sites))
        self._edges = out
        return out

    def _resolve_call(self, module, qual, func, kind, args) -> Optional[str]:
        summary = self.modules[module]
        if kind == "name":
            (name,) = args
            functions = summary.get("functions", {})
            nested = f"{qual}.<locals>.{name}"
            if nested in functions:
                return f"{module}.{nested}"
            if name in functions and functions[name]["class"] is None:
                return f"{module}.{name}"
            if name in summary.get("classes", {}):
                return self._constructor_target(f"{module}.{name}")
            resolved = self.resolve(f"{module}.{name}")
            if resolved is None and name in summary.get("imports", {}):
                resolved = self.resolve(summary["imports"][name])
            if resolved and resolved[0] == "func":
                return resolved[1]
            if resolved and resolved[0] == "class":
                return self._constructor_target(resolved[1])
            return None
        if kind == "dotted":
            (dotted,) = args
            first = dotted.split(".")[0]
            if first in summary.get("classes", {}):
                resolved = self._resolve_member(
                    module, dotted.split("."), 0
                )
            else:
                resolved = self.resolve(f"{module}.{dotted}")
                if resolved is None:
                    resolved = self.resolve(dotted)
            if resolved and resolved[0] == "func":
                return resolved[1]
            if resolved and resolved[0] == "class":
                return self._constructor_target(resolved[1])
            return None
        if kind == "self":
            (method,) = args
            cname = func.get("class")
            if cname is None:
                return None
            return self._method_on(f"{module}.{cname}", method)
        if kind == "attr":
            receiver, method = args
            typename = func.get("locals", {}).get(receiver)
            if typename:
                for class_fid in self._classes_named(typename):
                    found = self._method_on(class_fid, method)
                    if found:
                        return found
                return None
            return self._unique_method(method)
        return None

    # -- suppression lookup ------------------------------------------------

    def suppression_for(
        self, rule_id: str, relpath: str, line: int
    ) -> Optional[Suppression]:
        """Mirror of the per-file suppression resolution, driven by the
        tables captured in the module summary."""
        summary = None
        for module, rel in self.relpath_of.items():
            if rel == relpath:
                summary = self.modules[module]
                break
        if summary is None:
            return None
        tables = summary.get("suppressions", {})
        by_line = tables.get("by_line", {})
        comment_only = set(tables.get("comment_only", []))

        def covering(candidate: int) -> Optional[Suppression]:
            entry = by_line.get(str(candidate))
            if entry and ("*" in entry["rules"] or rule_id in entry["rules"]):
                return Suppression(
                    rules=tuple(entry["rules"]), reason=entry["reason"],
                    line=candidate, file_level=False,
                )
            return None

        supp = covering(line)
        if supp:
            return supp
        above = line - 1
        while above in comment_only:
            supp = covering(above)
            if supp:
                return supp
            above -= 1
        for entry in tables.get("file_level", []):
            if "*" in entry["rules"] or rule_id in entry["rules"]:
                return Suppression(
                    rules=tuple(entry["rules"]), reason=entry["reason"],
                    line=0, file_level=True,
                )
        return None

    # -- misc shared helpers ----------------------------------------------

    def fid_location(self, fid: str) -> Tuple[str, int]:
        """``(relpath, def line)`` for a function/class graph node."""
        for module in self._module_prefixes(fid):
            summary = self.modules[module]
            rest = fid[len(module) + 1:]
            func = summary.get("functions", {}).get(rest)
            if func is not None:
                return self.relpath_of[module], int(func["line"])
            cls = summary.get("classes", {}).get(rest)
            if cls is not None:
                return self.relpath_of[module], int(cls["line"])
        return fid, 1

    def _module_prefixes(self, fid: str) -> List[str]:
        parts = fid.split(".")
        return [
            ".".join(parts[:i]) for i in range(len(parts) - 1, 0, -1)
            if ".".join(parts[:i]) in self.modules
        ]

    def module_of_fid(self, fid: str) -> Optional[str]:
        prefixes = self._module_prefixes(fid)
        return prefixes[0] if prefixes else None


def _in_ordered_dirs(relpath: str) -> bool:
    posix = "/" + relpath.replace("\\", "/")
    return any(f"/{name}/" in posix for name in ORDERED_OUTPUT_DIRS)


# -- taint propagation (shared by the two transitive rules) -------------------

_TAINT_RULES = {
    "wall": ("transitive-wall-clock", "no-wall-clock", "wall-clock read"),
    "rng": ("transitive-unseeded-rng", "seeded-rng-only",
            "unseeded/global RNG use"),
}


def _taint_findings(project: Project, kind: str) -> Iterator[ProgramRawFinding]:
    rule_id, per_file_rule, noun = _TAINT_RULES[kind]

    # 1. Roots: functions with an unsanctioned direct source.  A source
    # already suppressed in place (for the per-file or the transitive
    # rule) is sanctioned — the author vouched for it — and does not
    # propagate.
    tainted: Dict[str, Tuple[WitnessHop, ...]] = {}
    for fid, module, func in project.iter_functions():
        relpath = project.relpath_of[module]
        for line, canon in sorted(func.get("taint", {}).get(kind, [])):
            sanctioned = (
                project.suppression_for(per_file_rule, relpath, line)
                or project.suppression_for(rule_id, relpath, line)
            )
            if not sanctioned and fid not in tainted:
                tainted[fid] = ((relpath, int(line), f"{canon}()"),)

    # 2. Propagate up the reverse call graph, breadth-first so every
    # witness chain is shortest; sorted worklists keep it deterministic.
    edges = project.edges()
    reverse: Dict[str, List[Tuple[str, int, int]]] = {}
    for caller in sorted(edges):
        for line, col, callee in edges[caller]:
            reverse.setdefault(callee, []).append((caller, line, col))
    frontier = sorted(tainted)
    while frontier:
        discovered: Dict[str, Tuple[WitnessHop, ...]] = {}
        for callee in frontier:
            for caller, line, col in sorted(reverse.get(callee, [])):
                if caller in tainted or caller in discovered:
                    continue
                caller_module = project.module_of_fid(caller)
                if caller_module is None:
                    continue
                caller_rel = project.relpath_of[caller_module]
                if project.suppression_for(rule_id, caller_rel, line):
                    continue  # suppressed boundary: cascade stops here
                discovered[caller] = (
                    (caller_rel, int(line), callee),
                ) + tainted[callee]
        tainted.update(discovered)
        frontier = sorted(discovered)

    # 3. Report: call sites in ordered-output code whose callee is
    # tainted.  Directly tainted functions are the per-file rule's job;
    # this rule owns the cross-function (and cross-module) hops.
    for fid, module, func in project.iter_functions():
        relpath = project.relpath_of[module]
        if not _in_ordered_dirs(relpath):
            continue
        for line, col, callee in edges.get(fid, []):
            chain = tainted.get(callee)
            if chain is None:
                continue
            source = chain[-1][2]
            yield (
                relpath, line, col,
                f"{fid.rsplit('.', 1)[-1]}() calls {callee}(), which "
                f"reaches a {noun} ({source}) "
                f"{len(chain)} call(s) away; deterministic code must not "
                f"depend on it (see the witness chain)",
                ((relpath, line, callee),) + chain,
            )


@register_program(
    "transitive-wall-clock",
    "ordered-output code must not reach a wall-clock read through any "
    "call chain, even via helpers outside the simulator layers",
    scope_note="whole program; findings in sim/dram/cxl/core/memmgmt/"
               "genomics/experiments call sites",
)
def check_transitive_wall_clock(project: Project):
    """Taint-propagate wall-clock reads through the call graph."""
    return _taint_findings(project, "wall")


@register_program(
    "transitive-unseeded-rng",
    "ordered-output code must not reach unseeded/global RNG use through "
    "any call chain",
    scope_note="whole program; findings in sim/dram/cxl/core/memmgmt/"
               "genomics/experiments call sites",
)
def check_transitive_unseeded_rng(project: Project):
    """Taint-propagate unseeded-RNG use through the call graph."""
    return _taint_findings(project, "rng")


# -- sweep-job-picklable -------------------------------------------------------

@register_program(
    "sweep-job-picklable",
    "callables handed to SweepJob/pipeline must be module-level defs: "
    "pool workers unpickle them by reference",
    scope_note="whole program; every SweepJob/pipeline construction site",
)
def check_sweep_job_picklable(project: Project):
    """Flag lambdas/closures/local defs flowing into sweep-job ctors."""
    for module in sorted(project.modules):
        summary = project.modules[module]
        relpath = project.relpath_of[module]
        for site in summary.get("job_sites", []):
            line, col, ctor, owner_qual, desc = site
            yield from _judge_callable(
                project, relpath, int(line), int(col), ctor, desc
            )


def _judge_callable(project, relpath, line, col, ctor, desc):
    kind = desc[0]
    if kind == "partial":
        yield from _judge_callable(project, relpath, line, col, ctor, desc[1])
        return
    if kind == "lambda":
        yield (
            relpath, line, col,
            f"lambda passed to {ctor}(): pool workers unpickle the "
            "callable by reference, and lambdas have none — use a "
            "module-level def",
            ((relpath, int(desc[1]), "<lambda>"),),
        )
    elif kind == "local":
        yield (
            relpath, line, col,
            f"locally defined function {desc[1]!r} passed to {ctor}(): "
            "nested defs (closures) cannot be pickled by reference — "
            "hoist it to module level",
            ((relpath, int(desc[2]), desc[1]),),
        )
    # "name"/"dotted"/"opaque": module-level defs, imported callables,
    # and parameters we cannot prove unsafe — under-approximate.


# -- schema-id-registry --------------------------------------------------------

def _resolve_schema_desc(project, module, class_name, desc, _depth=0):
    """Resolve a schema-value descriptor to a list of typed items:
    ``("id", value)`` for a concrete identifier, ``("family", key)`` for
    a ``SCHEMAS[key]`` reference, ``("any",)`` for a registry-module
    constant (e.g. ``REGISTERED_SCHEMA_IDS``).  Returns ``None`` when
    the value cannot be statically resolved."""
    if _depth > 8 or not isinstance(desc, list) or not desc:
        return None
    kind = desc[0]
    if kind == "lit":
        return [("id", desc[1])]
    if kind == "sub":
        return [("family", desc[1])]
    if kind == "tuple":
        out = []
        for element in desc[1]:
            resolved = _resolve_schema_desc(
                project, module, class_name, element, _depth + 1
            )
            if resolved is None:
                return None
            out.extend(resolved)
        return out
    if kind == "selfattr":
        if class_name is None:
            return None
        summary = project.modules.get(module, {})
        cls = summary.get("classes", {}).get(class_name)
        if cls and cls.get("schema_default") and desc[1] == "schema":
            return _resolve_schema_desc(
                project, module, class_name, cls["schema_default"],
                _depth + 1,
            )
        return None
    if kind == "ref":
        dotted = desc[1]
        summary = project.modules.get(module, {})
        first, _, rest = dotted.partition(".")
        if not rest and first in summary.get("constants", {}):
            return _resolve_schema_desc(
                project, module, class_name,
                summary["constants"][first], _depth + 1,
            )
        imports = summary.get("imports", {})
        if first in imports:
            dotted = f"{imports[first]}.{rest}" if rest else imports[first]
        resolved = project.resolve(dotted)
        if resolved and resolved[0] == "const":
            target_module, _, name = resolved[1].rpartition(".")
            target = project.modules.get(target_module, {})
            if name in target.get("constants", {}):
                return _resolve_schema_desc(
                    project, target_module, None,
                    target["constants"][name], _depth + 1,
                )
            # Constant defined in the registry module itself
            # (e.g. REGISTERED_SCHEMA_IDS) — registry-backed by design.
            if target_module.rsplit(".", 1)[-1] == "schemas":
                return [("any",)]
        return None
    return None


@register_program(
    "schema-id-registry",
    "every repro-*/N schema id at an emit/parse site must resolve to "
    "the central SCHEMAS registry",
    scope_note="whole program; active once a SCHEMAS registry module "
               "exists in the linted tree",
)
def check_schema_id_registry(project: Project):
    """Flag schema-id sites that bypass or miss the SCHEMAS registry."""
    registry: Dict[str, str] = {}
    legacy: set = set()
    registry_module = None
    for module in sorted(project.modules):
        summary = project.modules[module]
        if summary.get("schema_registry") is not None:
            registry.update(summary["schema_registry"])
            registry_module = module
        legacy.update(summary.get("legacy_schema_ids", []))
    if registry_module is None:
        return  # no registry in this tree (fixture packages) — nothing to check
    registered = set(registry.values()) | legacy
    current = set(registry.values())

    for module in sorted(project.modules):
        if module.rsplit(".", 1)[-1] == "schemas":
            continue  # the defining site itself
        summary = project.modules[module]
        relpath = project.relpath_of[module]
        reg_rel = project.relpath_of[registry_module]
        witness: Tuple[WitnessHop, ...] = ((reg_rel, 1, "SCHEMAS"),)
        for line, col, value in summary.get("schema_literals", []):
            if value not in registered:
                yield (
                    relpath, int(line), int(col),
                    f"schema id {value!r} is not in the SCHEMAS registry "
                    f"({registry_module}); register it (or fix the typo) "
                    "before emitting/parsing it",
                    witness,
                )
        for line, col, site_kind, desc in summary.get("schema_sites", []):
            owner_class = _enclosing_class(summary, int(line))
            resolved = _resolve_schema_desc(
                project, module, owner_class, desc
            )
            if resolved is None:
                yield (
                    relpath, int(line), int(col),
                    "schema id at this "
                    + ("emit" if site_kind == "emit" else "parse")
                    + " site does not statically resolve to the SCHEMAS "
                    "registry; use a registry-backed constant",
                    witness,
                )
                continue
            allowed = registered if site_kind == "check" else current
            for item in resolved:
                if item[0] == "any":
                    continue
                if item[0] == "family":
                    if item[1] not in registry:
                        yield (
                            relpath, int(line), int(col),
                            f"SCHEMAS[{item[1]!r}] names an unregistered "
                            f"schema family; known: {sorted(registry)}",
                            witness,
                        )
                    continue
                value = item[1]
                if value not in allowed:
                    hint = (" (superseded id: parse sites may accept it, "
                            "emit sites must not)"
                            if value in registered else "")
                    yield (
                        relpath, int(line), int(col),
                        f"schema id {value!r} is not registered for "
                        f"{site_kind} sites{hint}",
                        witness,
                    )


def _enclosing_class(summary, line: int) -> Optional[str]:
    """Best-effort: the class whose method spans ``line`` (by def line)."""
    best: Optional[Tuple[int, str]] = None
    for qual in sorted(summary.get("functions", {})):
        func = summary["functions"][qual]
        cname = func.get("class")
        if cname is None:
            continue
        def_line = int(func["line"])
        if def_line <= line and (best is None or def_line > best[0]):
            best = (def_line, cname)
    return best[1] if best else None


# -- export-doc-sync -----------------------------------------------------------

_BACKTICK_RE = re.compile(r"`([^`]+)`")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*")
_SECTION_RE = re.compile(r"^#{2,3}\s+`(repro(?:\.[a-z_0-9]+)*)`")


def _doc_tokens(text: str):
    """Yield ``(line_no, section, token)`` for first-column table tokens."""
    section = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        match = _SECTION_RE.match(line)
        if match:
            section = match.group(1)
            continue
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        if not cells or set(cells[0]) <= {"-", ":", " "}:
            continue
        for raw in _BACKTICK_RE.findall(cells[0]):
            token = raw.split("(")[0].strip().rstrip(".")
            if not token or not _IDENT_RE.fullmatch(token):
                continue
            yield line_no, section, token


@register_program(
    "export-doc-sync",
    "package __init__ exports must be documented in docs/API.md, and "
    "documented names must exist in the code",
    scope_note="whole program; needs docs/API.md next to the lint root",
)
def check_export_doc_sync(project: Project):
    """Two-way sync between ``__all__`` exports and docs/API.md."""
    if project.api_doc is None:
        return
    doc_text = Path(project.api_doc).read_text(encoding="utf-8")
    doc_rel = Path(project.api_doc).name

    # Forward: every exported name must appear inside some backtick span.
    documented_words = set()
    for span in _BACKTICK_RE.findall(doc_text):
        for ident in _IDENT_RE.findall(span):
            documented_words.add(ident)
            # `core.hwmodel.PE_HARDWARE` also documents `PE_HARDWARE`.
            documented_words.update(ident.split("."))
    for module in sorted(project.modules):
        summary = project.modules[module]
        if not summary.get("is_init"):
            continue
        exports = summary.get("exports")
        if not exports:
            continue
        relpath = project.relpath_of[module]
        line = int(summary.get("exports_line", 1))
        for name in sorted(set(exports)):
            if name not in documented_words:
                yield (
                    relpath, line, 0,
                    f"{module}.{name} is exported via __all__ but never "
                    f"mentioned in docs/API.md — document it (or stop "
                    "exporting it)",
                    ((f"docs/{doc_rel}", 1, name),),
                )

    # Reverse: first-column table tokens must exist in the code.
    name_owners: Dict[str, set] = {}
    method_owners: Dict[str, set] = {}
    for module in sorted(project.modules):
        summary = project.modules[module]
        for name in summary.get("defs", []):
            name_owners.setdefault(name, set()).add(module)
        for cname in sorted(summary.get("classes", {})):
            cls = summary["classes"][cname]
            for member in list(cls["methods"]) + list(cls.get("attrs", [])):
                method_owners.setdefault(member, set()).add(
                    f"{module}.{cname}"
                )
    for line_no, section, token in _doc_tokens(doc_text):
        if _doc_token_exists(project, section, token,
                             name_owners, method_owners):
            continue
        if section is None or section not in project.modules:
            continue  # heading names no analyzed package — nothing to anchor
        relpath = project.relpath_of[section]
        yield (
            relpath, 1, 0,
            f"docs/API.md line {line_no} documents {token!r} under "
            f"`{section}`, but no such name exists in the analyzed "
            "code — fix the doc or restore the name",
            ((f"docs/{doc_rel}", line_no, token),),
        )


def _doc_token_exists(project, section, token, name_owners, method_owners):
    candidates = [token]
    if section:
        candidates.append(f"{section}.{token}")
    if not token.startswith("repro."):
        candidates.append(f"repro.{token}")
    for candidate in candidates:
        if candidate in project.modules:
            return True
        if project.resolve(candidate) is not None:
            return True
    head = token.split(".")[0]
    tail = token.split(".")[-1]
    scope = section or "repro"
    for owner in name_owners.get(head, ()):  # defined anywhere in section
        if owner == scope or owner.startswith(scope + "."):
            return True
    for owner in method_owners.get(tail, ()):  # method/attr in section
        if owner.startswith(scope + "."):
            return True
    if "." in token:
        # Qualified like Class.method: accept if the class exists in the
        # section and the member exists on any class of that name.
        first, _, member = token.partition(".")
        for owner in name_owners.get(first, ()):
            if owner.startswith(scope):
                if member in method_owners or member in name_owners:
                    return True
    return False


# -- entry point ---------------------------------------------------------------

def analyze(
    summaries: Sequence[Tuple[str, Dict[str, object]]],
    rules: Sequence[ProgramRule],
    api_doc: Optional[Path] = None,
) -> List[Finding]:
    """Run the selected whole-program rules over the module summaries.

    Returns :class:`Finding` objects (suppression already resolved via
    the per-file ``# repro: allow[...]`` tables captured in each
    summary), sorted by the standard finding key.
    """
    project = Project(summaries, api_doc=api_doc)
    findings: List[Finding] = []
    for rule in sorted(rules, key=lambda r: r.id):
        for relpath, line, col, message, paths in rule.check(project):
            supp = project.suppression_for(rule.id, relpath, line)
            findings.append(Finding(
                rule.id, relpath, line, col, message,
                suppressed=supp is not None,
                reason=supp.reason if supp is not None else "",
                paths=tuple(tuple(hop) for hop in paths),
            ))
    findings.sort(key=Finding.sort_key)
    return findings
