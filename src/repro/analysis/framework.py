"""Static-analysis framework: rule registry, suppressions, and reports.

The simulator's correctness contract — bit-identical results for a given
configuration and workload — is enforced at runtime by the perf harness
(``python -m repro bench``) and the profiler's fingerprint checks, but
nothing *prevents* the bug classes that break it only on some hosts or
hash seeds (wall-clock reads in simulation code, unseeded RNGs,
hash-order-dependent set iteration, ``id()``-derived order).  This
package is the static guardrail: a small AST-based lint pass with rules
written specifically for this codebase, no third-party linter required.

Architecture
------------
* :func:`register` adds a :class:`Rule` to the global :data:`RULES`
  registry.  A rule is a callable ``check(module) -> iterable of
  (line, col, message)`` plus a *scope* predicate over repo-relative
  paths, so e.g. the set-iteration rule only applies to the
  ordered-output layers.  The built-in rule set lives in
  :mod:`repro.analysis.rules`.
* :func:`parse_module` parses and tokenizes one file, once, into a
  :class:`Module` that carries its suppression tables;
  :func:`lint_source` runs every in-scope rule on it and resolves
  suppressions; :func:`lint_paths` walks directories, hands the same
  modules to the whole-program rules, and aggregates a
  :class:`LintReport` with a stable, machine-readable ``to_dict()`` form
  (schema :data:`LINT_SCHEMA`).
* Suppressions are inline comments::

      risky_line()  # repro: allow[rule-id] -- why this one is safe

  placed on the offending line or alone on the line directly above it.
  ``# repro: allow-file[rule-id] -- why`` anywhere in a file suppresses
  the rule for the whole file.  Every suppression must carry an
  explanation after the bracket; a bare ``allow`` (or one naming an
  unknown rule) is itself reported under :data:`BARE_SUPPRESSION`, so
  "silence the linter without saying why" fails CI.

Everything here is stdlib-only and deterministic: files and findings are
sorted, and the pass never consults the clock or any RNG.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.schemas import SCHEMAS

#: Version tag of the JSON report layout (``LintReport.to_dict()``).
#: v2 adds the optional per-finding ``paths`` witness chain emitted by
#: the whole-program rules (:mod:`repro.analysis.program`).
LINT_SCHEMA = SCHEMAS["lint"]

#: Suppressions shorter than this (after the bracket) count as unexplained.
MIN_REASON_CHARS = 8

#: Pseudo-rule ids emitted by the framework itself (not registrable).
BARE_SUPPRESSION = "bare-suppression"
PARSE_ERROR = "parse-error"


#: One hop of a cross-file witness chain: (path, line, symbol).
WitnessHop = Tuple[str, int, str]


@dataclass(frozen=True)
class Finding:
    """One lint hit, suppressed or not, at a source location.

    ``paths`` is the cross-file witness chain attached by whole-program
    rules: each hop is ``(path, line, symbol)`` leading from the flagged
    site to the root cause (e.g. the function that actually reads the
    wall clock).  Per-file rules leave it empty.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str = ""
    paths: Tuple[WitnessHop, ...] = ()

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
        }
        if self.paths:
            out["paths"] = [
                {"path": hop[0], "line": hop[1], "symbol": hop[2]}
                for hop in self.paths
            ]
        if self.suppressed:
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: allow[...]`` comment."""

    rules: Tuple[str, ...]
    reason: str
    line: int
    file_level: bool

    def covers(self, rule_id: str) -> bool:
        return "*" in self.rules or rule_id in self.rules


@dataclass
class Module:
    """One parsed source file: handed to every in-scope per-file rule,
    and, all files together, to the whole-program rules."""

    relpath: str
    source: str
    tree: ast.Module
    #: Lines whose only content is a comment (suppression carriers).
    comment_only_lines: frozenset
    #: ``line -> suppression`` for the line-level ``allow[...]`` comments.
    suppressions: Dict[int, Suppression]
    #: The ``allow-file[...]`` comments.
    file_suppressions: Tuple[Suppression, ...]

    def suppression(self, rule_id: str, line: int) -> Optional[Suppression]:
        """The suppression covering ``rule_id`` at ``line``, if any: on the
        line itself, in the comment block directly above it, or
        file-level."""
        supp = self.suppressions.get(line)
        if supp is not None and supp.covers(rule_id):
            return supp
        # Walk upward through the contiguous block of comment-only lines
        # directly above the finding, so a suppression whose explanation
        # wraps onto several comment lines still applies.
        above = line - 1
        while above in self.comment_only_lines:
            supp = self.suppressions.get(above)
            if supp is not None and supp.covers(rule_id):
                return supp
            above -= 1
        for supp in self.file_suppressions:
            if supp.covers(rule_id):
                return supp
        return None

    def finding(self, rule_id: str, line: int, col: int, message: str,
                paths: Tuple[WitnessHop, ...] = ()) -> Finding:
        """A :class:`Finding` here, marked suppressed when a comment
        covers it."""
        supp = self.suppression(rule_id, line)
        return Finding(
            rule_id, self.relpath, line, col, message,
            suppressed=supp is not None,
            reason=supp.reason if supp is not None else "",
            paths=paths,
        )


RawFinding = Tuple[int, int, str]


@dataclass(frozen=True)
class Rule:
    """A registered lint rule (see :func:`register`)."""

    id: str
    summary: str
    check: Callable[[Module], Iterable[RawFinding]]
    scope: Callable[[str], bool]
    scope_note: str


#: The global rule registry, populated by :mod:`repro.analysis.rules`.
RULES: Dict[str, Rule] = {}


def register(
    rule_id: str,
    summary: str,
    *,
    scope: Optional[Callable[[str], bool]] = None,
    scope_note: str = "all of src/repro",
):
    """Decorator: add ``func`` to :data:`RULES` under ``rule_id``."""
    if not re.fullmatch(r"[a-z][a-z0-9-]*", rule_id):
        raise ValueError(f"rule id must be kebab-case, got {rule_id!r}")
    if rule_id in (BARE_SUPPRESSION, PARSE_ERROR):
        raise ValueError(f"{rule_id!r} is reserved for the framework")

    def decorator(func: Callable[[Module], Iterable[RawFinding]]):
        if rule_id in RULES or rule_id in PROGRAM_RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = Rule(
            id=rule_id,
            summary=summary,
            check=func,
            scope=scope if scope is not None else (lambda rel: True),
            scope_note=scope_note,
        )
        return func

    return decorator


#: A raw whole-program finding: (relpath, line, col, message, witness chain).
ProgramRawFinding = Tuple[str, int, int, str, Tuple[WitnessHop, ...]]


@dataclass(frozen=True)
class ProgramRule:
    """A registered whole-program (interprocedural) lint rule.

    Unlike :class:`Rule`, the check runs once per lint pass over the
    project-wide view (:class:`repro.analysis.program.Project`) rather
    than once per file, so it can follow call chains and import edges
    across module boundaries.
    """

    id: str
    summary: str
    check: Callable[[object], Iterable[ProgramRawFinding]]
    scope_note: str


#: Whole-program rule registry, populated by :mod:`repro.analysis.program`.
PROGRAM_RULES: Dict[str, ProgramRule] = {}


def register_program(
    rule_id: str,
    summary: str,
    *,
    scope_note: str = "whole program",
):
    """Decorator: add ``func`` to :data:`PROGRAM_RULES` under ``rule_id``."""
    if not re.fullmatch(r"[a-z][a-z0-9-]*", rule_id):
        raise ValueError(f"rule id must be kebab-case, got {rule_id!r}")
    if rule_id in (BARE_SUPPRESSION, PARSE_ERROR):
        raise ValueError(f"{rule_id!r} is reserved for the framework")

    def decorator(func: Callable[[object], Iterable[ProgramRawFinding]]):
        if rule_id in RULES or rule_id in PROGRAM_RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        PROGRAM_RULES[rule_id] = ProgramRule(
            id=rule_id, summary=summary, check=func, scope_note=scope_note,
        )
        return func

    return decorator


def in_dirs(*names: str) -> Callable[[str], bool]:
    """Scope helper: path contains one of these directory components."""
    def predicate(relpath: str) -> bool:
        posix = "/" + relpath.replace("\\", "/")
        return any(f"/{name}/" in posix for name in names)
    return predicate


def excluding(*suffixes_or_dirs: str) -> Callable[[str], bool]:
    """Scope helper: everywhere except these path suffixes / directories."""
    def predicate(relpath: str) -> bool:
        posix = "/" + relpath.replace("\\", "/")
        for pattern in suffixes_or_dirs:
            if pattern.endswith("/"):
                if f"/{pattern}" in posix or posix.startswith("/" + pattern):
                    return False
            elif posix.endswith("/" + pattern):
                return False
        return True
    return predicate


# -- suppression comments ------------------------------------------------------

_ALLOW_RE = re.compile(
    r"repro:\s*allow(?P<file>-file)?\[(?P<rules>[^\]]*)\]"
    r"\s*(?:[-—–:]+\s*)?(?P<reason>.*)$"
)


def _extract_comments(source: str) -> Tuple[Dict[int, str], frozenset]:
    comments: Dict[int, str] = {}
    comment_only: set = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
                if tok.line.strip().startswith("#"):
                    comment_only.add(tok.start[0])
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        pass  # ast.parse already vetted the file; best effort here
    return comments, frozenset(comment_only)


def parse_module(
    source: str, relpath: str,
) -> Tuple[Optional[Module], List[Finding]]:
    """Parse and tokenize one file: its :class:`Module` (``None`` when it
    does not parse) and the framework's own findings on it, a
    ``parse-error`` or the ``bare-suppression`` hygiene hits for
    unexplained or unknown-rule suppressions."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, [Finding(
            PARSE_ERROR, relpath, exc.lineno or 1, exc.offset or 0,
            f"syntax error: {exc.msg}",
        )]
    comments, comment_only = _extract_comments(source)
    by_line: Dict[int, Suppression] = {}
    file_level: List[Suppression] = []
    hygiene: List[Finding] = []
    for line in sorted(comments):
        match = _ALLOW_RE.search(comments[line])
        if match is None:
            continue
        ids = tuple(
            part.strip() for part in match.group("rules").split(",")
            if part.strip()
        )
        supp = Suppression(
            rules=ids,
            reason=match.group("reason").strip(),
            line=line,
            file_level=match.group("file") is not None,
        )
        messages = []
        if not ids:
            messages.append("suppression names no rule ids")
        messages.extend(
            f"suppression names unknown rule {rule_id!r}" for rule_id in ids
            if (rule_id != "*" and rule_id not in RULES
                and rule_id not in PROGRAM_RULES)
        )
        if len(supp.reason) < MIN_REASON_CHARS:
            messages.append(
                "suppression lacks an explanatory comment: write "
                "'# repro: allow[rule-id] -- why this is safe'"
            )
        hygiene.extend(
            Finding(BARE_SUPPRESSION, relpath, line, 0, message)
            for message in messages
        )
        if supp.file_level:
            file_level.append(supp)
        else:
            by_line[line] = supp
    module = Module(
        relpath=relpath, source=source, tree=tree,
        comment_only_lines=comment_only,
        suppressions=by_line, file_suppressions=tuple(file_level),
    )
    return module, hygiene


# -- running the pass ----------------------------------------------------------

def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[Rule]:
    """Per-file rules matching the request (program ids pass through)."""
    if rule_ids is None:
        return [RULES[rule_id] for rule_id in sorted(RULES)]
    known = set(RULES) | set(PROGRAM_RULES)
    unknown = sorted(set(rule_ids) - known)
    if unknown:
        raise KeyError(f"unknown rule ids {unknown}; known: {sorted(known)}")
    return [
        RULES[rule_id]
        for rule_id in sorted(set(rule_ids)) if rule_id in RULES
    ]


def _select_program_rules(
    rule_ids: Optional[Sequence[str]],
) -> List[ProgramRule]:
    if rule_ids is None:
        return [PROGRAM_RULES[rule_id] for rule_id in sorted(PROGRAM_RULES)]
    return [
        PROGRAM_RULES[rule_id]
        for rule_id in sorted(set(rule_ids)) if rule_id in PROGRAM_RULES
    ]


def _lint_one(
    source: str,
    relpath: str,
    rules: Optional[Sequence[str]],
    selected: Sequence[Rule],
) -> Tuple[Optional[Module], List[Finding]]:
    """Parse one file and run the selected per-file rules on it."""
    module, findings = parse_module(source, relpath)
    if module is None:
        return None, findings
    if rules is not None:
        # Suppression hygiene only runs with the full rule set: a filtered
        # run (--rule X) should not complain about other rules' comments.
        findings = []
    for rule in selected:
        if rule.scope(relpath):
            for line, col, message in rule.check(module):
                findings.append(module.finding(rule.id, line, col, message))
    return module, findings


def lint_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file's source text; ``relpath`` drives rule scoping.

    Returns every finding, suppressed ones included (marked); callers
    filter on :attr:`Finding.suppressed` for the pass/fail decision.
    """
    _, findings = _lint_one(source, relpath, rules, _select_rules(rules))
    findings.sort(key=Finding.sort_key)
    return findings


def default_root() -> Path:
    """The in-tree ``repro`` package directory (the default lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _relpath_for(
    path: Path,
    base: Optional[Path],
    fallback: Optional[Path] = None,
) -> str:
    path = path.resolve()
    candidates = [base, default_root().parent, Path.cwd(), fallback]
    for root in candidates:
        if root is None:
            continue
        try:
            return path.relative_to(root.resolve()).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def lint_file(
    path: Path,
    relpath: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file on disk (see :func:`lint_source`)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source,
        relpath if relpath is not None else _relpath_for(path, None),
        rules=rules,
    )


def _iter_py_files(paths: Sequence[Path]):
    """Yield ``(file, owning_target_dir)`` pairs in sorted order.

    The owning directory is the explicitly passed target the file was
    found under (``None`` for directly named files); it serves as the
    last-resort base for repo-relative path computation so lints of
    out-of-tree directories (test fixtures) still get stable, relative
    module paths instead of absolute ones.
    """
    for path in sorted(Path(p).resolve() for p in paths):
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub, path
        elif path.suffix == ".py":
            yield path, None


@dataclass
class LintReport:
    """Aggregate result of one lint run over a set of paths."""

    root: str
    files_scanned: int
    rules_run: Tuple[str, ...]
    findings: List[Finding] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        """Unsuppressed findings — the ones that fail the run."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.active

    def to_dict(self) -> Dict[str, object]:
        per_rule: Dict[str, Dict[str, object]] = {}
        for rule_id in self.rules_run:
            meta = RULES.get(rule_id) or PROGRAM_RULES.get(rule_id)
            per_rule[rule_id] = {
                "summary": meta.summary if meta else "",
                "scope": meta.scope_note if meta else "",
                "active": 0,
                "suppressed": 0,
            }
        for finding in self.findings:
            entry = per_rule.setdefault(
                finding.rule,
                {"summary": "", "scope": "", "active": 0, "suppressed": 0},
            )
            entry["suppressed" if finding.suppressed else "active"] += 1
        return {
            "schema": LINT_SCHEMA,
            "root": self.root,
            "files_scanned": self.files_scanned,
            "rules": per_rule,
            "findings": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories (default: the in-tree ``repro`` package).

    Each file is parsed once; the per-file rules run on its
    :class:`Module`, then the whole-program rules in
    :data:`PROGRAM_RULES` run over every parsed module together (see
    :mod:`repro.analysis.program`).
    """
    if paths is None:
        root = default_root()
        targets: List[Path] = [root]
        base: Optional[Path] = root.parent
    else:
        targets = [Path(p) for p in paths]
        base = None
    selected_file_rules = _select_rules(rules)  # validates unknown ids too
    selected_program = _select_program_rules(rules)

    findings: List[Finding] = []
    modules: List[Module] = []
    files_scanned = 0
    for path, owner in _iter_py_files(targets):
        files_scanned += 1
        relpath = _relpath_for(path, base, owner)
        module, file_findings = _lint_one(
            path.read_text(encoding="utf-8"), relpath, rules,
            selected_file_rules,
        )
        findings.extend(file_findings)
        if module is not None:
            modules.append(module)
    if selected_program:
        from repro.analysis.program import analyze

        findings.extend(analyze(modules, selected_program))
    findings.sort(key=Finding.sort_key)
    return LintReport(
        root=str(base if base is not None else Path.cwd()),
        files_scanned=files_scanned,
        rules_run=tuple(sorted(
            [rule.id for rule in selected_file_rules]
            + [rule.id for rule in selected_program]
        )),
        findings=findings,
    )
