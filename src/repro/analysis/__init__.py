"""repro.analysis — the simulator-aware static-analysis (lint) pass.

A self-contained, stdlib-only AST lint framework plus a rule set written
for this codebase's determinism contract: no wall-clock reads in
simulation code, explicit RNG seeds, no hash-order-dependent set
iteration and no ``id()``-derived ordering in the layers that feed
fingerprinted results.

On top of the per-file rules sits a whole-program layer
(:mod:`repro.analysis.program`): the files the per-file pass parsed are
assembled into a project-wide symbol table and approximate call graph,
and the transitive wall-clock/RNG taint rules run over the graph.  Their
findings carry cross-file witness chains (report schema
``repro-lint/2``) and honour the same suppression comments.

Entry points:

* ``python -m repro lint`` (see :mod:`repro.analysis.cli`) — the CLI,
  wired into ``make lint`` and CI.
* :func:`lint_paths` / :func:`lint_file` / :func:`lint_source` — the
  programmatic API; :data:`RULES` and :data:`PROGRAM_RULES` are the
  registries.

docs/ANALYSIS.md documents every rule with rationale and examples.
"""

from repro.analysis.framework import (
    BARE_SUPPRESSION,
    LINT_SCHEMA,
    PARSE_ERROR,
    PROGRAM_RULES,
    RULES,
    Finding,
    LintReport,
    Module,
    ProgramRule,
    Rule,
    default_root,
    lint_file,
    lint_paths,
    lint_source,
    register,
    register_program,
)
from repro.analysis import rules as _rules  # noqa: F401  (registers the rule set)
from repro.analysis.rules import ORDERED_OUTPUT_DIRS, SIM_DIRS
from repro.analysis import program as _program  # noqa: F401  (registers program rules)
from repro.analysis.program import Project

__all__ = [
    "BARE_SUPPRESSION",
    "LINT_SCHEMA",
    "ORDERED_OUTPUT_DIRS",
    "PARSE_ERROR",
    "PROGRAM_RULES",
    "RULES",
    "SIM_DIRS",
    "Finding",
    "LintReport",
    "Module",
    "ProgramRule",
    "Project",
    "Rule",
    "default_root",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "register_program",
]
