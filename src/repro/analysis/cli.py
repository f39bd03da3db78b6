"""``python -m repro lint``: run the simulator-aware static-analysis pass.

Usage::

    python -m repro lint                      # per-file + whole-program rules
    python -m repro lint --json lint.json     # also write the machine report
    python -m repro lint --rule no-wall-clock # run a subset of rules
    python -m repro lint --list-rules         # what exists, with scopes
    python -m repro lint path/to/file.py dir/ # explicit targets

The ``lint`` verb is one subcommand of the ``python -m repro`` parser
(:mod:`repro.__main__`): :func:`add_arguments` declares its flags there
and :func:`run` is its handler.

Exit status: 0 when no unsuppressed findings remain, 1 otherwise, 2 on
usage errors.  See docs/ANALYSIS.md for the rule catalogue (per-file and
whole-program), the suppression syntax
(``# repro: allow[rule-id] -- why``), and the ``repro-lint/2`` report
schema with its cross-file witness chains.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.framework import PROGRAM_RULES, RULES, lint_paths


def _print_rules() -> None:
    catalogue = [(rule_id, RULES[rule_id].summary, RULES[rule_id].scope_note)
                 for rule_id in sorted(RULES)]
    catalogue += [
        (rule_id, PROGRAM_RULES[rule_id].summary,
         PROGRAM_RULES[rule_id].scope_note)
        for rule_id in sorted(PROGRAM_RULES)
    ]
    width = max(len(rule_id) for rule_id, _, _ in catalogue)
    for rule_id, summary, scope_note in catalogue:
        print(f"  {rule_id:<{width}}  {summary}")
        print(f"  {'':<{width}}  scope: {scope_note}")


def add_arguments(parser) -> None:
    """Declare the ``lint`` verb's flags on its subparser."""
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to lint "
                             "(default: the in-tree repro package)")
    parser.add_argument("--json", dest="json_out", metavar="FILE",
                        default=None,
                        help="write the machine-readable report "
                             "(schema repro-lint/2) to FILE")
    parser.add_argument("--rule", dest="rules", action="append",
                        metavar="ID", default=None,
                        help="run only this rule (repeatable); "
                             "default: all rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings")


def run(args, parser) -> int:
    """Handler for ``python -m repro lint``; returns the exit code."""
    if args.list_rules:
        _print_rules()
        return 0

    if args.rules:
        known = set(RULES) | set(PROGRAM_RULES)
        unknown = sorted(set(args.rules) - known)
        if unknown:
            parser.error(
                f"unknown rule ids {unknown}; known: {sorted(known)}"
            )

    targets = [Path(p) for p in args.paths] if args.paths else None
    if targets:
        missing = [str(p) for p in targets if not p.exists()]
        if missing:
            parser.error(f"no such file or directory: {missing}")

    report = lint_paths(targets, rules=args.rules)

    for finding in report.findings:
        if finding.suppressed:
            if args.show_suppressed:
                print(f"{finding.location}: suppressed[{finding.rule}]: "
                      f"{finding.reason}")
            continue
        print(f"{finding.location}: {finding.rule}: {finding.message}")
        for path, line, symbol in finding.paths[1:]:
            print(f"    via {path}:{line}: {symbol}")

    if args.json_out:
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        Path(args.json_out).write_text(payload + "\n", encoding="utf-8")

    active = report.active
    print(f"[lint] {report.files_scanned} files, "
          f"{len(report.rules_run)} rules: "
          f"{len(active)} finding(s), {len(report.suppressed)} suppressed")
    return 1 if active else 0
