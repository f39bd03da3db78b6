"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro list --json          # same catalogue, machine-readable
    python -m repro fig12                # one figure at bench scale
    python -m repro fig15 --quick        # one figure at smoke scale
    python -m repro run fig12-fm-seeding # any registered scenario, by alias
    python -m repro run my_scenario.yaml --seed 7   # a DSL payload file
    python -m repro validate my_scenario.yaml       # check a payload only
    python -m repro catalogue --markdown # scenario table for the docs
    python -m repro all --jobs 4         # the whole evaluation, 4 processes
    python -m repro bench                # result digests -> BENCH_results.json
    python -m repro trace fig12 --trace-out run.json   # traced quick run
    python -m repro profile fig16        # latency attribution -> profile.json
    python -m repro profile --diff a.json b.json       # rank attribution deltas
    python -m repro status runs.jsonl    # summarize a sweep run ledger
    python -m repro lint                 # simulator-aware static analysis

Each verb is a subcommand that accepts only its own flags (``python -m
repro VERB --help`` lists them); a flag another verb owns is a usage error
(exit 2), never silently ignored.

The figure verbs (``fig3`` … ``sec6g``, ``table1``, ``table2``, ``all``)
and ``run`` share the sweep flags.  Sweep points within a figure are
independent simulations; ``--jobs N`` (or the ``REPRO_JOBS`` environment
variable) fans them out over N processes with results identical to a
serial run.  ``--trace-dir DIR`` collects one Perfetto trace per sweep
point and ``--profile-dir DIR`` one latency-attribution report per sweep
point.  ``trace`` runs one scenario in-process at quick scale and writes
a single combined trace; ``profile`` does the same under the in-stream
latency profiler and writes a ProfileReport plus a collapsed-stack
flamegraph (see docs/OBSERVABILITY.md).  ``run``, ``trace`` and
``profile`` resolve their target the same way: canonical name, alias, or
module-style spelling (``fig16_prealignment``).

``bench`` is a digest writer, not a timer: it simulates every benched
figure once at quick scale and writes the full-result digests to the
deterministic ``BENCH_results.json``, which the tier-1 suite checks.
Host time is measured by ``python3 bench/run.py``.

Fleet telemetry: ``--ledger FILE`` (or ``REPRO_LEDGER``) appends one JSONL
lifecycle event per sweep job, ``--progress`` (or ``REPRO_PROGRESS=1``)
draws a stderr progress line, and ``status`` summarizes a ledger
(completed/running/failed, throughput, ETA, slowest jobs).  See
docs/OBSERVABILITY.md, "Fleet telemetry".
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from repro.analysis import cli as lint_cli
from repro.experiments import ExperimentScale, ParallelSweepRunner, tables
from repro.experiments.scenarios import (
    SCENARIOS,
    ensure_registered,
    get_scenario,
    resolve_scenario,
    scenario_names,
)

ensure_registered()


def _scenario_entry(name):
    """(description, runner-callable) pair for one registered scenario."""
    spec = SCENARIOS[name]
    return (spec.title,
            lambda scale, runner: spec.main(scale, runner=runner))


#: The paper's artifact catalogue: the scenario-backed figures plus the
#: two static tables.  (``scalability`` is an extension study: it is
#: benched and reachable via ``run``, but not part of the paper's set.)
EXPERIMENTS = {
    name: _scenario_entry(name)
    for name in ("fig3", "fig12", "fig13", "fig14", "fig15", "fig16",
                 "fig17", "sec6g")
}
EXPERIMENTS["table1"] = ("experimental configuration",
                         lambda scale, runner: tables.main())
EXPERIMENTS["table2"] = ("PE hardware overhead",
                         lambda scale, runner: tables.main())


def _is_payload_path(target: str) -> bool:
    """Does a ``run``/``validate`` target name a payload file (not a
    registered scenario)?  Payload files are recognized by extension or
    by containing a path separator."""
    return target.endswith((".yaml", ".yml", ".json")) or os.sep in target


def _resolve_target(parser, target: str) -> str:
    """Canonical scenario name for a ``run``/``trace``/``profile`` target
    (name, alias, or module-style spelling); a usage error if unknown."""
    canonical = resolve_scenario(target)
    if canonical is None:
        parser.error(f"unknown scenario {target!r}; "
                     f"known: {scenario_names()}")
    return canonical


def _sweep_runner(args) -> ParallelSweepRunner:
    """The runner the sweep flags describe (figure verbs and ``run``)."""
    return ParallelSweepRunner(jobs=args.jobs, trace_dir=args.trace_dir,
                               profile_dir=args.profile_dir,
                               ledger_path=args.ledger,
                               progress=args.progress or None)


def _sweep_scale(args) -> ExperimentScale:
    return ExperimentScale.quick() if args.quick else ExperimentScale.bench()


def _run_experiments(args, parser) -> int:
    """A figure verb (or ``all``): regenerate its tables and figures."""
    runner = _sweep_runner(args)
    scale = _sweep_scale(args)
    for name in args.experiments:
        description, run = EXPERIMENTS[name]
        print(f"\n=== {name}: {description} ===")
        started = time.time()
        run(scale, runner)
        print(f"[{name} took {time.time() - started:.1f}s]")
    return 0


def _run_scenario(args, parser) -> int:
    """``python -m repro run <scenario-or-payload>``: execute one
    registered scenario (canonical name or alias) or a DSL payload file
    through the unified scenario layer."""
    if _is_payload_path(args.target):
        from repro.experiments import dsl

        try:
            spec = dsl.load_scenario_file(args.target, seed=args.seed)
        except (dsl.PayloadError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # No wall-clock footer here: payload runs must be bit-identical
        # across invocations (the DSL's determinism contract).
        print(f"\n=== {spec.name}: {spec.title} ===")
        spec.main(_sweep_scale(args), runner=_sweep_runner(args))
        return 0
    if args.seed is not None:
        parser.error(f"--seed overrides a payload file's seed; "
                     f"{args.target!r} is a registered scenario")
    canonical = _resolve_target(parser, args.target)
    spec = get_scenario(canonical)
    print(f"\n=== {canonical}: {spec.title} ===")
    started = time.time()
    spec.main(_sweep_scale(args), runner=_sweep_runner(args))
    print(f"[{canonical} took {time.time() - started:.1f}s]")
    return 0


def _run_validate(args, parser) -> int:
    """``python -m repro validate <payload>``: schema-check one payload
    file without running it."""
    from repro.experiments import dsl

    try:
        payload = dsl.validate_payload(dsl.load_payload(args.payload))
    except (dsl.PayloadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {args.payload} -> scenario {payload.name!r} "
          f"(kind {payload.kind}; backends {', '.join(payload.backends)})")
    return 0


def _run_catalogue(args, parser) -> int:
    """``python -m repro catalogue``: the registered-scenario table
    (``--markdown`` for the docs copy, ``--check`` for the CI sync gate)."""
    from repro.experiments import catalogue

    if args.check:
        ok, message = catalogue.check_docs_sync()
        print(message)
        return 0 if ok else 1
    print(catalogue.render_markdown() if args.markdown
          else catalogue.render_text())
    return 0


def _list_json() -> str:
    """The ``list --json`` document: experiments + scenario catalogue."""
    import json

    ensure_registered()
    scenarios = []
    for name, spec in SCENARIOS.items():
        scenarios.append({
            "name": name,
            "title": spec.title,
            "aliases": list(spec.aliases),
            "backends": list(spec.backends),
            "drivers": list(spec.drivers),
            "sweep_axes": list(spec.sweep_axes),
        })
    return json.dumps({
        "experiments": {
            name: description
            for name, (description, _run) in sorted(EXPERIMENTS.items())
        },
        "scenarios": scenarios,
    }, indent=2, sort_keys=True)


def _run_list(args, parser) -> int:
    """``python -m repro list``: the artifact and scenario catalogue."""
    if args.json:
        print(_list_json())
        return 0
    for name, (description, _run) in sorted(EXPERIMENTS.items()):
        print(f"  {name:8s} {description}")
    print("  bench    every figure's quick-scale result digest "
          "-> BENCH_results.json")
    print("  run      any registered scenario by name or alias "
          "(or a payload file, see docs/SCENARIOS.md):")
    for name in scenario_names():
        spec = SCENARIOS[name]
        alias_note = (f"  (aliases: {', '.join(spec.aliases)})"
                      if spec.aliases else "")
        print(f"    {name:14s} {spec.title}{alias_note}")
    print("  validate  schema-check a scenario payload file")
    print("  catalogue scenario table (--markdown / --check)")
    print("  trace    one traced figure run -> Perfetto JSON")
    print("  profile  one profiled figure run -> latency attribution")
    print("  status   summarize a sweep run ledger "
          "(--ledger FILE / $REPRO_LEDGER)")
    print("  lint     simulator-aware static analysis (determinism "
          "rules, per file and along the call graph)")
    if args.dsl:
        from repro.experiments.dsl import schema_reference

        print()
        print(schema_reference())
    return 0


def _run_trace(args, parser) -> int:
    """``python -m repro trace <figure>``: one traced quick-scale run."""
    from repro.obs import TRACE_CATEGORIES, TraceSession, busiest_components

    figure = _resolve_target(parser, args.figure)
    categories = None
    if args.trace_filter:
        categories = frozenset(
            part.strip() for part in args.trace_filter.split(",") if part.strip()
        )
        unknown = categories - set(TRACE_CATEGORIES)
        if unknown:
            parser.error(
                f"unknown trace categories {sorted(unknown)}; "
                f"known: {list(TRACE_CATEGORIES)}"
            )
    if args.metrics_interval is not None and not args.metrics_out:
        parser.error("--metrics-interval samples counters for "
                     "--metrics-out; name the output file too")
    metrics_interval = args.metrics_interval
    if metrics_interval is None and args.metrics_out:
        from repro.obs.session import DEFAULT_METRICS_INTERVAL

        metrics_interval = DEFAULT_METRICS_INTERVAL

    session = TraceSession(
        categories=categories,
        limit=args.trace_limit,
        metrics_interval=metrics_interval,
    )
    runner = ParallelSweepRunner(jobs=1)
    started = time.time()
    with session:
        SCENARIOS[figure].run(ExperimentScale.quick(), runner=runner)
    elapsed = time.time() - started
    recorder = session.recorder
    session.save(args.trace_out, metrics_path=args.metrics_out or None)
    size_mb = os.path.getsize(args.trace_out) / 1e6
    print(f"\n[trace] {figure} took {elapsed:.1f}s at quick scale")
    print(f"[trace] {recorder.recorded} events recorded "
          f"({recorder.dropped} dropped) across layers: "
          f"{', '.join(sorted(recorder.layers()))}")
    print(f"[trace] wrote {args.trace_out} ({size_mb:.1f} MB)")
    if args.metrics_out and session.sampler is not None:
        print(f"[trace] wrote {args.metrics_out} "
              f"({session.sampler.sample_count} metric samples)")
    print("[trace] top components by busy time:")
    for path, busy_us in busiest_components(recorder):
        print(f"    {path:44s} {busy_us:14,.1f} us")
    print("[trace] open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _profile_delays(figure: str) -> int:
    """``python -m repro profile <figure> --delays``: schedule-delay
    histogram from one serial quick-scale run.

    This distribution is what the timing wheel's ring size is chosen
    against: the simulator's delays are short-horizon (DRAM timing
    parameters, link hops) with a long sparse tail (refresh intervals,
    timeout flushes), which is exactly the shape a ring of per-cycle
    buckets with a sparse overflow heap exploits.  Every event pushed
    onto a scheduler is counted, including link arrivals and DRAM
    completions that bypass ``Engine.schedule*``.
    """
    from repro.sim.engine import Engine

    runner = ParallelSweepRunner(jobs=1)
    started = time.time()
    with Engine.record_delay_histogram() as histogram:
        SCENARIOS[figure].run(ExperimentScale.quick(), runner=runner)
    elapsed = time.time() - started
    total = sum(histogram.values())
    if not total:
        print(f"[profile] {figure}: no events scheduled")
        return 0
    rows = sorted(histogram.items())
    print(f"[profile] {figure}: {total:,} events scheduled across "
          f"{len(rows)} distinct delays ({elapsed:.1f}s at quick scale)")
    print(f"[profile] {'delay':>8s} {'count':>12s} {'share':>7s} {'cum':>7s}")
    shown = rows[:40]
    cumulative = 0
    for delay, count in shown:
        cumulative += count
        print(f"[profile] {delay:>8d} {count:>12,d} "
              f"{count / total:>7.1%} {cumulative / total:>7.1%}")
    if len(rows) > len(shown):
        tail = total - cumulative
        print(f"[profile] (+{len(rows) - len(shown)} longer delays, "
              f"{tail:,} events, max {rows[-1][0]} cycles)")
    return 0


def _run_profile(args, parser) -> int:
    """``python -m repro profile <figure>`` (or ``--diff a b``): latency
    attribution from an in-stream profiled quick-scale run."""
    from repro.obs import (
        ProfileReport,
        TraceSession,
        diff_reports,
        format_diff,
        render_summary,
        write_flamegraph,
    )

    outputs = [flag for flag, path in (("--profile-out", args.profile_out),
                                       ("--flame-out", args.flame_out))
               if path is not None]
    if args.diff:
        if args.delays:
            parser.error("--delays profiles a figure run; "
                         "it cannot be combined with --diff")
        if outputs:
            parser.error(f"--diff writes no files; drop {', '.join(outputs)}")
        path_a, path_b = args.diff
        try:
            deltas = diff_reports(ProfileReport.load(path_a),
                                  ProfileReport.load(path_b))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"[profile] attribution deltas, {path_a} -> {path_b}:")
        print(format_diff(deltas), end="")
        return 0

    figure = _resolve_target(parser, args.figure)
    if args.delays:
        if outputs:
            parser.error(f"--delays writes no files; "
                         f"drop {', '.join(outputs)}")
        return _profile_delays(figure)
    profile_out = args.profile_out or "profile.json"
    flame_out = args.flame_out or "profile.folded"

    session = TraceSession(limit=0, profile=True)
    runner = ParallelSweepRunner(jobs=1)
    started = time.time()
    with session:
        SCENARIOS[figure].run(ExperimentScale.quick(), runner=runner)
    elapsed = time.time() - started
    report = session.profile_report(figure=figure, scale="quick")
    report.save(profile_out)
    stacks = write_flamegraph(report, flame_out)
    print(render_summary(report), end="")
    print(f"[profile] {figure} took {elapsed:.1f}s at quick scale "
          f"({report.events_seen} events profiled in-stream)")
    print(f"[profile] wrote {profile_out} (schema {report.schema})")
    print(f"[profile] wrote {flame_out} ({stacks} collapsed stacks; "
          "feed to any flamegraph tool)")
    return 0


def _run_status(args, parser) -> int:
    """``python -m repro status <ledger>``: summarize a sweep run ledger
    (completed/running/failed, throughput, ETA, slowest jobs;
    ``--json`` for the machine-readable form)."""
    import json

    from repro.obs.telemetry import (
        LedgerError,
        read_ledger,
        render_status,
        summarize_ledger,
    )

    try:
        events = read_ledger(args.ledger)
    except (LedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarize_ledger(events)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_status(summary), end="")
    return 0


def _run_bench(args, parser) -> int:
    """``python -m repro bench``: simulate every figure, write the digests."""
    from repro.perf import run_bench

    run_bench()
    return 0


def _int_at_least(minimum: int):
    """argparse ``type=`` for an integer flag with a lower bound, so a bad
    value is a usage error naming the flag rather than a later traceback."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


_JOBS_HELP = ("fan independent sweep points out over N processes "
              "(default: $REPRO_JOBS or 1)")


def _add_sweep_flags(parser) -> None:
    """The flags of the figure verbs and ``run``: scale, fan-out, and the
    per-sweep-job observers."""
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale (seconds instead of minutes)")
    parser.add_argument("--jobs", type=_int_at_least(1), default=None,
                        metavar="N", help=_JOBS_HELP)
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write one trace per sweep job into DIR "
                             "(also $REPRO_TRACE_DIR)")
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="write one latency-attribution report per "
                             "sweep job into DIR (also $REPRO_PROFILE_DIR)")
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="append one JSONL lifecycle event per sweep "
                             "job to FILE (also $REPRO_LEDGER; summarize "
                             "with 'status')")
    parser.add_argument("--progress", action="store_true",
                        help="draw an in-terminal progress line on stderr "
                             "as sweep jobs complete (also "
                             "$REPRO_PROGRESS=1)")


def _build_parser() -> argparse.ArgumentParser:
    """The whole CLI: one subparser per verb, each declaring only the
    flags its handler reads, dispatched via ``set_defaults(handler=...)``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the BEACON paper's evaluation artifacts.",
    )
    verbs = parser.add_subparsers(dest="experiment", required=True)

    def verb(name, handler, help):
        sub = verbs.add_parser(name, help=help, description=help)
        sub.set_defaults(handler=partial(handler, parser=sub))
        return sub

    for name in sorted(EXPERIMENTS):
        sub = verb(name, _run_experiments, EXPERIMENTS[name][0])
        sub.set_defaults(experiments=[name])
        _add_sweep_flags(sub)
    sub = verb("all", _run_experiments, "every table and figure, in order")
    sub.set_defaults(experiments=sorted(EXPERIMENTS))
    _add_sweep_flags(sub)

    sub = verb("list", _run_list, "what can be regenerated")
    sub.add_argument("--json", action="store_true",
                     help="emit the catalogue as JSON")
    sub.add_argument("--dsl", action="store_true",
                     help="also print the scenario-payload schema reference")

    verb("bench", _run_bench,
         "simulate every figure once at quick scale and write their result "
         "digests to BENCH_results.json")

    sub = verb("run", _run_scenario,
               "execute any registered scenario by name or alias, or a "
               "DSL payload file")
    sub.add_argument("target", metavar="scenario",
                     help="scenario name, alias, or payload file "
                          "(YAML/JSON, see docs/SCENARIOS.md)")
    _add_sweep_flags(sub)
    sub.add_argument("--seed", type=int, default=None, metavar="N",
                     help="payload files only: override the payload's seed")

    sub = verb("trace", _run_trace,
               "run one figure at quick scale with tracing on")
    sub.add_argument("figure", help="scenario name or alias")
    sub.add_argument("--trace-out", default="trace.json", metavar="FILE",
                     help="Perfetto JSON output path (default: %(default)s)")
    sub.add_argument("--trace-filter", default=None, metavar="CATS",
                     help="comma-separated categories to keep "
                          "(dram,cxl,ndp,mem; default: all)")
    sub.add_argument("--trace-limit", type=_int_at_least(0), default=None,
                     metavar="N",
                     help="cap recorded events at N (default: 2,000,000)")
    sub.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="also write sampled StatScope counters as CSV")
    sub.add_argument("--metrics-interval", type=_int_at_least(1),
                     default=None, metavar="CYCLES",
                     help="metric sampling interval in simulated cycles "
                          "(default: 50,000; needs --metrics-out)")

    sub = verb("profile", _run_profile,
               "run one figure under the latency profiler, or compare two "
               "saved reports")
    target = sub.add_mutually_exclusive_group(required=True)
    target.add_argument("figure", nargs="?", default=None,
                        help="scenario name or alias")
    target.add_argument("--diff", nargs=2, default=None,
                        metavar=("A.json", "B.json"),
                        help="compare two saved ProfileReports and rank "
                             "attribution deltas")
    sub.add_argument("--delays", action="store_true",
                     help="print the schedule-delay histogram of one "
                          "serial quick-scale run (the distribution the "
                          "timing wheel's ring size is chosen against)")
    sub.add_argument("--profile-out", default=None, metavar="FILE",
                     help="ProfileReport JSON output path "
                          "(default: profile.json)")
    sub.add_argument("--flame-out", default=None, metavar="FILE",
                     help="collapsed-stack flamegraph output path "
                          "(default: profile.folded)")

    sub = verb("lint", lint_cli.run,
               "simulator-aware static analysis: determinism lints, per "
               "file and whole-program (call-graph)")
    lint_cli.add_arguments(sub)

    sub = verb("validate", _run_validate,
               "schema-check a scenario payload file without running it")
    sub.add_argument("payload", help="payload file (YAML or JSON)")

    sub = verb("catalogue", _run_catalogue, "the registered-scenario table")
    sub.add_argument("--markdown", action="store_true",
                     help="emit a markdown table (the docs/SCENARIOS.md "
                          "copy)")
    sub.add_argument("--check", action="store_true",
                     help="verify the committed copy in docs/SCENARIOS.md "
                          "matches the registry")

    sub = verb("status", _run_status, "summarize a sweep run ledger")
    sub.add_argument("ledger",
                     help="ledger file (written via --ledger FILE or "
                          "$REPRO_LEDGER; see docs/OBSERVABILITY.md)")
    sub.add_argument("--json", action="store_true",
                     help="emit the ledger summary as JSON")
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default: ``sys.argv[1:]``) and run the chosen verb;
    returns its exit code (argparse exits 2 on usage errors)."""
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
