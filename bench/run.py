"""Benchmark of the BEACON reproduction: host time per workload, per layer.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]
    python3 bench/run.py compare A/ B/
    python3 bench/run.py record [--seeds 0-15]

Each workload runs in fresh child processes (``child.py``), one at a time:
a few set-up-only children for ``setup_s``, then whole passes until
``--seconds`` have been measured (one pass without ``--seconds``).  With
``--trace`` a run is one plain pass and one pass under cProfile, for the
per-layer split.
Every point's result is digested and checked against ``expected.json``
when it holds the seed, else against invariants; every pass must agree.
Human-readable lines come first; the last line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is 0
only when every point is correct, and 2 when the simulator cannot be
imported.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
MANIFEST = ROOT / "BENCHMARK.json"
EXPECTED = BENCH / "expected.json"

#: Set-up-only children per run; their set-ups and the passes' own give
#: the ``setup_s`` median.
SETUP_CHILDREN = 3
#: One workload's children must all end within this many seconds; a child
#: still running then is killed and its pass fails.
WORKLOAD_LIMIT_S = 170
SCHEMA = "beacon-bench/1"

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def child_env() -> Dict[str, str]:
    """The parent's environment without any ``REPRO_*`` switch, with a fixed
    hash seed (so call counts repeat) and the in-tree simulator first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(name: str, seed: int, mode: str,
              deadline: Optional[float] = None) -> Dict[str, Any]:
    """Run one child to completion; its JSON, or an ``error`` record."""
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), name, str(seed), mode],
            env=child_env(), cwd=str(ROOT), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child killed at the {WORKLOAD_LIMIT_S} s "
                         "workload limit", "points": []}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}", "points": []}


def seed_key(name: str, seed: int) -> str:
    """Key of a seed in ``expected.json`` (``*`` for the unseeded campaign)."""
    return str(seed) if WORKLOADS[name].seeded else "*"


def load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    """Points attempted and failed across a run's children, with reasons."""

    def __init__(self, reference: Optional[Dict[str, str]]) -> None:
        self.reference = reference
        self.first: Dict[str, Optional[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str, points: int = 1) -> None:
        self.attempted += points
        self.failed += points
        self.problems.append(message)

    def add(self, out: Dict[str, Any]) -> bool:
        """Account one child; ``True`` if it finished without an error."""
        seen = set()
        for point in out.get("points", []):
            key, got = point["key"], point["digest"]
            seen.add(key)
            self.first.setdefault(key, got)
            want = self.reference.get(key) if self.reference else None
            if point["problem"]:
                self.fail(f"{key}: {point['problem']}")
            elif self.reference is not None and got != want:
                self.fail(f"{key}: digest {got} != expected {want}")
            elif got != self.first[key]:
                self.fail(f"{key}: digest {got} differs between passes")
            else:
                self.attempted += 1
        if out.get("error"):
            self.fail(out["error"].strip().splitlines()[-1])
            return False
        if self.reference is not None and out.get("mode") != "setup":
            missing = sorted(set(self.reference) - seen)
            if missing:
                self.fail(f"points missing: {missing}", len(missing))
        return True


def end_to_end(setups: List[Dict[str, Any]], passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics: medians over the run's children, host times
    rescaled by each child's measured speed."""
    return {
        "wall_s": statistics.median([p["wall_s"] * p["speed"] for p in passes]),
        "setup_s": statistics.median([c["setup_s"] * c["speed"] for c in setups + passes]),
        "events_per_s": statistics.median([
            p["events"] / ((p["wall_s"] - p["setup_s"]) * p["speed"])
            for p in passes]),
        "peak_rss_mb": statistics.median([p["rss_mb"] for p in passes]),
        "points": statistics.median_low([len(p["points"]) for p in passes]),
    }


def per_layer(passes: List[Dict[str, Any]], traced: Dict[str, Any],
              wall_s: float) -> Dict[str, float]:
    """Per-layer metrics: the traced pass's layer fold plus the counters of
    the untraced passes (all simulated counters repeat exactly)."""
    from layers import LAYERS, shares

    metrics: Dict[str, float] = {}
    folded = traced["layers"]
    share = shares(folded)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = folded[layer]["self_s"] * traced["speed"]
        metrics[f"{layer}.share"] = share[layer]
        metrics[f"{layer}.calls"] = folded[layer]["calls"]
    metrics.update(passes[0]["counters"])
    metrics["genomics.index_build_s"] = statistics.median([
        p["counters"]["genomics.index_build_s"] * p["speed"] for p in passes])
    metrics["core.driver_runs"] = traced["counters"]["core.driver_runs"]
    metrics["trace_overhead"] = traced["wall_s"] * traced["speed"] / wall_s
    return metrics


def measure(name: str, seed: int, seconds: Optional[float], trace: bool,
            expected: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload: set-up children and passes, or with ``trace`` one
    plain pass and one traced pass (which keeps a traced run short)."""
    workload = WORKLOADS[name]
    reference = expected.get(name, {}).get(seed_key(name, seed))
    tally = Tally(reference)
    deadline = time.perf_counter() + WORKLOAD_LIMIT_S
    setups = [] if trace else [
        run_child(name, seed, "setup", deadline) for _ in range(SETUP_CHILDREN)]
    passes = []
    began = time.perf_counter()
    while True:
        passes.append(run_child(name, seed, "pass", deadline))
        if trace or seconds is None or time.perf_counter() - began >= seconds:
            break
    traced = run_child(name, seed, "trace", deadline) if trace else None
    good_setups = [c for c in setups if tally.add(c)]
    good_passes = [p for p in passes if tally.add(p)]
    result: Dict[str, Any] = {
        "seed": seed if workload.seeded else None,
        "checked": "digest" if reference is not None else "invariants",
        "passes": len(passes),
    }
    if good_passes:
        result["end_to_end"] = end_to_end(good_setups, good_passes)
    if traced is not None and tally.add(traced) and good_passes:
        result["per_layer"] = per_layer(good_passes, traced,
                                        result["end_to_end"]["wall_s"])
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems,
                  correct=tally.failed == 0 and "end_to_end" in result,
                  children=setups + passes + ([traced] if traced else []))
    return result


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> Dict[str, Any]:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "loadavg": list(os.getloadavg()), "commit": git_commit()}


def parse_run(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (default 0; the campaign ignores it)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run passes until this many seconds are measured "
                             "(default: one pass)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run one plain and one cProfile pass "
                                             "and report the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full result here")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def compile_sources() -> None:
    """Check that the in-tree simulator imports, then compile its bytecode
    and the benchmark's, untimed, so that no child compiles (explicit
    compilation writes ``.pyc`` files even under PYTHONDONTWRITEBYTECODE,
    which children then read).  ImportError if ``src/repro`` is missing."""
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro resolves to {repro.__file__}, not the checkout")
    for directory in (SRC / "repro", BENCH):
        compileall.compile_dir(str(directory), quiet=1)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], load_json(MANIFEST))
    if argv[:1] == ["record"]:
        return record(argv[1:])
    args = parse_run(argv)
    try:
        compile_sources()
    except ImportError as exc:
        print(f"error: cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    manifest = load_json(MANIFEST)
    expected = load_json(EXPECTED)
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"schema": SCHEMA, "seed": args.seed, "trace": bool(args.trace),
              "seconds": args.seconds, "env": environment(), "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), expected)
        report["workloads"][name] = result
        print_result(name, result, manifest)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        section = "per_layer" if args.trace else "end_to_end"
        values = result.get(section, {})
        prefix = "" if len(names) == 1 else f"{name}."
        for spec in manifest[section]:
            if spec["name"] in values:
                summary["metrics"][prefix + spec["name"]] = {
                    "value": values[spec["name"]], "unit": spec["unit"]}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def print_result(name: str, result: Dict[str, Any], manifest: Dict[str, Any]) -> None:
    """Human-readable metrics of one workload, each with its unit."""
    print(f"{name}: seed={result['seed']} checked={result['checked']} "
          f"passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    for section in ("end_to_end", "per_layer"):
        values = result.get(section, {})
        for spec in manifest[section]:
            if spec["name"] in values:
                print(f"  {spec['name']:<32} {values[spec['name']]:>16.6g} {spec['unit']}")


def parse_seeds(text: str) -> List[int]:
    """``0-3,7`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(argv: List[str]) -> int:
    """Write ``expected.json``: one pass per (workload, seed), digests only.

    Run it on a commit whose outputs are trusted; every later run is
    checked against what it writes.
    """
    parser = argparse.ArgumentParser(prog="bench/run.py record")
    parser.add_argument("--seeds", type=parse_seeds, default=[0, 1],
                        help="seeds to record, e.g. 0-15 (default 0,1)")
    args = parser.parse_args(argv)
    compile_sources()
    expected: Dict[str, Dict[str, Dict[str, str]]] = {}
    for name, workload in WORKLOADS.items():
        for seed in (args.seeds if workload.seeded else [0]):
            out = run_child(name, seed, "pass")
            bad = [p for p in out["points"] if p["problem"]]
            if out["error"] or bad:
                print(f"error: {name} seed {seed}: {out['error'] or bad}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[seed_key(name, seed)] = {
                p["key"]: p["digest"] for p in out["points"]}
            print(f"{name} seed {seed_key(name, seed)}: {len(out['points'])} points",
                  flush=True)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
