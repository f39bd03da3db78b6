# Developer entry points.  Everything runs from the repo root with the
# in-tree sources (PYTHONPATH=src) so no install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test bench-quick bench lint

## Tier-1: the full unit/integration/property suite.
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

## Result verifier at quick scale: runs every figure on the production
## path and on the serial/uncached/heap reference path with every
## observer on, fails on any digest mismatch, and rewrites the
## deterministic BENCH_results.json (any git diff = a changed output).
## Host time is measured by `python3 bench/run.py`.
bench-quick:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro bench

## The full pytest-benchmark evaluation (minutes; needs pytest-benchmark).
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only

## Static sanity: byte-compile everything, then the simulator-aware
## static-analysis pass (determinism lints: wall clock, RNG seeds,
## set and id() order, and their transitive taint; stdlib-only, see
## docs/ANALYSIS.md).  PYTHONHASHSEED=random
## proves the lint pass itself is hash-seed-independent.
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	PYTHONHASHSEED=random PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro lint
