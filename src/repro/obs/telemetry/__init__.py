"""Fleet telemetry: run ledger and progress line.

``repro.obs.telemetry`` is the *orchestration-layer* counterpart of the
per-run tracing stack (``repro.obs.recorder`` / ``repro.obs.profile``).
Tracing answers "where did the cycles of one simulation go?"; telemetry
answers "what is the fleet doing?" — which sweep jobs ran where, how
long they took, what the caches did — and it is the surface every later
serving/distributed layer (simulation as a service, resumable sweeps)
emits into.

Two pieces, both stdlib-only and deliberately host-side:

* :mod:`~repro.obs.telemetry.ledger` — the append-only JSONL **run
  ledger**: one lifecycle event per line (``queued`` / ``started`` /
  ``heartbeat`` / ``finished`` / ``failed``, drawn from the closed
  :data:`LEDGER_EVENTS` registry) with wall time, worker id, parameter
  digest, index-cache deltas, and the full-result digest.  Any
  campaign is reconstructable from its ledger, and a resumable-sweep
  layer can diff the ledger against the job list.
* :mod:`~repro.obs.telemetry.progress` — an opt-in, stderr-only
  in-terminal progress line for ``run`` / ``bench``.  Like the tracing
  layer it is purely observational: it never touches simulated state,
  and ``python -m repro bench`` proves full-result digests are
  bit-identical with it (and the ledger) enabled.

Everything here reads the wall clock on purpose — job timing *is* the
payload — which is why the ``no-wall-clock`` lint excludes this package;
nothing in it can reach simulated state (see docs/OBSERVABILITY.md,
"Fleet telemetry").
"""

from repro.obs.telemetry.ledger import (
    LEDGER_EVENTS,
    LEDGER_SCHEMA,
    LedgerError,
    LedgerSummary,
    LedgerWriter,
    param_digest,
    read_ledger,
    render_status,
    summarize_ledger,
    traceback_digest,
    worker_id,
)
from repro.obs.telemetry.progress import ProgressLine

__all__ = [
    "LEDGER_EVENTS",
    "LEDGER_SCHEMA",
    "LedgerError",
    "LedgerSummary",
    "LedgerWriter",
    "ProgressLine",
    "param_digest",
    "read_ledger",
    "render_status",
    "summarize_ledger",
    "traceback_digest",
    "worker_id",
]
