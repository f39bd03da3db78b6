"""Opt-in, stderr-only live progress line for sweeps and benches.

A :class:`ProgressLine` rewrites a single terminal line (carriage
return, no newline until :meth:`close`) as sweep jobs complete::

    [progress] 12/40 jobs  1 failed  3.4 jobs/s  eta 8.2s  last fig12/d2 (0.41s)

It is deliberately the dumbest possible implementation — no threads, no
timers, no escape codes beyond ``\\r`` — and it writes **only** to the
stream it was given (stderr by default), never to stdout, so paper-style
row output and payload-run determinism contracts are untouched.  Nothing
here reads or writes simulator state; ``python -m repro bench`` proves
full-result digests are bit-identical with the progress line enabled.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


class ProgressLine:
    """One in-place terminal progress line over ``total`` jobs.

    Parameters
    ----------
    total:
        Number of jobs in the batch (for the ``k/n`` and ETA fields).
    stream:
        Where to write; defaults to ``sys.stderr``.  Pass any text IO in
        tests.
    enabled:
        ``False`` turns every method into a no-op, so call sites can
        construct one unconditionally and let a flag decide.
    """

    def __init__(self, total: int, stream: Optional[IO[str]] = None,
                 enabled: bool = True) -> None:
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self.failed = 0
        self._started = time.time()
        self._last_width = 0

    def update(self, key: str, wall_s: float, failed: bool = False) -> None:
        """Record one completed job and redraw the line."""
        self.done += 1
        if failed:
            self.failed += 1
        if not self.enabled:
            return
        elapsed = max(time.time() - self._started, 1e-9)
        rate = self.done / elapsed
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else 0.0
        text = (
            f"[progress] {self.done}/{self.total} jobs"
            + (f"  {self.failed} failed" if self.failed else "")
            + f"  {rate:.2f} jobs/s  eta {eta:.1f}s"
            + f"  last {key} ({wall_s:.2f}s)"
        )
        pad = max(0, self._last_width - len(text))
        self.stream.write("\r" + text + " " * pad)
        self.stream.flush()
        self._last_width = len(text)

    def close(self) -> None:
        """Finish the line (newline) if anything was drawn."""
        if self.enabled and self._last_width:
            self.stream.write("\n")
            self.stream.flush()
            self._last_width = 0
