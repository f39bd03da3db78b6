"""Live metric sampling: periodic StatScope snapshots along the timeline.

The ``StatScope`` counters at the end of a run say *what* it cost;
:class:`MetricsSampler` answers *when*, by snapshotting the statistics
tree at a configurable simulated-time interval while the run is in
flight.

The sampler is deliberately **passive**: it never schedules engine events.
Scheduling a periodic poller event would extend ``Engine.run()`` (the
queue would drain later) and could advance the final clock past the last
real event — breaking the bit-identical guarantee the whole observability
layer is built on.  Instead the sampler piggybacks on the trace recorder:
every record call passes the current cycle through
:meth:`MetricsSampler.maybe_sample`, which snapshots once per elapsed
interval.  Sample times therefore land on traced-event timestamps, which
in practice are dense enough for any live-metrics view, and simulated
results cannot be perturbed by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Dict, Iterable, List, Optional, Union

from repro.schemas import SCHEMAS

#: Version tag of the per-interval samples artifact (:meth:`MetricsSampler.to_json`).
METRICS_SAMPLES_SCHEMA = SCHEMAS["metrics-samples"]


@dataclass(frozen=True)
class MetricsSample:
    """One sampled counter value: where, when, what."""

    cycle: int
    pid: int
    path: str
    key: str
    value: float


class MetricsSampler:
    """Snapshots registered StatScope trees every ``interval_cycles``.

    Parameters
    ----------
    interval_cycles:
        Minimum simulated cycles between snapshots of one engine's tree.
    keys:
        Counter names to sample; ``None`` samples every counter present.
    """

    def __init__(
        self,
        interval_cycles: int,
        keys: Optional[Iterable[str]] = None,
    ) -> None:
        if interval_cycles <= 0:
            raise ValueError("interval_cycles must be positive")
        self.interval_cycles = int(interval_cycles)
        self.keys = frozenset(keys) if keys is not None else None
        self.samples: List[MetricsSample] = []
        self._next_at: Dict[int, int] = {}

    def maybe_sample(self, recorder, pid: int, cycle: int) -> None:
        """Snapshot ``pid``'s scope tree if its interval has elapsed.

        Called by :class:`~repro.obs.recorder.TraceRecorder` on every
        record; cheap when the interval has not passed (one dict lookup
        and a comparison).
        """
        if cycle < self._next_at.get(pid, 0):
            return
        # Align the next deadline to the interval grid so burst-y record
        # activity cannot drift the sampling cadence.
        self._next_at[pid] = (
            cycle - cycle % self.interval_cycles + self.interval_cycles
        )
        for scope_pid, scope in recorder.root_scopes:
            if scope_pid != pid:
                continue
            for node in scope.walk():
                for key, value in node.counters.items():
                    if self.keys is not None and key not in self.keys:
                        continue
                    self.samples.append(
                        MetricsSample(cycle, pid, node.path, key, value)
                    )

    @property
    def sample_count(self) -> int:
        """Number of individual (path, key) samples taken."""
        return len(self.samples)

    def rows(self) -> List[List[Union[int, str, float]]]:
        """Every sample as a flat ``[cycle, pid, path, key, value]`` row.

        This is the **single source of row order** for every export:
        samples appear exactly as taken (snapshot order along the
        timeline), so the CSV and JSON forms of one sampler are
        row-for-row identical.
        """
        return [[s.cycle, s.pid, s.path, s.key, s.value]
                for s in self.samples]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The samples as a JSON document (``repro-metrics-samples/1``).

        Shares :meth:`rows` with :func:`write_metrics_csv`, so the JSON
        ``rows`` array carries the same values in the same order as the
        CSV body; ``columns`` names them.
        """
        import json

        return json.dumps(
            {
                "schema": METRICS_SAMPLES_SCHEMA,
                "columns": list(METRICS_COLUMNS),
                "interval_cycles": self.interval_cycles,
                "rows": self.rows(),
            },
            indent=indent, sort_keys=True,
        )


#: Export column order, shared by the CSV header and the JSON ``columns``.
METRICS_COLUMNS = ("cycle", "pid", "path", "key", "value")


def write_metrics_csv(
    sampler: MetricsSampler, destination: Union[str, IO[str]]
) -> int:
    """Write a sampler's rows as flat CSV; returns the row count.

    Columns: ``cycle, pid, path, key, value`` — one row per sampled
    counter per snapshot, trivially loadable with pandas or a
    spreadsheet.  Rows come from :meth:`MetricsSampler.rows`, the same
    source :meth:`MetricsSampler.to_json` exports, so the two formats
    always agree.
    """
    def _write(handle: IO[str]) -> int:
        writer = csv.writer(handle)
        writer.writerow(list(METRICS_COLUMNS))
        rows = sampler.rows()
        writer.writerows(rows)
        return len(rows)

    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            return _write(handle)
    return _write(destination)


def write_metrics_json(
    sampler: MetricsSampler, destination: Union[str, IO[str]]
) -> int:
    """Write :meth:`MetricsSampler.to_json` to a file; returns row count."""
    text = sampler.to_json()
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        destination.write(text + "\n")
    return sampler.sample_count
