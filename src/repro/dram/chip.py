"""Per-chip access accounting.

Fig. 13 of the paper plots normalized memory access per DRAM chip with and
without multi-chip coalescing; :class:`ChipAccessCounters` collects exactly
that data while the controller serves requests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dram.timing import DimmGeometry


class ChipAccessCounters:
    """Burst counters per (rank, chip) of one DIMM."""

    def __init__(self, geometry: DimmGeometry) -> None:
        self.geometry = geometry
        self._chips_per_rank = geometry.chips_per_rank
        # Bursts per accessed group, keyed by (flat first chip, width): the
        # controller credits one group per issued request (inline, as
        # ``record`` does), so recording is one dict update however wide
        # the group; per-chip counts are expanded only when read.
        self.group_bursts: Dict[Tuple[int, int], int] = {}

    def record(self, rank: int, chip_group: int, chips_per_group: int, bursts: int) -> None:
        """Credit ``bursts`` bursts to every chip in the accessed group."""
        key = (rank * self._chips_per_rank + chip_group * chips_per_group,
               chips_per_group)
        totals = self.group_bursts
        totals[key] = totals.get(key, 0) + bursts

    @property
    def bursts(self) -> List[int]:
        """Total bursts per (rank, chip), flat."""
        counts = [0] * (self.geometry.ranks * self._chips_per_rank)
        for (first, width), total in self.group_bursts.items():
            for index in range(first, first + width):
                counts[index] += total
        return counts

    def per_chip(self) -> List[int]:
        """Total bursts per chip position, summed over ranks."""
        chips = self._chips_per_rank
        totals = [0] * chips
        for index, value in enumerate(self.bursts):
            totals[index % chips] += value
        return totals

    def normalized(self) -> List[float]:
        """Per-chip bursts normalized to the mean (the Fig. 13 series).

        Float arithmetic is deliberate here and in :meth:`imbalance`: these
        are post-run *statistics over burst counts* (a normalized series and
        a coefficient of variation), not cycle timing — nothing downstream
        schedules events from them, so integer cycle arithmetic does not
        apply.
        """
        totals = np.asarray(self.per_chip(), dtype=np.float64)
        mean = totals.mean()
        if mean == 0:
            return [0.0] * len(totals)
        return [float(v) for v in totals / mean]

    def imbalance(self) -> float:
        """Coefficient of variation across chips (0 == perfectly balanced)."""
        totals = np.asarray(self.per_chip(), dtype=np.float64)
        mean = totals.mean()
        if mean == 0:
            return 0.0
        return float(totals.std() / mean)
