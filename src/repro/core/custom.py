"""Extension to other applications (Section V).

The paper notes BEACON "can be easily extended as a practical,
cost-effective, and scalable accelerator for other memory-bound
applications, such as image processing, graph processing, and database
searching, by replacing the PEs within the NDP module".  This module is
that extension point: a :class:`CustomApplication` describes a new
fixed-function engine (name + compute latency) and produces tasks from a
user-supplied step generator, which the unchanged NDP machinery executes
against regions the user allocates through the memory-management framework.

Example — an in-memory database index probe accelerator::

    app = CustomApplication(name="db_probe", compute_cycles=24)
    region = system.allocate_custom_region(
        "btree", size_bytes=1 << 20, spatially_local=False)
    tasks = [app.task(probe_steps(region, key)) for key in keys]
    report = system.run_custom(app, tasks)

See ``examples/database_search.py`` for a complete runnable scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.config import Algorithm
from repro.core.task import ComputeStep, MemStep, Step, Task


@dataclass(frozen=True)
class CustomApplication:
    """A replacement PE: fixed-function engine for a new application."""

    name: str
    #: The engine's per-operation latency in DRAM cycles (what Design
    #: Compiler synthesis would report for the new fixed-function block).
    compute_cycles: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("application needs a name")
        if self.compute_cycles < 0:
            raise ValueError("compute_cycles must be non-negative")

    def task(self, steps: Iterator[Step], payload_bytes: int = 32) -> Task:
        """Wrap a user step generator in a schedulable task.

        Custom tasks are accounted under the GENERIC algorithm bucket; the
        step generator decides the memory behaviour, exactly as the
        built-in engines do.
        """
        return Task(
            algorithm=Algorithm.CUSTOM,
            steps=steps,
            payload_bytes=payload_bytes,
        )

    def compute(self) -> ComputeStep:
        """One engine operation."""
        return ComputeStep(self.compute_cycles)


def probe_steps(app: CustomApplication, addresses, region_base: int,
                access_bytes: int = 8) -> Iterator[Step]:
    """Generic dependent-pointer-chase step generator.

    Walks ``addresses`` (region-local offsets) one at a time with an engine
    operation between accesses — the access pattern of index traversals in
    database searching (Kocberber et al., the paper's citation [40]).
    """
    from repro.core.task import AccessSpec
    from repro.dram.request import DataClass

    compute = app.compute()
    for offset in addresses:
        yield compute
        yield MemStep([
            AccessSpec(addr=region_base + offset, size=access_bytes,
                       data_class=DataClass.GENERIC)
        ])
