"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: an event engine with integer cycle
timestamps (:class:`~repro.sim.engine.Engine`), a base class for named
components (:class:`~repro.sim.component.Component`), and a statistics tree
(:mod:`repro.sim.stats`).

All timing in the repository is expressed in DRAM clock cycles of the
DDR4-1600 devices from Table I of the paper (tCK = 1.25 ns), so one engine
tick equals one DRAM cycle.
"""

from repro.sim.component import Component
from repro.sim.engine import Engine, SimulationError
from repro.sim.scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULER_ENV,
    SCHEDULERS,
    CalendarScheduler,
    EventHandle,
    HeapScheduler,
    Scheduler,
    create_scheduler,
)
from repro.sim.stats import StatScope

__all__ = [
    "CalendarScheduler",
    "Component",
    "DEFAULT_SCHEDULER",
    "Engine",
    "EventHandle",
    "HeapScheduler",
    "SCHEDULERS",
    "SCHEDULER_ENV",
    "Scheduler",
    "SimulationError",
    "StatScope",
    "create_scheduler",
]
