"""Discrete-event simulation substrate (kernel, resources, tracing, RNG)."""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    KernelCore,
    PENDING,
    SimProcess,
    SimulationError,
    Simulator,
    Timeout,
    check_param,
    check_size,
)
from .resources import Mailbox, Resource, Store
from .rng import RngRegistry
from .trace import Activity, Interval, NullTracer, Timeline, Tracer

__all__ = [
    "AllOf", "AnyOf", "Event", "Interrupt", "KernelCore", "PENDING",
    "SimProcess", "SimulationError", "Simulator", "Timeout", "check_param",
    "check_size", "Mailbox", "Resource", "Store",
    "RngRegistry",
    "Activity", "Interval", "NullTracer", "Timeline", "Tracer",
]
