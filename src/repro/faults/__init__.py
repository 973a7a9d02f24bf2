"""repro.faults — deterministic fault injection for the NCS simulation.

Declare *what* goes wrong and *when* with a :class:`FaultPlan`, then arm
it against a built cluster with a :class:`FaultInjector`::

    from repro import NcsRuntime, ServiceMode, build_atm_cluster
    from repro.faults import FaultInjector, FaultPlan, LinkOutage

    cluster = build_atm_cluster(4, trace=True)
    rt = NcsRuntime(cluster, mode=ServiceMode.HSM, error="ack")
    plan = FaultPlan((LinkOutage(at=0.002, duration=0.01, host=2),))
    FaultInjector(cluster, plan, runtime=rt).arm()
    ...                      # create threads as usual
    rt.run()                 # error control retransmits across the outage

Everything is seed-reproducible: the same cluster seed, plan and
workload give a bit-identical event trace (:func:`trace_signature`),
which the chaos suite in ``tests/faults`` asserts across all three
service modes.
"""

from .injector import FaultInjector, trace_signature
from .plan import (
    BerSpike, FaultEvent, FaultPlan, HostCrash, LinkOutage, MessageLoss,
    Partition, SwitchPortStall,
)

__all__ = [
    "FaultInjector", "trace_signature",
    "BerSpike", "FaultEvent", "FaultPlan", "HostCrash", "LinkOutage",
    "MessageLoss", "Partition", "SwitchPortStall",
]
