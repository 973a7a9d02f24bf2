"""Recovery telemetry: the ``kernel.recovery.*`` counter family.

When the sharded kernel's supervision layer (:mod:`repro.sim.sharded`)
detects a failed shard worker and recovers — by relaunching the sharded
run or degrading to the single kernel — the recovery must be *loud*:
stamped into the run's metrics registry (so fleets can aggregate it
from ``metrics.json``) and, when tracing is on, onto its trace event
stream (entity ``supervisor``).  Either way the run's result holds a
live :class:`~repro.net.Cluster`, so one function,
:func:`stamp_recovery`, stamps both paths onto its registry and tracer.

All ``kernel.*`` series (including these) are execution-substrate
telemetry, not simulated behaviour: the perf-lock/behaviour walls strip
them, which is what lets a *recovered* run still compare byte-identical
to the single kernel.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["RECOVERY_COUNTERS", "SUPERVISOR_ENTITY", "stamp_recovery"]

#: every counter the supervision layer may stamp, in report order
RECOVERY_COUNTERS = (
    "kernel.recovery.worker_failures",   # labels: reason=, shard=
    "kernel.recovery.retries",           # sharded relaunches that ran
    "kernel.recovery.fallbacks",         # labels: reason= (degradations)
)

#: trace entity recovery points land on (stripped by behaviour diffs,
#: exactly like the ``kernel.*`` metric names)
SUPERVISOR_ENTITY = "supervisor"


def stamp_recovery(metrics, tracer, failures: Iterable[Any],
                   retries: int = 0,
                   fallback_reason: str | None = None) -> None:
    """Stamp a recovery onto a run's registry and tracer.

    ``failures`` are :class:`~repro.sim.sharded.ShardWorkerError`-shaped
    objects (``.reason`` and ``.shard`` attributes).  A disabled
    registry or tracer records nothing, as it does for every layer.
    """
    for f in failures:
        metrics.counter(
            "kernel.recovery.worker_failures",
            help="shard worker failures classified by the supervisor",
            reason=f.reason, shard=f.shard).inc()
        tracer.point(SUPERVISOR_ENTITY, "kernel.recovery", str(f))
    if retries:
        metrics.counter(
            "kernel.recovery.retries",
            help="sharded-run relaunches after a worker failure",
        ).inc(retries)
    if fallback_reason is not None:
        metrics.counter(
            "kernel.recovery.fallbacks",
            help="recoveries that degraded to the single kernel",
            reason=fallback_reason).inc()
