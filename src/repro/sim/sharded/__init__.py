"""Sharded conservative parallel simulation kernel.

``runtime.kernel = "sharded"`` partitions a spec-built cluster across
forked worker processes — one :class:`~repro.sim.KernelCore` calendar
per host group — and synchronizes them with the classic conservative
window scheme, using cross-shard link propagation delay as lookahead.
The output is held byte-identical to the single kernel's.

The package follows the run's seams:

* :mod:`.plan` — which shard owns each pid, host, switch and channel,
  computed once on the built cluster;
* :mod:`.worker` — one shard: forked off the coordinator's built,
  never-run cluster and runtime, it starts only the pids it owns and
  runs the app driver unchanged, with
  :meth:`NcsRuntime.advance <repro.core.api.NcsRuntime.advance>`
  replaced by the window protocol, so every check ``rt.run()`` makes
  at the end is the single kernel's;
* :mod:`.protocol` — cross-shard events, their merge order and the
  coordinator's window barrier;
* :mod:`.supervise` — bounded wall-clock waits that classify a
  crashed, hung or poisoned worker as :class:`ShardWorkerError`;
* :mod:`.merge` — per-shard metrics, traces and driver values merged
  into the coordinator's own cluster, whose registry, tracer, clock and
  runtime the :class:`~repro.config.build.ScenarioResult` carries, as
  on the single kernel;
* this module — the registered ``sharded`` kernel: plan, fork, run the
  protocol, merge.

Every worker holds the whole cluster, but only the owned pids'
schedulers run, so a foreign host, its adapter and its switch stay
idle: the only traffic that crosses into another shard's part is a
burst on a cut channel, which the worker exports instead of delivering.
The merge takes every series and trace record from the shard that owns
its entity.  Virtual circuits are established on first use in each
worker that meets them — a sender's, or one that imports a burst — and
agree bit for bit because a circuit's id and labels are a pure function
of ``(src, dst, service)`` (:mod:`repro.atm.signaling`).  Every worker
arms the whole fault plan at the same instants, so shard 0 holds the
complete ``faults.*`` / ``fault:<i>`` record.

Constraints: a shard cut must be a switch-to-switch WAN trunk — host
TAXI links share a BER rng across both directions and a host can never
be split from its own adapter/switch, so plans that would cut one raise
:class:`~repro.config.spec.SpecError`.  Drivers must drive the
spec-built runtime (``rt.run()``).  The drivers that do not, or whose
value no merge can rebuild
(:data:`~repro.sim.sharded.merge.UNMERGEABLE_DRIVERS`), run on the
single kernel instead, with a :class:`ShardFallbackWarning`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import warnings

from ...config.build import ScenarioResult, ScenarioRun
from ...config.spec import ScenarioSpec, SpecError
from ...registry import APP_DRIVERS, KERNELS
from .merge import UNMERGEABLE_DRIVERS, merged_result
from .plan import ShardPlan, plan_for, plan_shards
from .protocol import (CutEvent, coordinate, merge_cut_events, merge_key,
                       next_window)
from .supervise import ShardWorkerError, Supervisor
from .worker import run_worker

__all__ = [
    "CutEvent", "ShardPlan", "ShardFallbackWarning", "ShardWorkerError",
    "plan_shards", "merge_key", "merge_cut_events", "next_window",
    "run_scenario_sharded",
]

logger = logging.getLogger(__name__)


class ShardFallbackWarning(UserWarning):
    """``runtime.shards > 1`` degraded to the single kernel."""


def launch(run: ScenarioRun, plan: ShardPlan) -> Supervisor:
    """Fork one worker per shard off ``run``'s never-run cluster; the
    coordinator keeps a control pipe to each, under a fresh
    :class:`Supervisor`."""
    ctx = multiprocessing.get_context("fork")
    ctls, workers = [], []
    for s in range(plan.n_shards):
        parent_conn, child_conn = ctx.Pipe()
        ctls.append(parent_conn)
        workers.append(ctx.Process(
            target=run_worker, args=(run, plan, s, child_conn),
            name=f"shard-{s}"))
    for p in workers:
        p.start()
    return Supervisor(ctls, workers)


def _fallback_single(spec: ScenarioSpec, reason: str,
                     detail: str) -> ScenarioResult:
    """Run the single kernel — loudly when ``shards > 1`` degrades.

    ``reason`` is a short slug (``"trivial-plan"``,
    ``"unmergeable-driver"``, ``"no-fork"``) stamped as the ``reason=``
    label on the ``kernel.shard_fallback`` counter; ``detail`` is the
    human sentence for the warning.
    """
    degraded = spec.shards > 1
    if degraded:
        warnings.warn(ShardFallbackWarning(
            f"scenario {spec.name!r}: runtime.shards = {spec.shards} "
            f"falls back to the single kernel [{reason}]: {detail}"),
            stacklevel=3)
        logger.info("scenario %r: shard fallback [%s]: %s",
                    spec.name, reason, detail)
    result = KERNELS.get("single")(spec)
    if degraded and result.cluster is not None:
        result.cluster.metrics.counter(
            "kernel.shard_fallback",
            help="sharded-kernel runs degraded to the single kernel",
            reason=reason).inc()
    return result


@KERNELS.register(
    "sharded",
    help="conservative parallel kernel: one worker universe per host group")
def run_scenario_sharded(spec: ScenarioSpec) -> ScenarioResult:
    """Execute ``spec`` across forked shard workers and merge their
    results into the coordinator's cluster.

    When the plan collapses to one shard, or the platform cannot fork,
    the registered ``single`` kernel runs instead, bit-identically
    (with a :class:`ShardFallbackWarning` if the spec asked for more).

    Every wait on a worker is bounded: a crash, hang or poisoned
    channel is classified into :class:`ShardWorkerError`, which is
    raised once every worker is torn down.  A run is a pure function of
    (spec, seed), so nothing here runs it again.

    The coordinator builds the whole cluster and the spec's runtime
    once, plans on the cluster, and forks every worker off them, never
    running them.  :data:`UNMERGEABLE_DRIVERS` run on the single
    kernel.
    """
    if spec.app is None:
        raise SpecError(
            f"scenario {spec.name!r} has no [app] table; nothing to run "
            "(specs without an app can still be built via build_runtime)")
    APP_DRIVERS.get(spec.app.driver)          # fail fast on unknown names
    run = ScenarioRun(spec)
    plan = plan_for(spec, run.cluster)
    if plan.n_shards <= 1:
        return _fallback_single(
            spec, "trivial-plan",
            "the topology collapses to one shard (a shared LAN "
            "medium, no ATM fabric, or a single host group)")
    if spec.app.driver in UNMERGEABLE_DRIVERS:
        return _fallback_single(
            spec, "unmergeable-driver",
            f"driver {spec.app.driver!r} folds cross-pid state into its "
            "value, which no merge of per-shard values can rebuild")
    if not hasattr(os, "fork"):
        return _fallback_single(
            spec, "no-fork", "shard workers are forked processes and "
            "this platform cannot fork")
    logger.info(
        "scenario %r: %d shard(s), lookahead %.6gs, loads %s",
        spec.name, plan.n_shards, plan.lookahead,
        [round(w, 3) for w in plan.shard_loads])
    run.runtime                   # built once; every worker forks off it
    sup = launch(run, plan)
    try:
        payloads = coordinate(sup, plan)
    finally:
        sup.shutdown()
    return merged_result(run, plan, payloads)
