"""Deterministic merges of per-shard results into the coordinator's run.

A worker ships what it observed — its driver value, its metrics
registry and its trace records — in a picklable payload
(:func:`shard_payload`).  The coordinator writes the merge into the
cluster and runtime the workers were forked from (:func:`merged_result`):
its registry takes every series from the shard that owns it, its tracer
every record, its clock the protocol's final instant, so a sharded
:class:`~repro.config.build.ScenarioResult` carries a real
:class:`~repro.net.Cluster` and :class:`~repro.core.api.NcsRuntime`,
as the single kernel's does.
"""

from __future__ import annotations

import math
from typing import Optional

from ...config.build import ScenarioResult, ScenarioRun, _export_obs
from ...obs.recovery import stamp_recovery
from ...obs.registry import Histogram
from .plan import ShardPlan

__all__ = ["UNMERGEABLE_DRIVERS", "shard_payload", "merged_result"]


def _owner(name: str, labels: dict, plan: ShardPlan) -> Optional[int]:
    """The shard whose copy of a series is the run's, or ``None`` when
    no shard owns it alone."""
    if "pid" in labels:
        return plan.pid_shard.get(int(labels["pid"]), 0)
    if "host" in labels:
        return plan.host_shard.get(labels["host"], 0)
    if "switch" in labels:
        return plan.switch_shard.get(labels["switch"], 0)
    if "link" in labels:
        return plan.channel_shard.get(labels["link"], 0)
    if name.startswith("faults."):
        return 0
    return None


def merge_metrics(registries: list, plan: ShardPlan, into) -> None:
    """Fill the registry ``into`` with the run's series.

    Each series is the instrument of the shard that owns its labeled
    entity (pid, host, switch or link); ``faults.*`` come from shard 0
    (fault timers fire identically everywhere).  Unlabeled ``sim.*``
    meters are summed (each worker counts its own calendar).  Any other
    unlabeled series is published by every shard but moved only by the
    one that runs its entity, so the largest value wins — which is why
    every per-entity series carries its owner as a label.  A histogram
    without an owner comes from shard 0.
    """
    def pick(name: str, labels: dict, copies: list):
        present = [c for c in copies if c is not None]
        owner = _owner(name, labels, plan)
        if owner is None and isinstance(present[0], Histogram):
            owner = 0
        if owner is not None:
            return copies[owner] or present[0]
        if name.startswith("sim."):
            present[0].inc(sum(c.value for c in present[1:]))
            return present[0]
        return max(present, key=lambda c: c.value)
    into.merge(registries, pick)


def entity_shard(entity: str, plan: ShardPlan) -> int:
    """Which shard's tracer records are authoritative for ``entity``."""
    if entity.startswith("fault:"):
        return 0
    if ":" in entity:
        kind, _, rest = entity.partition(":")
        if kind == "nic":
            return plan.host_shard.get(rest, 0)
        if kind in ("ncs", "ec", "detector", "failover") and rest.isdigit():
            return plan.pid_shard.get(int(rest), 0)
        if kind == "resilience":
            return plan.pid_shard.get(0, 0)          # coordinator home
        return 0
    host = entity.split("/", 1)[0]
    if host in plan.host_shard:
        return plan.host_shard[host]
    return plan.switch_shard.get(host, 0)


def merge_traces(traces: list, plan: ShardPlan, into) -> None:
    """Fill the tracer ``into`` with an owner-filtered union of the
    shards' timelines (sorted by entity) and their events in shard order.

    ``repro.obs.export.iter_records`` stable-sorts records by
    ``(t, kind, entity)``, so as long as each entity's records come
    from exactly one shard (preserving that shard's per-entity order)
    the exported Chrome trace is identical to the single-kernel one.
    """
    timelines: dict = {}
    events: list[tuple] = []
    for s, (shard_timelines, shard_events) in enumerate(traces):
        timelines.update((entity, tl) for entity, tl in shard_timelines.items()
                         if entity_shard(entity, plan) == s)
        events.extend(ev for ev in shard_events
                      if entity_shard(ev[1], plan) == s)
    into.timelines = {e: timelines[e] for e in sorted(timelines)}
    into.events = events


#: drivers whose return value folds cross-pid state into scalars
#: locally (``collective``'s ok-flags, ``stream``'s mean latency), so no
#: merge of per-shard values can rebuild it: the sharded kernel runs
#: them on the single kernel instead
UNMERGEABLE_DRIVERS = frozenset({"collective", "stream"})


def merge_values(values: list):
    """Merge per-shard driver return values into the single-kernel one.

    Rules: equal values pass through; dicts merge per key; lists keep
    the longest variant (a per-pid accumulator stays empty where the
    pid does not run); unequal numbers keep the max (counts only grow
    where the pid runs); ``None`` defers to any other value.  The
    :data:`UNMERGEABLE_DRIVERS` are outside this contract.
    """
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    head = vals[0]
    try:
        if all(bool(v == head) for v in vals[1:]):
            return head
    except Exception:
        pass
    if all(isinstance(v, dict) for v in vals):
        return {k: merge_values([v.get(k) for v in vals]) for k in head}
    if all(isinstance(v, list) for v in vals):
        return max(vals, key=len)
    if all(isinstance(v, (int, float)) for v in vals):
        return max(vals)
    return head


def shard_payload(value, cluster) -> dict:
    """A worker's contribution: its driver value, registry, trace
    records and clock, all picklable."""
    tracer = cluster.tracer
    return {"value": value, "metrics": cluster.metrics,
            "trace": (tracer.timelines, tracer.events),
            "now": cluster.sim.now}


def merged_result(run: ScenarioRun, plan: ShardPlan, payloads: list[dict],
                  failures=(), retries: int = 0) -> ScenarioResult:
    """The one :class:`ScenarioResult` of a sharded run: ``run``'s own
    cluster and runtime, holding the merge, with the plan choice (and
    any recovery) stamped on its ``kernel.*`` series, which the
    behaviour walls strip."""
    cluster = run.cluster
    metrics, tracer = cluster.metrics, cluster.tracer
    merge_metrics([p["metrics"] for p in payloads], plan, metrics)
    merge_traces([p["trace"] for p in payloads], plan, tracer)
    metrics.gauge("kernel.shards",
                  help="shard workers the plan runs").set(plan.n_shards)
    if math.isfinite(plan.lookahead):
        metrics.gauge("kernel.lookahead_s",
                      help="smallest cut propagation delay",
                      ).set(plan.lookahead)
    for s, load in enumerate(plan.shard_loads):
        metrics.gauge("kernel.shard_load", help="planned event weight",
                      shard=s).set(load)
    # the run *recovered*: say so at t = 0, before the clock moves
    stamp_recovery(metrics, tracer, failures, retries=retries)
    cluster.sim._now = payloads[0]["now"]
    result = ScenarioResult(run.spec,
                            merge_values([p["value"] for p in payloads]),
                            cluster, run.runtime)
    _export_obs(result)
    return result
