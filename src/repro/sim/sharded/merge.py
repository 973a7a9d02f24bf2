"""Deterministic merges of per-shard results into one single-kernel view.

A worker flattens what it observed into a picklable payload
(:func:`shard_payload`); the coordinator merges the payloads — metrics
and traces by owning shard, driver values by owner-wins rules — into a
:class:`~repro.config.build.ScenarioResult` whose cluster is a
:class:`ShardedClusterView` (:func:`merged_result`).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Any, Optional

from ...config.build import ScenarioResult, _export_obs
from ...obs.recovery import SUPERVISOR_ENTITY, stamp_recovery_snapshot
from ..trace import Activity, Interval, Timeline
from .plan import ShardPlan

__all__ = ["MergedMetrics", "MergedTracer", "ShardedClusterView",
           "UNMERGEABLE_DRIVERS", "shard_payload", "merged_result"]


def _parse_labels(label_str: str) -> dict[str, str]:
    if not label_str:
        return {}
    return dict(kv.split("=", 1) for kv in label_str.split(","))


def _merge_leaf(name: str, label_str: str, snaps: list[dict],
                plan: ShardPlan):
    """One metric series, resolved to its owning shard (or summed)."""
    labels = _parse_labels(label_str)
    if "pid" in labels:
        owner = plan.pid_shard.get(int(labels["pid"]), 0)
    elif "host" in labels:
        owner = plan.host_shard.get(labels["host"], 0)
    elif "switch" in labels:
        owner = plan.switch_shard.get(labels["switch"], 0)
    elif "link" in labels:
        owner = plan.channel_shard.get(labels["link"], 0)
    elif name.startswith("sim."):
        vals = [s.get(name, {}).get(label_str, 0) for s in snaps]
        if all(isinstance(v, (int, float)) for v in vals):
            return sum(vals)
        owner = 0
    elif name.startswith("faults."):
        owner = 0
    else:
        # no owner label: every shard publishes the series, but only the
        # shard that runs the entity moves it, so take the largest value
        # — which is why every per-entity series carries its owner (pid,
        # host, switch or link) as a label
        vals = [s[name][label_str] for s in snaps
                if label_str in s.get(name, {})]
        if vals and all(isinstance(v, (int, float)) for v in vals):
            return max(vals)
        owner = 0
    present = [s for s in snaps if label_str in s.get(name, {})]
    base = present[0][name][label_str] if present else 0
    return snaps[owner].get(name, {}).get(label_str, base)


def merge_snapshots(snaps: list[dict], plan: ShardPlan) -> dict:
    """Rebuild the single-kernel metric snapshot from per-shard views.

    Each series is taken wholesale from the shard that owns its labeled
    entity; the merged snapshot is the union across shards in first-seen
    order.  Unlabeled
    ``sim.*`` meters are summed (each worker counts its own calendar),
    ``faults.*`` come from shard 0 (fault timers fire identically
    everywhere).
    """
    out: dict[str, dict[str, Any]] = {}
    for snap in snaps:
        for name, series in snap.items():
            dst = out.setdefault(name, {})
            for label_str in series:
                if label_str not in dst:
                    dst[label_str] = _merge_leaf(name, label_str, snaps,
                                                 plan)
    return out


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


def merge_traces(traces: list[dict], plan: ShardPlan):
    """Owner-filtered union of timelines + shard-ordered event concat.

    ``repro.obs.export.iter_records`` stable-sorts records by
    ``(t, kind, entity)``, so as long as each entity's records come
    from exactly one shard (preserving that shard's per-entity order)
    the exported Chrome trace is identical to the single-kernel one.
    """
    timelines: dict[str, Timeline] = {}
    events: list[tuple] = []
    for s, tr in enumerate(traces):
        for entity, rows in tr["timelines"].items():
            if entity_shard(entity, plan) == s:
                tl = Timeline(entity)
                tl.intervals = [Interval(a, b, Activity(act), lab)
                                for a, b, act, lab in rows]
                timelines[entity] = tl
        events.extend(ev for ev in tr["events"]
                      if entity_shard(ev[1], plan) == s)
    return {e: timelines[e] for e in sorted(timelines)}, events


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


class MergedMetrics:
    """A read-only :class:`~repro.obs.registry.MetricsRegistry` facade
    over the merged snapshot (enough surface for exports, fleet KPI
    extraction and ``repro.run``'s summaries)."""

    def __init__(self, snapshot: dict, enabled: bool = True):
        self._snapshot = snapshot
        self.enabled = enabled

    def snapshot(self) -> dict:
        return self._snapshot

    def total(self, name: str):
        total = 0
        for leaf in self._snapshot.get(name, {}).values():
            if isinstance(leaf, (int, float)):
                total += leaf
            elif isinstance(leaf, dict):
                total += leaf.get("sum", 0)
        return total

    def value(self, name: str, default=0, **labels):
        key = ",".join(f"{k}={v}" for k, v in
                       sorted((k, str(v)) for k, v in labels.items()))
        return self._snapshot.get(name, {}).get(key, default)

    def label_values(self, name: str, label: str) -> dict:
        out: dict = {}
        for key, leaf in self._snapshot.get(name, {}).items():
            for k, _, v in (part.partition("=") for part in key.split(",")):
                if k == label:
                    out[v] = out.get(v, 0) + leaf
        return dict(sorted(out.items()))


class MergedTracer:
    """A :class:`~repro.sim.Tracer` facade over merged shard traces."""

    def __init__(self, timelines: dict[str, Timeline], events: list[tuple]):
        self.timelines = timelines
        self.events = events
        self.enabled = True

    def close_all(self) -> None:
        pass                       # workers closed their intervals already

    def timeline(self, entity: str) -> Timeline:
        tl = self.timelines.get(entity)
        if tl is None:
            tl = self.timelines[entity] = Timeline(entity)
        return tl

    def points(self, kind=None, entity=None) -> list[tuple]:
        return [e for e in self.events
                if (kind is None or e[2] == kind)
                and (entity is None or e[1] == entity)]


class ShardedClusterView:
    """The slice of ``Cluster`` the post-run consumers actually touch:
    the merged telemetry (filled in by the coordinator) plus the entity
    names :func:`repro.diagnostics.cluster_report` is keyed by.

    A worker builds it from its whole copy of the cluster (a topology is
    homogeneous in host rail and transport) and ships it home.
    """

    def __init__(self, cluster, rt):
        ns = SimpleNamespace
        atm_api = True if cluster.stacks[0].atm_api else None
        self.tracer: Optional[MergedTracer] = None
        self.metrics: Optional[MergedMetrics] = None
        self.medium = cluster.medium
        self.lan = True if cluster.lan is not None else None
        self.fabric = (None if cluster.fabric is None else ns(
            switches=dict.fromkeys(cluster.fabric.switches)))
        self.stacks = [ns(host=ns(name=s.host.name), atm_api=atm_api)
                       for s in cluster.stacks]
        #: the ``runtime`` twin: what the report reads of each NCS node
        transport = ns(name=rt.nodes[0].transport.name)
        self.runtime = ns(nodes=[ns(pid=pid, transport=transport)
                                 for pid in range(len(self.stacks))])

    @property
    def n_hosts(self) -> int:
        return len(self.stacks)


def shard_payload(value, cluster, rt) -> dict:
    """A worker's contribution, flattened to plain picklable structures."""
    tracer = cluster.tracer
    return {
        "value": value,
        "view": ShardedClusterView(cluster, rt),
        "snapshot": cluster.metrics.snapshot(),
        "trace": {
            "timelines": {
                entity: [(iv.start, iv.end, iv.activity.value, iv.label)
                         for iv in tl.intervals]
                for entity, tl in tracer.timelines.items()},
            "events": list(tracer.events),
        },
    }


def merged_result(spec, plan: ShardPlan, payloads: list[dict],
                  failures=(), retries: int = 0) -> ScenarioResult:
    """The one :class:`ScenarioResult` of a sharded run, with the plan
    choice (and any recovery) stamped on its ``kernel.*`` series, which
    the behaviour walls strip."""
    value = merge_values([p["value"] for p in payloads])
    snapshot = merge_snapshots([p["snapshot"] for p in payloads], plan)
    snapshot["kernel.shards"] = {"": plan.n_shards}
    if math.isfinite(plan.lookahead):
        snapshot["kernel.lookahead_s"] = {"": plan.lookahead}
    snapshot["kernel.shard_load"] = {
        f"shard={s}": w for s, w in enumerate(plan.shard_loads)}
    timelines, events = merge_traces([p["trace"] for p in payloads], plan)
    if failures:
        # the run *recovered*: say so in the snapshot and on the
        # supervisor's trace track, both substrate telemetry
        stamp_recovery_snapshot(snapshot, failures, retries=retries)
        events.extend((0.0, SUPERVISOR_ENTITY, "kernel.recovery", str(f))
                      for f in failures)
    view = payloads[0]["view"]
    view.tracer = MergedTracer(timelines, events)
    view.metrics = MergedMetrics(snapshot, enabled=spec.obs.metrics)
    result = ScenarioResult(spec, value, view, view.runtime)
    _export_obs(result)
    return result
