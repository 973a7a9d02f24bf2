"""Shard planning: which worker owns each pid, host, switch and channel.

The coordinator plans once, on the built cluster it forks the workers
off (:func:`plan_for`); the plan reads only host names and the fabric's
routing graph (:attr:`repro.atm.AtmFabric.routes`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ...config.spec import ScenarioSpec, SpecError

__all__ = ["ShardPlan", "plan_shards", "pid_weights", "plan_for"]


@dataclass
class ShardPlan:
    """Which shard owns each pid/host/switch/channel, plus the cut set."""

    n_shards: int
    lookahead: float                      # min cut prop delay (inf: no cuts)
    pid_shard: dict[int, int]
    host_shard: dict[str, int]
    switch_shard: dict[str, int]
    channel_shard: dict[str, int]         # channel name -> upstream owner
    cut_dest: dict[str, int] = field(default_factory=dict)
    shard_loads: list = field(default_factory=list)    # est. event weight

    def owned_pids(self, shard: int) -> list[int]:
        return sorted(p for p, s in self.pid_shard.items() if s == shard)


def plan_shards(cluster, shards: int, pid_weights=None) -> ShardPlan:
    """Partition ``cluster`` into at most ``shards`` host-group shards.

    A *host group* is the set of hosts attached to the same switch
    neighborhood.  Groups are placed by the cost model of
    :func:`pid_weights` — heaviest group first onto the least-loaded
    shard (LPT), where a group's weight is the sum of its pids'
    ``pid_weights`` (hosts x driver intensity; uniform 1.0 when None).
    With uniform weights this reduces exactly to round-robin in min-pid
    order.  Topologies with a shared LAN medium or no ATM fabric
    collapse to one shard.
    """
    weights = pid_weights or {}
    n = cluster.n_hosts
    host_names = [cluster.host(pid).name for pid in range(n)]
    fabric = getattr(cluster, "fabric", None)
    routes = fabric.routes if fabric is not None else None
    switches = set(fabric.switches) if fabric is not None else set()

    def channels():
        """``(name, upstream, downstream, edge)`` per directed channel,
        each edge met at the first of its ends in node order."""
        met = set()
        for u, nbrs in routes.items():
            for v, edge in nbrs.items():
                if v not in met:
                    a, b = edge.ends
                    yield f"{a}--{b}>", a, b, edge
                    yield f"{a}--{b}<", b, a, edge
            met.add(u)

    def trivial() -> ShardPlan:
        switch_shard = dict.fromkeys(switches, 0)
        channel_shard = ({name: 0 for name, _up, _down, _d in channels()}
                         if fabric is not None else {})
        return ShardPlan(
            n_shards=1, lookahead=math.inf,
            pid_shard={pid: 0 for pid in range(n)},
            host_shard={h: 0 for h in host_names},
            switch_shard=switch_shard, channel_shard=channel_shard,
            shard_loads=[sum(weights.get(pid, 1.0) for pid in range(n))])

    if shards <= 1 or fabric is None or getattr(cluster, "lan", None) is not None:
        return trivial()

    # ---- host groups keyed by the adapter's sorted switch neighborhood
    groups: dict[tuple[str, ...], list[int]] = {}
    for pid, hname in enumerate(host_names):
        key = tuple(sorted(routes[hname]))
        groups.setdefault(key, []).append(pid)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    eff = min(shards, len(ordered))
    if eff <= 1:
        return trivial()

    # ---- assign groups heaviest-first onto the least-loaded shard
    # (LPT).  Uniform weights degrade to round-robin: groups stay in
    # min-pid order and each placement bumps one shard by the same
    # amount, so the least-loaded lowest-index shard cycles
    # 0, 1, ..., eff-1, 0, ...
    group_weights = {key: sum(weights.get(pid, 1.0) for pid in pids)
                     for key, pids in ordered}
    pid_shard: dict[int, int] = {}
    group_shard: list[tuple[tuple[str, ...], list[int], int]] = []
    loads = [0.0] * eff
    for key, pids in sorted(ordered, key=lambda kv: (-group_weights[kv[0]],
                                                     min(kv[1]))):
        s = min(range(eff), key=lambda i: (loads[i], i))
        loads[s] += group_weights[key]
        group_shard.append((key, pids, s))
        for pid in pids:
            pid_shard[pid] = s
    host_shard = {host_names[pid]: s for pid, s in pid_shard.items()}

    # ---- host-attached switches follow the lowest-pid group they serve
    claims: dict[str, tuple[int, int]] = {}       # switch -> (min pid, shard)
    for key, pids, s in group_shard:
        for swn in key:
            cur = claims.get(swn)
            if cur is None or min(pids) < cur[0]:
                claims[swn] = (min(pids), s)
    switch_shard = {swn: s for swn, (_mp, s) in claims.items()}

    # ---- hostless switches (WAN backbones) join their nearest assigned
    # neighbor, preferring the shard with the smallest member pid
    shard_min_pid = {s: min(p for p, ps in pid_shard.items() if ps == s)
                     for s in set(pid_shard.values())}
    remaining = sorted(switches - set(switch_shard))
    while remaining:
        snapshot = dict(switch_shard)
        progressed = []
        for swn in remaining:
            cands = set()
            for label in routes[swn]:
                if label in snapshot:
                    cands.add(snapshot[label])
                elif label in host_shard:
                    cands.add(host_shard[label])
            if cands:
                switch_shard[swn] = min(
                    cands, key=lambda s: (shard_min_pid.get(s, n), s))
                progressed.append(swn)
        if not progressed:            # disconnected leftovers
            for swn in remaining:
                switch_shard[swn] = 0
            break
        remaining = [swn for swn in remaining if swn not in progressed]

    def node_shard(label: str) -> int:
        if label in switch_shard and label not in host_shard:
            return switch_shard[label]
        return host_shard[label]

    # ---- channel ownership + the cut set
    channel_shard: dict[str, int] = {}
    cut_dest: dict[str, int] = {}
    lookahead = math.inf
    for name, up, down, edge in channels():
        su, sd = node_shard(up), node_shard(down)
        channel_shard[name] = su
        if su == sd:
            continue
        if up not in switches or down not in switches:
            raise SpecError(
                f"shard plan cuts {name!r}, a host link: hosts "
                "can never straddle a shard boundary — an HSM "
                "fabric may only be split across a switch-to-"
                "switch WAN trunk")
        if edge.noisy:
            raise SpecError(
                f"shard plan cuts {name!r}, which models bit "
                "errors with a shared rng; only error-free WAN "
                "trunks can bridge shards")
        prop_delay_s = edge.spec.prop_delay_s
        if prop_delay_s <= 0:
            raise SpecError(
                f"shard plan cuts {name!r} with zero "
                "propagation delay: the conservative window "
                "needs positive lookahead on every cut")
        cut_dest[name] = sd
        lookahead = min(lookahead, prop_delay_s)
    return ShardPlan(n_shards=eff, lookahead=lookahead,
                     pid_shard=pid_shard, host_shard=host_shard,
                     switch_shard=switch_shard, channel_shard=channel_shard,
                     cut_dest=cut_dest, shard_loads=loads)


def pid_weights(spec: ScenarioSpec, n_hosts: int):
    """The plan's cost model: estimated event weight per pid.

    A site's weight is its hosts times driver intensity; point-to-point
    drivers (``pingpong``, ``stream``) load only pids 0 and 1, so their
    sites should not also absorb an equal share of bystander hosts.
    Everything else drives all pids uniformly (``None`` = all 1.0).
    """
    driver = spec.app.driver if spec.app is not None else None
    if driver in ("pingpong", "stream"):
        return {pid: (1.0 if pid < 2 else 1 / 16) for pid in range(n_hosts)}
    return None


def plan_for(spec: ScenarioSpec, cluster) -> ShardPlan:
    """The shard plan of ``spec`` on its built ``cluster``."""
    return plan_shards(cluster, spec.shards,
                       pid_weights=pid_weights(spec, cluster.n_hosts))
