"""Two-phase topology construction: declarative blueprints + materialize.

This is the one way a cluster is built.  Phase 1 — a registered
topology (:data:`repro.registry.TOPOLOGIES`) produces a
:class:`TopologyBlueprint`: a cheap, frozen description of every
switch, trunk, host and LAN segment, in **exact global construction
order**.  Building a blueprint allocates no simulator and no processes.

Phase 2 — :func:`materialize` instantiates a blueprint, item by item,
into the whole cluster: for the single kernel, for
``repro.config.build_cluster`` and every ``build_*`` helper, and for
the sharded kernel's coordinator, which plans on the built cluster and
forks its workers off it.

Construction is O(hosts): nothing is provisioned per host *pair*.
Virtual circuits and TCP connections come into being when a pair first
talks (:mod:`repro.atm.signaling`), and because a circuit's identifier
and labels are a pure function of ``(src, dst, service)``, shard
workers need no knowledge of what other workers established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..atm.link import DS3, LinkSpec, OC3, TAXI_140
from ..config.schema import build
from ..hosts import HostParams, SUN_ELC, SUN_IPX
from ..registry import TOPOLOGIES

__all__ = [
    "SwitchItem", "TrunkItem", "HostItem", "LanItem", "TopologyBlueprint",
    "SiteSpec", "materialize",
]


# --------------------------------------------------------------------------
# the declarative model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchItem:
    """One ATM switch: create ``AtmSwitch(sim, name, latency_s)``."""

    name: str
    latency_s: float = 10e-6


@dataclass(frozen=True)
class TrunkItem:
    """One switch-to-switch duplex trunk (``fabric.connect(a, b, spec)``)."""

    a: str
    b: str
    spec: LinkSpec


@dataclass(frozen=True)
class HostItem:
    """One host row: full protocol stack, attached to ``switch`` (if any)."""

    name: str
    pid: int
    switch: Optional[str] = None
    link_spec: Optional[LinkSpec] = None


@dataclass(frozen=True)
class LanItem:
    """The shared Ethernet segment (ethernet / dual-rail topologies)."""

    bandwidth_bps: float = 10e6
    collisions: bool = False


@dataclass(frozen=True)
class TopologyBlueprint:
    """A topology, fully described but not yet instantiated.

    ``items`` holds :class:`SwitchItem`/:class:`TrunkItem`/:class:`HostItem`
    rows in the **exact order** they are created, so every build of one
    blueprint agrees to the byte.
    """

    medium: str                  # "ethernet" | "atm-lan" | "atm-dual" | ...
    seed: int
    trace: bool
    metrics: bool
    params: HostParams
    tcp_params: Any              # Optional[TcpParams] (kept opaque)
    train_cells: int
    preconnect: bool
    host_rail: str               # "ethernet" | "atm" | "dual"
    lan: Optional[LanItem] = None
    items: tuple = ()

    @property
    def hosts(self) -> list[HostItem]:
        return [it for it in self.items if isinstance(it, HostItem)]

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)


# --------------------------------------------------------------------------
# materialize
# --------------------------------------------------------------------------

def _build_host(bp, sim, rngs, tracer, lan, fabric, sig, item):
    """One host row: interfaces, protocol stack, OS process."""
    from ..atm import AtmApi, Sba200Adapter
    from ..ethernet import EthernetNic
    from ..hosts import Host, OsProcess
    from ..protocols import (AtmIpAdapter, EthernetIpAdapter, IpLayer,
                             SocketLayer, TcpStack, UdpStack)
    from .topology import NodeStack

    params = bp.params
    name = item.name
    host = Host(sim, name, cpu=params.cpu, os=params.os, tracer=tracer)
    nic = None
    if bp.host_rail in ("ethernet", "dual"):
        nic = EthernetNic(sim, lan, name)
        host.attach_interface("ethernet", nic)
    if bp.host_rail in ("atm", "dual"):
        sba = Sba200Adapter(sim, name, train_cells=bp.train_cells)
        host.attach_interface("atm", sba)
        fabric.add_adapter(sba)
        rng = rngs.stream(f"link.{name}")
        fabric.connect(sba, fabric.switches[item.switch], item.link_spec,
                       rng_a=rng, rng_b=rng)
    atm_api = AtmApi(host) if bp.host_rail != "ethernet" else None
    if bp.host_rail == "atm":
        ip_adapter = AtmIpAdapter(atm_api, sig)
    else:                       # dual-rail: IP rides the LAN
        ip_adapter = EthernetIpAdapter(nic)
    ip = IpLayer(sim, name, ip_adapter)
    ip_adapter.bind(ip)
    tcp = TcpStack(host, ip, bp.tcp_params, preconnect=bp.preconnect)
    return NodeStack(
        host=host, process=OsProcess(host, pid=item.pid), ip=ip, tcp=tcp,
        socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
        atm_api=atm_api)


def materialize(bp: TopologyBlueprint):
    """Instantiate a blueprint into a :class:`~repro.net.topology.Cluster`."""
    from ..atm import AtmFabric, AtmSwitch, SignalingController
    from ..ethernet import EthernetLan
    from ..obs.registry import MetricsRegistry, NULL_REGISTRY
    from ..sim import NullTracer, RngRegistry, Simulator, Tracer
    from .topology import Cluster

    sim = Simulator(metrics=MetricsRegistry() if bp.metrics
                    else NULL_REGISTRY)
    rngs = RngRegistry(bp.seed)
    tracer = Tracer(sim) if bp.trace else NullTracer(sim)
    lan = None
    if bp.lan is not None:
        lan = EthernetLan(sim, bandwidth_bps=bp.lan.bandwidth_bps,
                          collisions=bp.lan.collisions, rngs=rngs)
    fabric = sig = None
    if bp.host_rail != "ethernet":
        fabric = AtmFabric(sim)
        sig = SignalingController(fabric)
    stacks: list[Any] = []
    for item in bp.items:
        if isinstance(item, SwitchItem):
            fabric.add_switch(AtmSwitch(
                sim, item.name, switching_latency_s=item.latency_s))
        elif isinstance(item, TrunkItem):
            fabric.connect(fabric.switches[item.a], fabric.switches[item.b],
                           item.spec)
        else:
            stacks.append(_build_host(bp, sim, rngs, tracer, lan, fabric,
                                      sig, item))
    return Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                   medium=bp.medium, lan=lan, fabric=fabric, signaling=sig)


# --------------------------------------------------------------------------
# the registered topologies
# --------------------------------------------------------------------------

def _host_items(n_hosts, switch, link_spec):
    return tuple(HostItem(name=f"n{i}", pid=i, switch=switch,
                          link_spec=link_spec) for i in range(n_hosts))


@TOPOLOGIES.register(
    "ethernet", help="N workstations on one shared 10 Mbps Ethernet (§2)")
def blueprint_ethernet(n_hosts: int,
                       params: HostParams = SUN_ELC,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       collisions: bool = False,
                       bandwidth_bps: float = 10e6,
                       preconnect: bool = True) -> TopologyBlueprint:
    """N workstations on one shared Ethernet segment: the paper's
    *SUN/Ethernet* platform (SPARCstation ELCs, §2)."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    return TopologyBlueprint(
        medium="ethernet", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=256,
        preconnect=preconnect, host_rail="ethernet",
        lan=LanItem(bandwidth_bps=bandwidth_bps, collisions=collisions),
        items=_host_items(n_hosts, None, None))


@TOPOLOGIES.register(
    "atm-lan", help="N workstations star-wired to a FORE switch (§2)")
def blueprint_atm_lan(n_hosts: int,
                      params: HostParams = SUN_IPX,
                      tcp_params=None,
                      seed: int = 1995,
                      trace: bool = False,
                      metrics: bool = True,
                      link_spec: LinkSpec = TAXI_140,
                      switch_latency_s: float = 10e-6,
                      train_cells: int = 256,
                      preconnect: bool = True) -> TopologyBlueprint:
    """N workstations star-wired to one FORE switch over TAXI links: the
    paper's *SUN/ATM LAN* platform (SPARCstation IPXs, §2).  Any pair of
    hosts has a classical-IP PVC (TCP/p4/NSM traffic) and a raw PVC (NCS
    High Speed Mode), each established on first use."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    items = ((SwitchItem("fore-sw", latency_s=switch_latency_s),)
             + _host_items(n_hosts, "fore-sw", link_spec))
    return TopologyBlueprint(
        medium="atm-lan", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm",
        items=items)


@TOPOLOGIES.register(
    "atm-dual",
    help="ATM fabric for HSM + separate Ethernet for NSM/TCP (dual-rail)")
def blueprint_atm_dual(n_hosts: int,
                       params: HostParams = SUN_IPX,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       link_spec: LinkSpec = TAXI_140,
                       switch_latency_s: float = 10e-6,
                       train_cells: int = 256,
                       bandwidth_bps: float = 10e6,
                       collisions: bool = False,
                       preconnect: bool = True) -> TopologyBlueprint:
    """Dual-rail cluster: every host has an SBA-200 on the ATM star *and*
    an Ethernet NIC on a shared segment.

    Unlike ``atm-lan`` — where classical-IP and the raw HSM PVCs share
    the same TAXI links, so a link outage kills both service tiers at
    once — here IP/TCP (and with it NSM and p4) runs over the Ethernet
    while only HSM uses the fabric.  This is the topology that makes
    HSM→NSM failover meaningful: the fast path can die while the slow
    path survives.  (The paper's own testbed kept its Ethernet alongside
    the ATM gear for exactly this kind of fallback.)
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    items = ((SwitchItem("fore-sw", latency_s=switch_latency_s),)
             + _host_items(n_hosts, "fore-sw", link_spec))
    return TopologyBlueprint(
        medium="atm-dual", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="dual",
        lan=LanItem(bandwidth_bps=bandwidth_bps, collisions=collisions),
        items=items)


@dataclass(frozen=True)
class SiteSpec:
    """One NYNET site: a name, how many hosts, and which region it's in."""

    name: str
    n_hosts: int
    region: str = "upstate"      # "upstate" | "downstate"

    def __post_init__(self) -> None:
        if self.n_hosts < 0:
            raise ValueError(f"n_hosts: must be non-negative "
                             f"(got {self.n_hosts!r})")
        if self.region not in ("upstate", "downstate"):
            raise ValueError(f"region: unknown region {self.region!r}")


@TOPOLOGIES.register(
    "nynet", help="The Fig 1 NYNET WAN from declarative site tables")
def blueprint_nynet(sites: list,
                    params: HostParams = SUN_IPX,
                    tcp_params=None,
                    seed: int = 1995,
                    trace: bool = False,
                    metrics: bool = True,
                    train_cells: int = 256,
                    preconnect: bool = True) -> TopologyBlueprint:
    """The Fig 1 testbed with the given sites.

    Wiring: ``host --TAXI-- site switch --OC-3-- regional backbone``;
    the two regional backbones (the upstate OC-48 ring collapsed to one
    switch, and downstate) connect through the DS-3 link.  ``sites`` are
    :class:`SiteSpec` rows or plain tables (``{name = ..., n_hosts = ...,
    region = ...}``), so a scenario file can declare the whole WAN.
    """
    site_specs = [site if isinstance(site, SiteSpec)
                  else build(SiteSpec, site, f"cluster.options.sites[{i}]")
                  for i, site in enumerate(sites)]
    if not site_specs or all(s.n_hosts == 0 for s in site_specs):
        raise ValueError("need at least one site with hosts")
    if len({s.name for s in site_specs}) != len(site_specs):
        raise ValueError("site names must be unique")
    items: list[Any] = [
        SwitchItem("bb-upstate"), SwitchItem("bb-downstate"),
        TrunkItem("bb-upstate", "bb-downstate", DS3),
    ]
    pid = 0
    for site in site_specs:
        swn = f"sw-{site.name}"
        backbone = ("bb-upstate" if site.region == "upstate"
                    else "bb-downstate")
        items.append(SwitchItem(swn))
        items.append(TrunkItem(swn, backbone, OC3))
        for k in range(site.n_hosts):
            items.append(HostItem(name=f"{site.name}{k}", pid=pid,
                                  switch=swn, link_spec=TAXI_140))
            pid += 1
    return TopologyBlueprint(
        medium="nynet", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm",
        items=tuple(items))


@TOPOLOGIES.register(
    "nynet-testbed",
    help="Two-region NYNET: upstate + downstate sites over the DS-3 (Fig 1)")
def blueprint_nynet_testbed(n_upstate: int = 4, n_downstate: int = 2,
                            **kw) -> TopologyBlueprint:
    """The canonical two-region instance used by the Fig 1 benchmark:
    a Syracuse-like upstate site and an NYC-like downstate site."""
    return blueprint_nynet([
        SiteSpec("syr", n_upstate, "upstate"),
        SiteSpec("nyc", n_downstate, "downstate"),
    ], **kw)


@TOPOLOGIES.register(
    "wan-ring",
    help="N site switches in a DS-3 ring, one shardable site per switch")
def blueprint_wan_ring(n_sites: int = 8,
                       hosts_per_site: int = 1,
                       params: HostParams = SUN_IPX,
                       tcp_params=None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       train_cells: int = 256,
                       preconnect: bool = True) -> TopologyBlueprint:
    """A ring of NYNET-style sites for kernel-scaling experiments.

    ``n_sites`` FORE switches sit on a DS-3 ring (each trunk is
    deterministic and carries the full 2 ms propagation delay), with
    ``hosts_per_site`` TAXI hosts behind each switch.  Because every
    inter-site trunk is a switch-to-switch link with non-zero
    propagation and no error RNG, the sharded kernel can cut the ring
    anywhere: each site becomes its own shard group and the DS-3 delay
    is the conservative lookahead.  Hosts get the same dual stack
    (classical-IP PVCs + raw HSM PVCs) as every other topology.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if hosts_per_site < 1:
        raise ValueError("hosts_per_site must be >= 1")
    items: list[Any] = [SwitchItem(f"sw-r{i}") for i in range(n_sites)]
    if n_sites == 2:            # a 2-ring would double the single trunk
        items.append(TrunkItem("sw-r0", "sw-r1", DS3))
    elif n_sites > 2:
        items += [TrunkItem(f"sw-r{i}", f"sw-r{(i + 1) % n_sites}", DS3)
                  for i in range(n_sites)]
    items += [HostItem(name=f"r{i}h{k}", pid=i * hosts_per_site + k,
                       switch=f"sw-r{i}", link_spec=TAXI_140)
              for i in range(n_sites) for k in range(hosts_per_site)]
    return TopologyBlueprint(
        medium="wan-ring", seed=seed, trace=trace, metrics=metrics,
        params=params, tcp_params=tcp_params, train_cells=train_cells,
        preconnect=preconnect, host_rail="atm",
        items=tuple(items))
