"""The built cluster, and the registered topologies of the paper's LANs (§2).

A registered topology (:data:`repro.registry.TOPOLOGIES`) is a function
that builds and returns a :class:`Cluster` in one call.  The three LANs
and the ``wan-ring`` of site switches are here; the NYNET WAN of Fig 1
is in :mod:`repro.net.nynet`.  Every builder starts from :func:`_universe`
and adds hosts with :func:`_add_host`, so two builds of one topology
create their objects, RNG streams and metric series in the same order.

Construction is O(hosts): nothing is provisioned per host *pair*.
Virtual circuits and TCP connections come into being when a pair first
talks (:mod:`repro.atm.signaling`), and because a circuit's identifier
and labels are a pure function of ``(src, dst, service)``, shard
workers need no knowledge of what other workers established.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..atm import (AtmApi, AtmFabric, AtmSwitch, DS3, LinkSpec,
                   Sba200Adapter, Service, SignalingController, TAXI_140,
                   VirtualChannel)
from ..ethernet import EthernetLan, EthernetNic
from ..hosts import Host, HostParams, OsProcess, SUN_ELC, SUN_IPX
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..protocols import (AtmIpAdapter, EthernetIpAdapter, IpLayer,
                         SocketLayer, TcpParams, TcpStack)
from ..registry import TOPOLOGIES
from ..sim import NullTracer, RngRegistry, Simulator, Tracer

__all__ = ["NodeStack", "Cluster", "build_ethernet_cluster",
           "build_atm_cluster", "build_atm_dual_cluster", "build_wan_ring"]


@dataclass
class NodeStack:
    """Everything attached to one host."""

    host: Host
    process: OsProcess
    ip: IpLayer
    tcp: TcpStack
    socket: SocketLayer
    atm_api: Optional[AtmApi] = None


@dataclass
class Cluster:
    """A built simulation universe: N hosts plus their interconnect."""

    sim: Simulator
    rngs: RngRegistry
    tracer: Tracer
    stacks: list[NodeStack]
    medium: str                                   # "ethernet" | "atm-lan" | ...
    lan: Optional[EthernetLan] = None
    fabric: Optional[AtmFabric] = None
    signaling: Optional[SignalingController] = None

    @property
    def n_hosts(self) -> int:
        return len(self.stacks)

    @property
    def metrics(self) -> MetricsRegistry:
        """The universe's telemetry registry (lives on the simulator)."""
        return self.sim.metrics

    def stack(self, idx: int) -> NodeStack:
        return self.stacks[idx]

    def host(self, idx: int) -> Host:
        return self.stacks[idx].host

    def process(self, pid: int) -> OsProcess:
        return self.stacks[pid].process

    def hsm_vc(self, src: int, dst: int) -> VirtualChannel:
        """The raw PVC carrying NCS HSM traffic from pid ``src`` to pid
        ``dst`` (established on first use, at no simulated cost)."""
        if self.signaling is None:
            raise KeyError(
                f"no HSM VC {src}->{dst}: topology {self.medium!r} has no "
                "ATM fabric (use atm-lan, atm-dual or an NYNET topology)")
        n = self.n_hosts
        if not (0 <= src < n and 0 <= dst < n):
            raise KeyError(
                f"no HSM VC {src}->{dst}: topology {self.medium!r} has "
                f"pids 0..{n - 1}")
        if src == dst:
            raise ValueError(
                f"no HSM VC {src}->{dst}: a process does not reach itself "
                f"over the {self.medium!r} fabric")
        return self.signaling.circuit(self.host(src).name,
                                      self.host(dst).name, Service.HSM)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def _universe(medium: str, seed: int, trace: bool, metrics: bool,
              lan: Optional[dict] = None, atm: bool = True) -> Cluster:
    """A cluster with no hosts yet: simulator, RNG streams, tracer, then
    the shared Ethernet (``lan``: its keyword arguments) and the ATM
    fabric with its signalling (``atm``)."""
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    ether = EthernetLan(sim, rngs=rngs, **lan) if lan is not None else None
    fabric = AtmFabric(sim) if atm else None
    return Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=[],
                   medium=medium, lan=ether, fabric=fabric,
                   signaling=SignalingController(fabric) if atm else None)


def _add_host(cluster: Cluster, name: str, params: HostParams, tcp_params,
              preconnect: bool, train_cells: int = 256,
              switch: Optional[AtmSwitch] = None,
              link_spec: LinkSpec = TAXI_140) -> None:
    """Append one host's full stack, as pid ``len(cluster.stacks)``: an
    Ethernet NIC if the cluster has a LAN, an SBA-200 linked to
    ``switch`` if it has a fabric.  IP rides the LAN when there is one
    (dual-rail), else classical IP over the fabric."""
    sim = cluster.sim
    host = Host(sim, name, cpu=params.cpu, os=params.os,
                tracer=cluster.tracer, model=params.name)
    nic = atm_api = None
    if cluster.lan is not None:
        nic = EthernetNic(sim, cluster.lan, name)
        host.attach_interface("ethernet", nic)
    if cluster.fabric is not None:
        sba = Sba200Adapter(sim, name, train_cells=train_cells)
        host.attach_interface("atm", sba)
        cluster.fabric.add_adapter(sba)
        rng = cluster.rngs.stream(f"link.{name}")
        cluster.fabric.connect(sba, switch, link_spec, rng_a=rng, rng_b=rng)
        atm_api = AtmApi(host)
    ip_adapter = (EthernetIpAdapter(nic) if nic is not None
                  else AtmIpAdapter(atm_api, cluster.signaling))
    ip = IpLayer(sim, name, ip_adapter)
    ip_adapter.bind(ip)
    tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
    cluster.stacks.append(NodeStack(
        host=host, process=OsProcess(host, pid=len(cluster.stacks)), ip=ip,
        tcp=tcp, socket=SocketLayer(host, tcp), atm_api=atm_api))


# --------------------------------------------------------------------------
# the registered LAN topologies
# --------------------------------------------------------------------------

@TOPOLOGIES.register(
    "ethernet", help="N workstations on one shared 10 Mbps Ethernet (§2)")
def build_ethernet_cluster(n_hosts: int,
                           params: HostParams = SUN_ELC,
                           tcp_params: Optional[TcpParams] = None,
                           seed: int = 1995,
                           trace: bool = False,
                           metrics: bool = True,
                           collisions: bool = False,
                           bandwidth_bps: float = 10e6,
                           preconnect: bool = True) -> Cluster:
    """N workstations on one shared Ethernet segment: the paper's
    *SUN/Ethernet* platform (SPARCstation ELCs, §2)."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    cluster = _universe("ethernet", seed, trace, metrics, atm=False,
                        lan=dict(bandwidth_bps=bandwidth_bps,
                                 collisions=collisions))
    for i in range(n_hosts):
        _add_host(cluster, f"n{i}", params, tcp_params, preconnect)
    return cluster


@TOPOLOGIES.register(
    "atm-lan", help="N workstations star-wired to a FORE switch (§2)")
def build_atm_cluster(n_hosts: int,
                      params: HostParams = SUN_IPX,
                      tcp_params: Optional[TcpParams] = None,
                      seed: int = 1995,
                      trace: bool = False,
                      metrics: bool = True,
                      link_spec: LinkSpec = TAXI_140,
                      switch_latency_s: float = 10e-6,
                      train_cells: int = 256,
                      preconnect: bool = True) -> Cluster:
    """N workstations star-wired to one FORE switch over TAXI links: the
    paper's *SUN/ATM LAN* platform (SPARCstation IPXs, §2).  Any pair of
    hosts has a classical-IP PVC (TCP/p4/NSM traffic) and a raw PVC (NCS
    High Speed Mode), each established on first use."""
    if n_hosts < 1:
        raise ValueError("need at least one host")
    cluster = _universe("atm-lan", seed, trace, metrics)
    switch = cluster.fabric.add_switch(AtmSwitch(
        cluster.sim, "fore-sw", switching_latency_s=switch_latency_s))
    for i in range(n_hosts):
        _add_host(cluster, f"n{i}", params, tcp_params, preconnect,
                  train_cells, switch, link_spec)
    return cluster


@TOPOLOGIES.register(
    "atm-dual",
    help="ATM fabric for HSM + separate Ethernet for NSM/TCP (dual-rail)")
def build_atm_dual_cluster(n_hosts: int,
                           params: HostParams = SUN_IPX,
                           tcp_params: Optional[TcpParams] = None,
                           seed: int = 1995,
                           trace: bool = False,
                           metrics: bool = True,
                           link_spec: LinkSpec = TAXI_140,
                           switch_latency_s: float = 10e-6,
                           train_cells: int = 256,
                           bandwidth_bps: float = 10e6,
                           collisions: bool = False,
                           preconnect: bool = True) -> Cluster:
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
    cluster = _universe("atm-dual", seed, trace, metrics,
                        lan=dict(bandwidth_bps=bandwidth_bps,
                                 collisions=collisions))
    switch = cluster.fabric.add_switch(AtmSwitch(
        cluster.sim, "fore-sw", switching_latency_s=switch_latency_s))
    for i in range(n_hosts):
        _add_host(cluster, f"n{i}", params, tcp_params, preconnect,
                  train_cells, switch, link_spec)
    return cluster


@TOPOLOGIES.register(
    "wan-ring",
    help="N site switches in a DS-3 ring, one shardable site per switch")
def build_wan_ring(n_sites: int = 8,
                   hosts_per_site: int = 1,
                   params: HostParams = SUN_IPX,
                   tcp_params: Optional[TcpParams] = None,
                   seed: int = 1995,
                   trace: bool = False,
                   metrics: bool = True,
                   train_cells: int = 256,
                   preconnect: bool = True) -> Cluster:
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
    cluster = _universe("wan-ring", seed, trace, metrics)
    sim, fabric = cluster.sim, cluster.fabric
    switches = [fabric.add_switch(AtmSwitch(sim, f"sw-r{i}"))
                for i in range(n_sites)]
    if n_sites == 2:            # a 2-ring would double the single trunk
        fabric.connect(switches[0], switches[1], DS3)
    elif n_sites > 2:
        for i in range(n_sites):
            fabric.connect(switches[i], switches[(i + 1) % n_sites], DS3)
    for i, switch in enumerate(switches):
        for k in range(hosts_per_site):
            _add_host(cluster, f"r{i}h{k}", params, tcp_params, preconnect,
                      train_cells, switch)
    return cluster
