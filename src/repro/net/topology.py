"""Cluster builders: wire hosts, NICs, protocol stacks and fabrics.

Two build-outs mirror the paper's experimental environment (§2):

* :func:`build_ethernet_cluster` — SPARCstation ELCs on one shared
  10 Mbps Ethernet (the *SUN/Ethernet* platform).
* :func:`build_atm_cluster` — SPARCstation IPXs star-wired to a FORE
  switch over 140 Mbps TAXI (the *SUN/ATM LAN* platform); any pair of
  hosts has a classical-IP PVC (for TCP/p4/NSM traffic) and a raw PVC
  (for NCS High Speed Mode), each established on first use.

The NYNET wide-area testbed of Fig 1 is in :mod:`repro.net.nynet`.

Since the blueprint refactor, the registered builders here are thin
wrappers: each delegates to its declarative twin in
:mod:`repro.net.blueprint` and materializes the result — the same
two-phase path the sharded kernel uses for partial (per-shard)
construction, held to byte identity against the old imperative bodies
by the perf-lock and determinism goldens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..atm import (
    AtmApi, AtmFabric, AtmSwitch, LinkSpec, Sba200Adapter, Service,
    SignalingController, TAXI_140, VirtualChannel,
)
from ..ethernet import EthernetLan, EthernetNic
from ..hosts import Host, HostParams, OsProcess, SUN_ELC, SUN_IPX
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..protocols import (
    AtmIpAdapter, EthernetIpAdapter, IpLayer, SocketLayer, TcpParams,
    TcpStack, UdpStack,
)
from ..registry import TOPOLOGIES
from ..sim import NullTracer, RngRegistry, Simulator, Tracer
from .blueprint import (
    blueprint_atm_dual, blueprint_atm_lan, blueprint_ethernet, materialize,
)

__all__ = ["NodeStack", "Cluster", "build_ethernet_cluster",
           "build_atm_cluster", "build_atm_dual_cluster"]


@dataclass
class NodeStack:
    """Everything attached to one host."""

    host: Host
    process: OsProcess
    ip: IpLayer
    tcp: TcpStack
    socket: SocketLayer
    udp: UdpStack
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


def _host_name(i: int) -> str:
    return f"n{i}"


@TOPOLOGIES.register(
    "ethernet", help="N workstations on one shared 10 Mbps Ethernet (§2)")
def build_ethernet_cluster(
        n_hosts: int,
        params: HostParams = SUN_ELC,
        tcp_params: Optional[TcpParams] = None,
        seed: int = 1995,
        trace: bool = False,
        metrics: bool = True,
        collisions: bool = False,
        bandwidth_bps: float = 10e6,
        preconnect: bool = True) -> Cluster:
    """N workstations on one shared Ethernet segment."""
    return materialize(blueprint_ethernet(
        n_hosts, params=params, tcp_params=tcp_params, seed=seed,
        trace=trace, metrics=metrics, collisions=collisions,
        bandwidth_bps=bandwidth_bps, preconnect=preconnect))


@TOPOLOGIES.register(
    "atm-lan", help="N workstations star-wired to a FORE switch (§2)")
def build_atm_cluster(
        n_hosts: int,
        params: HostParams = SUN_IPX,
        tcp_params: Optional[TcpParams] = None,
        seed: int = 1995,
        trace: bool = False,
        metrics: bool = True,
        link_spec: LinkSpec = TAXI_140,
        switch_latency_s: float = 10e-6,
        train_cells: int = 256,
        preconnect: bool = True) -> Cluster:
    """N workstations star-wired to one FORE switch over TAXI links."""
    return materialize(blueprint_atm_lan(
        n_hosts, params=params, tcp_params=tcp_params, seed=seed,
        trace=trace, metrics=metrics, link_spec=link_spec,
        switch_latency_s=switch_latency_s, train_cells=train_cells,
        preconnect=preconnect))


@TOPOLOGIES.register(
    "atm-dual",
    help="ATM fabric for HSM + separate Ethernet for NSM/TCP (dual-rail)")
def build_atm_dual_cluster(
        n_hosts: int,
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

    Unlike :func:`build_atm_cluster` — where classical-IP and the raw
    HSM PVCs share the same TAXI links, so a link outage kills both
    service tiers at once — here IP/TCP (and with it NSM and p4) runs
    over the Ethernet while only HSM uses the fabric.  This is the
    topology that makes HSM→NSM failover meaningful: the fast path can
    die while the slow path survives.  (The paper's own testbed kept
    its Ethernet alongside the ATM gear for exactly this kind of
    fallback.)
    """
    return materialize(blueprint_atm_dual(
        n_hosts, params=params, tcp_params=tcp_params, seed=seed,
        trace=trace, metrics=metrics, link_spec=link_spec,
        switch_latency_s=switch_latency_s, train_cells=train_cells,
        bandwidth_bps=bandwidth_bps, collisions=collisions,
        preconnect=preconnect))
