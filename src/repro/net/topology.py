"""The built cluster, and helpers that build the paper's LANs (§2).

Every :class:`Cluster` is what :func:`repro.net.blueprint.materialize`
makes of a registered topology blueprint.  The ``build_*`` helpers
below are that one path with the blueprint named in Python; the NYNET
WAN of Fig 1 is in :mod:`repro.net.nynet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..atm import (AtmApi, AtmFabric, Service, SignalingController,
                   VirtualChannel)
from ..ethernet import EthernetLan
from ..hosts import Host, OsProcess
from ..obs.registry import MetricsRegistry
from ..protocols import IpLayer, SocketLayer, TcpStack, UdpStack
from ..sim import RngRegistry, Simulator, Tracer
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


def build_ethernet_cluster(n_hosts: int, **kw) -> Cluster:
    """The ``ethernet`` topology, built: see :func:`.blueprint_ethernet`."""
    return materialize(blueprint_ethernet(n_hosts, **kw))


def build_atm_cluster(n_hosts: int, **kw) -> Cluster:
    """The ``atm-lan`` topology, built: see :func:`.blueprint_atm_lan`."""
    return materialize(blueprint_atm_lan(n_hosts, **kw))


def build_atm_dual_cluster(n_hosts: int, **kw) -> Cluster:
    """The ``atm-dual`` topology, built: see :func:`.blueprint_atm_dual`."""
    return materialize(blueprint_atm_dual(n_hosts, **kw))
