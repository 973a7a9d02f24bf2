"""The NYNET ATM wide-area testbed of Fig 1.

"NYNET is a high-speed fiber-optic communications network linking
multiple computing, communications, and research facilities in New York
State. ... Most of the wide area portion of the NYNET operates at speed
OC 48 (2.4 Gbps) while each site is connected with two OC 3 links
(155 Mbps).  The upstate to downstate connection is through DS-3
(45 Mbps) link." (§2)

We model a parameterizable version: a set of *sites*, each a FORE switch
with some hosts on TAXI links, connected to a WAN backbone.  Upstate
sites hang off an OC-48 backbone switch; the downstate region connects
through the DS-3 bottleneck.  Every host gets the same dual stack as
:func:`repro.net.topology.build_atm_cluster` (a classical-IP PVC and a
raw HSM PVC to any peer, established on first use), so any experiment
can run unchanged over the WAN.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atm import (
    AtmApi, AtmFabric, AtmSwitch, DS3, OC3, OC48, Sba200Adapter,
    SignalingController, TAXI_140,
)
from ..hosts import Host, HostParams, OsProcess, SUN_IPX
from ..protocols import AtmIpAdapter, IpLayer, SocketLayer, TcpParams, TcpStack, UdpStack
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..registry import TOPOLOGIES
from ..sim import NullTracer, RngRegistry, Simulator, Tracer
from .blueprint import blueprint_nynet, blueprint_wan_ring, materialize
from .topology import Cluster, NodeStack

__all__ = ["SiteSpec", "build_nynet", "build_nynet_from_spec",
           "build_wan_ring", "nynet_testbed"]


@dataclass(frozen=True)
class SiteSpec:
    """One NYNET site: a name, how many hosts, and which region it's in."""

    name: str
    n_hosts: int
    region: str = "upstate"      # "upstate" | "downstate"

    def __post_init__(self) -> None:
        if self.n_hosts < 0:
            raise ValueError("n_hosts must be non-negative")
        if self.region not in ("upstate", "downstate"):
            raise ValueError(f"unknown region {self.region!r}")


def build_nynet(sites: list[SiteSpec],
                params: HostParams = SUN_IPX,
                tcp_params: TcpParams | None = None,
                seed: int = 1995,
                trace: bool = False,
                metrics: bool = True,
                train_cells: int = 256,
                preconnect: bool = True) -> Cluster:
    """Build the Fig 1 testbed with the given sites.

    Topology: ``host --TAXI-- site switch --OC-3-- regional backbone``;
    the two regional backbones (upstate OC-48 ring collapsed to one
    switch, downstate) connect through the DS-3 link.
    """
    return materialize(blueprint_nynet(
        sites, params=params, tcp_params=tcp_params, seed=seed,
        trace=trace, metrics=metrics, train_cells=train_cells,
        preconnect=preconnect))


@TOPOLOGIES.register(
    "nynet-testbed",
    help="Two-region NYNET: upstate + downstate sites over the DS-3 (Fig 1)")
def nynet_testbed(n_upstate: int = 4, n_downstate: int = 2, **kw) -> Cluster:
    """The canonical two-region instance used by the Fig 1 benchmark:
    a Syracuse-like upstate site and an NYC-like downstate site."""
    return build_nynet([
        SiteSpec("syr", n_upstate, "upstate"),
        SiteSpec("nyc", n_downstate, "downstate"),
    ], **kw)


@TOPOLOGIES.register(
    "nynet", help="The Fig 1 NYNET WAN from declarative site tables")
def build_nynet_from_spec(sites: list, **kw) -> Cluster:
    """Spec-facing :func:`build_nynet`: ``sites`` as plain tables
    (``{name = ..., n_hosts = ..., region = ...}``) so a scenario file
    can declare the whole WAN."""
    return materialize(blueprint_nynet(sites, **kw))


@TOPOLOGIES.register(
    "wan-ring",
    help="N site switches in a DS-3 ring, one shardable site per switch")
def build_wan_ring(n_sites: int = 8,
                   hosts_per_site: int = 1,
                   params: HostParams = SUN_IPX,
                   tcp_params: TcpParams | None = None,
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
    return materialize(blueprint_wan_ring(
        n_sites=n_sites, hosts_per_site=hosts_per_site, params=params,
        tcp_params=tcp_params, seed=seed, trace=trace, metrics=metrics,
        train_cells=train_cells, preconnect=preconnect))
