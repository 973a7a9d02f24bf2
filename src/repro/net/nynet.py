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
``atm-lan`` (a classical-IP PVC and a raw HSM PVC to any peer,
established on first use), so any experiment can run unchanged over the
WAN.  The registered topologies ``nynet`` and ``nynet-testbed`` each
build their cluster in one call, like the LANs and the ``wan-ring`` of
:mod:`repro.net.topology`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..atm import AtmSwitch, DS3, OC3
from ..hosts import HostParams, SUN_IPX
from ..protocols import TcpParams
from ..registry import TOPOLOGIES
from .topology import Cluster, _add_host, _universe

__all__ = ["SiteSpec", "build_nynet", "nynet_testbed"]


@dataclass(frozen=True)
class SiteSpec:
    """One NYNET site: a name, how many hosts, and which region it's in."""

    name: str
    n_hosts: int
    region: str = "upstate"      # "upstate" | "downstate"

    def __post_init__(self) -> None:
        if (isinstance(self.n_hosts, bool)
                or not isinstance(self.n_hosts, int) or self.n_hosts < 0):
            raise ValueError(f"n_hosts: must be a non-negative integer "
                             f"(got {self.n_hosts!r})")
        if self.region not in ("upstate", "downstate"):
            raise ValueError(f"region: unknown region {self.region!r}")


@TOPOLOGIES.register(
    "nynet", help="The Fig 1 NYNET WAN from declarative site tables")
def build_nynet(sites: list,
                params: HostParams = SUN_IPX,
                tcp_params: Optional[TcpParams] = None,
                seed: int = 1995,
                trace: bool = False,
                metrics: bool = True,
                train_cells: int = 256,
                preconnect: bool = True) -> Cluster:
    """The Fig 1 testbed with the given sites.

    Wiring: ``host --TAXI-- site switch --OC-3-- regional backbone``;
    the two regional backbones (the upstate OC-48 ring collapsed to one
    switch, and downstate) connect through the DS-3 link.  ``sites`` are
    :class:`SiteSpec` rows or plain tables (``{name = ..., n_hosts = ...,
    region = ...}``), so a scenario file can declare the whole WAN.
    """
    from ..config.schema import build   # a site table from a scenario
    site_specs = [site if isinstance(site, SiteSpec)
                  else build(SiteSpec, site, f"cluster.options.sites[{i}]")
                  for i, site in enumerate(sites)]
    if not site_specs or all(s.n_hosts == 0 for s in site_specs):
        raise ValueError("need at least one site with hosts")
    if len({s.name for s in site_specs}) != len(site_specs):
        raise ValueError("site names must be unique")
    cluster = _universe("nynet", seed, trace, metrics)
    sim, fabric = cluster.sim, cluster.fabric
    backbones = {region: fabric.add_switch(AtmSwitch(sim, f"bb-{region}"))
                 for region in ("upstate", "downstate")}
    fabric.connect(backbones["upstate"], backbones["downstate"], DS3)
    for site in site_specs:
        switch = fabric.add_switch(AtmSwitch(sim, f"sw-{site.name}"))
        fabric.connect(switch, backbones[site.region], OC3)
        for k in range(site.n_hosts):
            _add_host(cluster, f"{site.name}{k}", params, tcp_params,
                      preconnect, train_cells, switch)
    return cluster


@TOPOLOGIES.register(
    "nynet-testbed",
    help="Two-region NYNET: upstate + downstate sites over the DS-3 (Fig 1)")
def nynet_testbed(n_upstate: int = 4, n_downstate: int = 2,
                  params: HostParams = SUN_IPX,
                  tcp_params: Optional[TcpParams] = None,
                  seed: int = 1995, trace: bool = False, metrics: bool = True,
                  train_cells: int = 256, preconnect: bool = True) -> Cluster:
    """The canonical two-region instance used by the Fig 1 benchmark:
    a Syracuse-like upstate site and an NYC-like downstate site.  The
    other options are :func:`build_nynet`'s."""
    return build_nynet([
        SiteSpec("syr", n_upstate, "upstate"),
        SiteSpec("nyc", n_downstate, "downstate"),
    ], params, tcp_params, seed, trace, metrics, train_cells, preconnect)
