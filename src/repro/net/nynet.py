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
WAN.  The registered topologies (``nynet``, ``nynet-testbed``,
``wan-ring``) are blueprints in :mod:`repro.net.blueprint`; the helpers
here build them.
"""

from __future__ import annotations

from .blueprint import (SiteSpec, blueprint_nynet, blueprint_nynet_testbed,
                        blueprint_wan_ring, materialize)
from .topology import Cluster

__all__ = ["SiteSpec", "build_nynet", "build_wan_ring", "nynet_testbed"]


def build_nynet(sites: list[SiteSpec], **kw) -> Cluster:
    """The ``nynet`` topology, built: see :func:`.blueprint_nynet`."""
    return materialize(blueprint_nynet(sites, **kw))


def nynet_testbed(n_upstate: int = 4, n_downstate: int = 2, **kw) -> Cluster:
    """The ``nynet-testbed`` topology, built: see
    :func:`.blueprint_nynet_testbed`."""
    return materialize(blueprint_nynet_testbed(n_upstate, n_downstate, **kw))


def build_wan_ring(n_sites: int = 8, hosts_per_site: int = 1,
                   **kw) -> Cluster:
    """The ``wan-ring`` topology, built: see :func:`.blueprint_wan_ring`."""
    return materialize(blueprint_wan_ring(n_sites, hosts_per_site, **kw))
