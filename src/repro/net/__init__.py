"""Topology builders: Ethernet cluster, ATM LAN cluster, NYNET WAN."""

from .topology import Cluster, NodeStack, build_atm_cluster, build_ethernet_cluster

# the NYNET WAN is imported when first asked for (PEP 562)
_NYNET = ("SiteSpec", "build_nynet", "nynet_testbed")

__all__ = [
    "Cluster", "NodeStack", "build_atm_cluster", "build_ethernet_cluster",
    *_NYNET,
]


def __getattr__(name: str):
    if name not in _NYNET:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import nynet
    return getattr(nynet, name)
