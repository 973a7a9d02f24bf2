"""Shared plumbing for the paper's three applications.

Every Table in the paper has an *Ethernet* column (SPARC ELCs on the
shared 10 Mbps segment) and a *NYNET testbed* column (SPARC IPXs on the
ATM LAN); :func:`build_platform_cluster` builds the matching simulated
cluster, and :func:`platform_costs` returns the calibrated compute
constants.  The applications use the paper's host-node model: process 0
is the host, processes 1..N are the nodes, so an "N node" table row
runs on an (N+1)-host cluster.  The two platforms are registered
topologies too (``platform-ethernet`` / ``platform-nynet``): like every
other, each builds its cluster in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..atm import LinkSpec, TAXI_140
from ..hosts import SUN_ELC, SUN_IPX
from ..net import Cluster, build_atm_cluster, build_ethernet_cluster
from ..protocols import TcpParams
from ..registry import TOPOLOGIES
from .costs import AppCosts, ELC_COSTS, IPX_COSTS

__all__ = ["PLATFORMS", "AppResult", "build_platform_cluster",
           "platform_costs", "ELC_TCP", "IPX_TCP"]

#: 1995 SunOS TCP: ~5 KB socket buffers on the Ethernet ELCs (per-message
#: tail segments stall on the 50 ms delayed-ACK timer), and the larger
#: buffers FORE recommended for IP-over-ATM's 9180-byte MTU on the IPXs
#: (at least two segments must fit in the window or every segment stalls).
#: Stall time is dead time for a single-threaded p4 process and compute
#: time for NCS threads.
ELC_TCP = TcpParams(window_bytes=5120, tx_proc_per_segment_s=350e-6,
                    rx_proc_per_segment_s=400e-6, ack_proc_s=150e-6,
                    delayed_ack_s=0.05, ack_every=2)
IPX_TCP = TcpParams(window_bytes=18432, tx_proc_per_segment_s=280e-6,
                    rx_proc_per_segment_s=320e-6, ack_proc_s=120e-6,
                    delayed_ack_s=0.05, ack_every=2)

#: the two benchmark platforms of §2
PLATFORMS = ("ethernet", "nynet")

#: p4 message types used by the applications (matching Fig 13's DATA/RESULT)
DATA, RESULT = 1, 2


@dataclass
class AppResult:
    """Outcome of one application run."""

    app: str
    variant: str                 # "p4" | "ncs"
    platform: str                # "ethernet" | "nynet"
    n_nodes: int
    makespan_s: float
    correct: bool
    details: dict = field(default_factory=dict)
    cluster: Optional[Cluster] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ok = "ok" if self.correct else "WRONG RESULT"
        return (f"<{self.app}/{self.variant} {self.platform} "
                f"N={self.n_nodes}: {self.makespan_s:.3f}s {ok}>")


def build_platform_cluster(platform: str, n_hosts: int, **kw) -> Cluster:
    """An (n_hosts)-host cluster of the named benchmark platform."""
    if platform == "ethernet":
        return platform_ethernet(n_hosts, **kw)
    if platform in ("nynet", "atm"):
        return platform_nynet(n_hosts, **kw)
    raise ValueError(f"unknown platform {platform!r}; "
                     f"expected one of {PLATFORMS}")


@TOPOLOGIES.register(
    "platform-ethernet",
    help="Benchmark platform: SPARC ELCs + 1995 SunOS TCP on Ethernet")
def platform_ethernet(n_hosts: int, tcp_params: Optional[TcpParams] = ELC_TCP,
                      seed: int = 1995, trace: bool = False,
                      metrics: bool = True, collisions: bool = False,
                      bandwidth_bps: float = 10e6,
                      preconnect: bool = True) -> Cluster:
    """:func:`~repro.net.build_ethernet_cluster` of SPARC ELCs, with
    :data:`ELC_TCP` unless told otherwise."""
    return build_ethernet_cluster(n_hosts, SUN_ELC, tcp_params, seed, trace,
                                  metrics, collisions, bandwidth_bps,
                                  preconnect)


@TOPOLOGIES.register(
    "platform-nynet",
    help="Benchmark platform: SPARC IPXs + FORE-tuned TCP on the ATM LAN")
def platform_nynet(n_hosts: int, tcp_params: Optional[TcpParams] = IPX_TCP,
                   seed: int = 1995, trace: bool = False, metrics: bool = True,
                   link_spec: LinkSpec = TAXI_140,
                   switch_latency_s: float = 10e-6, train_cells: int = 256,
                   preconnect: bool = True) -> Cluster:
    """:func:`~repro.net.build_atm_cluster` of SPARC IPXs, with
    :data:`IPX_TCP` unless told otherwise."""
    return build_atm_cluster(n_hosts, SUN_IPX, tcp_params, seed, trace,
                             metrics, link_spec, switch_latency_s,
                             train_cells, preconnect)


def run_p4_programs(cluster: Cluster, procs,
                    max_events: int = 50_000_000) -> float:
    """Run the simulation and return the p4 application makespan: the
    completion time of the slowest program process (protocol timers may
    keep the simulated clock ticking afterwards; that tail is not
    application time)."""
    finish: dict[int, float] = {}
    for i, proc in enumerate(procs):
        proc.add_callback(lambda ev, i=i: finish.__setitem__(
            i, cluster.sim.now))
    cluster.sim.run(max_events=max_events)
    # a crashed program is usually why its peers are still waiting
    for proc in procs:
        if proc.triggered and not proc.ok:
            _ = proc.value  # re-raise the program's own failure
    missing = [p.name for p in procs if not p.triggered]
    if missing:
        raise RuntimeError(f"p4 programs never finished: {missing}")
    return max(finish.values())


def platform_costs(platform: str) -> AppCosts:
    if platform == "ethernet":
        return ELC_COSTS
    if platform in ("nynet", "atm"):
        return IPX_COSTS
    raise ValueError(f"unknown platform {platform!r}")
