"""Virtual-channel management over an ATM fabric.

:class:`AtmFabric` owns the graph of adapters, switches and duplex links;
:class:`SignalingController` establishes virtual channels along shortest
paths and programs each switch's VC table.

**Circuits come into being on first use.**  The paper's NYNET runs used
PVCs configured ahead of time; configuring them costs no simulated time,
so nothing observable depends on *when* a PVC's switch-table rows are
written.  The controller therefore programs a pair's circuit the first
time something asks for it (:meth:`SignalingController.circuit`) or the
first time a cell of it shows up somewhere it is not yet known
(:meth:`SignalingController.resolve` — a switch-table miss, or a burst
imported across a shard cut).  Building a cluster provisions nothing per
pair; a workload pays only for the pairs it touches.

**Circuit identity is a pure function of** ``(src, dst, service)``::

    vc_id = service << 20 | src_index << 10 | dst_index

with ``service`` one of :class:`Service` and the indices taken from
:attr:`AtmFabric.hosts` (pid order; at most :data:`MAX_HOSTS`).  The id
is invertible (:func:`circuit_key`), independent of the order circuits
are established in, and identical in every shard universe of the
sharded kernel — which is what lets a burst crossing a shard cut be
re-bound by ``vc_id`` alone.  Every hop of a circuit carries the same
label, the id split across the cell header's 8-bit VPI and 16-bit VCI
(:func:`vc_label`): labels are globally unique, so no two circuits can
collide on any directed channel.  VPI 0 is left to ad-hoc circuits
(:meth:`SignalingController.create_pvc` /
:meth:`~SignalingController.create_multicast` — QoS contracts, AAL3/4
side channels), whose ids are a plain sequence.

Two kinds of channel come out of the controller:

* :class:`VirtualChannel` — the ordinary point-to-point PVC;
* :class:`MulticastChannel` — a point-to-multipoint VC: one source
  adapter, a replication *tree* programmed into the switches' multicast
  group tables (:meth:`repro.atm.switch.AtmSwitch.program_multicast`),
  and a leaf set of destination adapters.  This is the wire primitive
  the NIC-offloaded collectives (:mod:`repro.atm.collective`) broadcast
  over.

Routing runs on :attr:`AtmFabric.routes`, the fabric's one graph: a
name-keyed adjacency filled in connect order, so every universe of the
sharded kernel (each a whole copy of the cluster) computes the same
shortest paths.  A host is a leaf whose route is its switch's, so
shortest paths are computed once per switch
(:meth:`AtmFabric.path_nodes`).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from ..sim import Simulator
from .aal import Aal, AAL5
from .adapter import Sba200Adapter
from .link import Channel, DuplexLink, LinkSpec
from .switch import AtmSwitch

__all__ = ["Service", "VirtualChannel", "MulticastChannel", "AtmFabric",
           "FabricEdge", "NoPathError", "SignalingController", "circuit_id",
           "circuit_key", "vc_label", "label_vc", "MAX_HOSTS"]

#: first VCI available for user traffic (0-31 are reserved in UNI)
FIRST_USER_VCI = 32
#: user VCIs per VPI
_VCIS_PER_VPI = 65536 - FIRST_USER_VCI
#: host indices are 10-bit fields of the circuit id
MAX_HOSTS = 1024
_SERVICE_SHIFT = 20

Node = Union[Sba200Adapter, AtmSwitch]


class Service(enum.IntEnum):
    """What a circuit between two hosts is for (part of its identity)."""

    #: classical IP over ATM (RFC 1577): TCP, p4 and NCS Normal Speed Mode
    IP = 1
    #: raw PVC for NCS High Speed Mode
    HSM = 2
    #: NIC collectives, member adapter -> root adapter
    COLLECTIVE_UP = 3
    #: NIC collectives, root adapter -> one member adapter
    COLLECTIVE_DOWN = 4
    #: switch-replicated tree from ``src`` to every other host
    #: (``dst`` is ``src`` in the id)
    MULTICAST = 5


def circuit_id(src: int, dst: int, service: Service) -> int:
    """The ``vc_id`` of the ``service`` circuit from host index ``src``
    to host index ``dst``."""
    if not (0 <= src < MAX_HOSTS and 0 <= dst < MAX_HOSTS):
        raise ValueError(
            f"host index out of range for a circuit id: {src}->{dst} "
            f"(at most {MAX_HOSTS} hosts per fabric)")
    return (int(service) << _SERVICE_SHIFT) | (src << 10) | dst


def circuit_key(vc_id: int) -> tuple[int, int, Service]:
    """Invert :func:`circuit_id`: ``(src, dst, service)``.

    Raises ``KeyError`` for an ad-hoc id (those are a sequence, not a
    function of their endpoints)."""
    try:
        service = Service(vc_id >> _SERVICE_SHIFT)
    except ValueError:
        raise KeyError(f"VC {vc_id} is not an on-demand circuit") from None
    return (vc_id >> 10) & (MAX_HOSTS - 1), vc_id & (MAX_HOSTS - 1), service


def vc_label(vc_id: int) -> tuple[int, int]:
    """The ``(VPI, VCI)`` every hop of circuit ``vc_id`` carries.

    Ad-hoc ids (below ``1 << 20``) live in VPI 0; on-demand circuits
    fill VPIs 1.. in id order, skipping each VPI's reserved VCIs."""
    if vc_id >> _SERVICE_SHIFT == 0:
        vpi, n = 0, vc_id
    else:
        vpi, n = divmod(vc_id - (1 << _SERVICE_SHIFT), _VCIS_PER_VPI)
        vpi += 1
    if n >= _VCIS_PER_VPI or vpi > 255:
        raise ValueError(f"VC id {vc_id} does not fit a VPI/VCI label")
    return vpi, FIRST_USER_VCI + n


def label_vc(vpi: int, vci: int) -> int:
    """Invert :func:`vc_label`."""
    n = vci - FIRST_USER_VCI
    if vpi == 0:
        return n
    return (vpi - 1) * _VCIS_PER_VPI + n + (1 << _SERVICE_SHIFT)


@dataclass
class VirtualChannel:
    """An established VC between two adapters."""

    vc_id: int
    src: Sba200Adapter
    dst: Sba200Adapter
    src_vci: int
    hops: list[Channel]
    hop_vcis: list[int] = field(default_factory=list)
    aal: Aal = field(default_factory=lambda: AAL5)
    #: peak cell rate in cells/s (QoS traffic contract; None = best effort)
    pcr_cells_s: Optional[float] = None
    vpi: int = 0
    #: what the circuit is for (None: ad-hoc)
    service: Optional[Service] = None

    @property
    def n_switches(self) -> int:
        """How many switches the VC traverses."""
        return len(self.hops) - 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<VC {self.vc_id} {self.src.host_name}->"
                f"{self.dst.host_name} hops={len(self.hops)}>")


@dataclass
class MulticastChannel:
    """A point-to-multipoint VC: one source, a switch replication tree.

    Quacks enough like :class:`VirtualChannel` for
    :meth:`repro.atm.adapter.Sba200Adapter.send_pdu` — it has a
    ``vc_id``, a ``vpi``/``src_vci`` label and an ``aal`` — but fans
    out at every switch whose multicast group table carries an entry
    for it, terminating at each adapter in ``leaves``.
    """

    vc_id: int
    src: Sba200Adapter
    src_vci: int
    leaves: list[Sba200Adapter]
    #: every directed channel in the replication tree
    hops: list[Channel]
    aal: Aal = field(default_factory=lambda: AAL5)
    #: peak cell rate in cells/s (None = best effort, like PVCs)
    pcr_cells_s: Optional[float] = None
    vpi: int = 0
    service: Optional[Service] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MulticastVC {self.vc_id} ->{len(self.leaves)} leaves>"


class NoPathError(LookupError):
    """Two nodes of a fabric have no path between them."""


@dataclass(slots=True)
class FabricEdge:
    """A link of :attr:`AtmFabric.routes`: routing ``weight``, ``spec``,
    ``ends`` in connect order (channel ``a--b>`` runs a -> b), the
    ``link`` itself, and ``noisy`` (bit errors drawn from an rng)."""

    weight: float
    spec: LinkSpec
    ends: tuple[str, str]
    link: DuplexLink
    noisy: bool = False


def _shortest_paths(adj: dict, source: str, weight) -> dict[str, list[str]]:
    """Dijkstra from ``source`` (weights > 0): node -> path, per node
    reached.  ``weight(v, edge)`` costs a step onto ``v``; None hides the
    edge.  Ties break as this fabric's routes always have: the heap key
    is (distance, push count), neighbours come in insertion order, and
    only a strictly shorter push sets a node's path."""
    paths, best = {source: [source]}, {source: 0}
    fringe, pushes = [(0, 0, source)], itertools.count(1)
    while fringe:
        dist, _, v = heapq.heappop(fringe)
        if dist > best[v]:
            continue                    # stale: v was settled nearer
        for u, edge in adj[v].items():
            cost = weight(u, edge)
            if cost is not None and (u not in best or dist + cost < best[u]):
                best[u] = dist + cost
                heapq.heappush(fringe, (best[u], next(pushes), u))
                paths[u] = paths[v] + [u]
    return paths


class AtmFabric:
    """The physical ATM network: nodes and duplex links as a graph.

    ``routes`` (node name -> {neighbour: :class:`FabricEdge`}) holds
    every node in the order it was added and every link in connect
    order, which is what Dijkstra's ties break by; ``links`` are the
    duplex links in connect order.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.routes: dict[str, dict[str, FabricEdge]] = {}
        self.links: list[DuplexLink] = []
        self.adapters: dict[str, Sba200Adapter] = {}
        self.switches: dict[str, AtmSwitch] = {}
        #: every host in pid order: the index space of :func:`circuit_id`
        self.hosts: list[str] = []
        self._host_index: dict[str, int] = {}
        #: (upstream node name, downstream node name) -> directed channel
        self._channels: dict[tuple[str, str], Channel] = {}
        #: the controller that establishes circuits on a switch miss
        self.signaling: Optional["SignalingController"] = None
        # shortest paths over the non-leaf core, computed lazily per
        # gateway and kept: gateway -> {core node: [node names]}.  One
        # Dijkstra per *switch whose hosts ever send*, not one per host
        # or per (src, dst) pair.
        self._path_cache: dict[str, dict[str, list[str]]] = {}

    # -------------------------------------------------------------- building
    def _add_node(self, name: str) -> None:
        if name in self.routes:
            raise ValueError(f"duplicate fabric node name {name!r}")
        self.routes[name] = {}
        self._path_cache.clear()

    def add_adapter(self, adapter: Sba200Adapter) -> Sba200Adapter:
        """Register an adapter as a fabric node."""
        name = adapter.host_name
        if name in self.adapters:
            raise ValueError(f"duplicate adapter for host {name}")
        self._add_node(name)
        self._host_index[name] = len(self.hosts)
        self.hosts.append(name)
        self.adapters[name] = adapter
        return adapter

    def add_switch(self, switch: AtmSwitch) -> AtmSwitch:
        """Register a switch as a fabric node."""
        if switch.name in self.switches:
            raise ValueError(f"duplicate switch {switch.name}")
        self._add_node(switch.name)
        self.switches[switch.name] = switch
        switch.on_miss = self._on_switch_miss
        return switch

    def connect(self, a: Node, b: Node, spec: LinkSpec,
                rng_a=None, rng_b=None) -> DuplexLink:
        """Create a duplex link between two nodes and wire endpoints."""
        a_name, b_name = _node_name(a), _node_name(b)
        link = DuplexLink(self.sim, f"{a_name}--{b_name}", spec, rng_a, rng_b)
        link.fwd.connect(b)   # a -> b terminates at b
        link.rev.connect(a)   # b -> a terminates at a
        if isinstance(a, Sba200Adapter):
            a.attach_uplink(link.fwd)
        if isinstance(b, Sba200Adapter):
            b.attach_uplink(link.rev)
        self._channels[a_name, b_name] = link.fwd
        self._channels[b_name, a_name] = link.rev
        self.routes[a_name][b_name] = self.routes[b_name][a_name] = FabricEdge(
            spec.prop_delay_s + 1e-9, spec, (a_name, b_name), link,
            noisy=rng_a is not None or rng_b is not None)
        self._path_cache.clear()
        self.links.append(link)
        return link

    # --------------------------------------------------------------- queries
    def host_index(self, host: str) -> int:
        """Position of ``host`` in :attr:`hosts` (its circuit-id field)."""
        try:
            return self._host_index[host]
        except KeyError:
            raise KeyError(
                f"no host {host!r} on this fabric; hosts: "
                f"{', '.join(self.hosts[:8])}"
                f"{', ...' if len(self.hosts) > 8 else ''}") from None

    def _gateway(self, node: str) -> str:
        """A leaf's only neighbour (a host's switch), else ``node``: where
        routing on its behalf starts.  The ends of a bare two-node
        fabric are no leaves, there would be no core left to route on."""
        nbrs = self.routes[node]
        gateway = next(iter(nbrs)) if len(nbrs) == 1 else node
        return gateway if len(self.routes[gateway]) > 1 else node

    def path_nodes(self, src, dst) -> list[str]:
        """Shortest path (by propagation delay) between two hosts, as
        node names.  ``src``/``dst`` may be adapters or host names.

        A leaf's route is its gateway's.  Dijkstra runs from gateways
        only, over ``routes`` with every leaf edge hidden: core nodes
        are met in the order a run from the leaf meets them, so ties
        (the opposite site of an even ring) break the same way."""
        src, dst = _node_name(src), _node_name(dst)
        if src == dst:
            return [src]
        via, to = self._gateway(src), self._gateway(dst)
        cache = self._path_cache.get(via)
        if cache is None:
            gateway = self._gateway
            cache = self._path_cache[via] = _shortest_paths(
                self.routes, via, lambda v, edge:
                edge.weight if gateway(v) == v else None)
        if to not in cache:
            raise NoPathError(f"no path between {src} and {dst}")
        return [src] * (via != src) + cache[to] + [dst] * (to != dst)

    def channel(self, a: str, b: str) -> Optional[Channel]:
        """The directed channel ``a -> b`` (None: the two are not linked)."""
        return self._channels.get((a, b))

    def directed_channels(self, nodes: list[str]) -> list[Channel]:
        """The directed channel of each consecutive pair of a path."""
        return [self._channels[pair] for pair in itertools.pairwise(nodes)]

    def _on_switch_miss(self, vpi: int, vci: int) -> bool:
        """A switch saw a label it has no row for: establish the
        circuit it names, if it names one."""
        if self.signaling is None:
            return False
        try:
            self.signaling.resolve(label_vc(vpi, vci))
        except KeyError:
            return False
        return True


def _node_name(node) -> str:
    if isinstance(node, str):
        return node
    return node.host_name if isinstance(node, Sba200Adapter) else node.name


class SignalingController:
    """Establishes circuits on first use and programs the switch tables
    along their paths."""

    #: per-hop signaling processing latency for timed setup
    PER_HOP_SETUP_S = 750e-6

    def __init__(self, fabric: AtmFabric):
        self.fabric = fabric
        fabric.signaling = self
        self._adhoc_ids = itertools.count(1)
        self.open_vcs: dict[int, VirtualChannel] = {}
        self.open_mcast: dict[int, MulticastChannel] = {}
        #: on-demand circuits torn down on purpose: a stray cell must
        #: not bring them back
        self._released: set[int] = set()

    # ------------------------------------------------------------- on demand
    def circuit(self, src_host: str, dst_host: str,
                service: Service) -> VirtualChannel:
        """The ``service`` PVC from ``src_host`` to ``dst_host``,
        established now if nothing used it before (at zero simulated
        cost, like any PVC configuration)."""
        fabric = self.fabric
        src, dst = fabric.host_index(src_host), fabric.host_index(dst_host)
        if src == dst:
            raise ValueError(
                f"cannot open a VC from host {src_host} to itself")
        vc_id = circuit_id(src, dst, service)
        vc = self.open_vcs.get(vc_id)
        if vc is None:
            vc = self._establish(vc_id, src_host, dst_host, service=service)
        return vc

    def broadcast_tree(self, src_host: str) -> MulticastChannel:
        """The multicast VC from ``src_host`` to every other host."""
        src = self.fabric.host_index(src_host)
        vc_id = circuit_id(src, src, Service.MULTICAST)
        mvc = self.open_mcast.get(vc_id)
        if mvc is None:
            leaves = [h for h in self.fabric.hosts if h != src_host]
            mvc = self._establish_tree(vc_id, src_host, leaves,
                                       service=Service.MULTICAST)
        return mvc

    def resolve(self, vc_id: int):
        """The open channel with this id, establishing the on-demand
        circuit it encodes if this universe has not seen it yet.

        This is the data plane's entry (switch-table miss, cross-shard
        burst import).  ``KeyError`` for ids that name nothing
        establishable: unknown ad-hoc ids and released circuits."""
        vc = self.open_vcs.get(vc_id) or self.open_mcast.get(vc_id)
        if vc is not None:
            return vc
        if vc_id in self._released:
            raise KeyError(f"VC {vc_id} was torn down")
        src, dst, service = circuit_key(vc_id)
        hosts = self.fabric.hosts
        multicast = service is Service.MULTICAST
        if max(src, dst) >= len(hosts) or (src == dst) != multicast:
            raise KeyError(f"VC {vc_id} names no circuit of this fabric")
        if multicast:
            return self.broadcast_tree(hosts[src])
        return self.circuit(hosts[src], hosts[dst], service)

    # --------------------------------------------------------------- ad hoc
    def create_pvc(self, src_host: str, dst_host: str,
                   aal: Optional[Aal] = None,
                   pcr_cells_s: Optional[float] = None) -> VirtualChannel:
        """Provision one more VC between two hosts, next to their
        on-demand circuits — a QoS contract, another AAL."""
        if self.fabric.host_index(src_host) == \
                self.fabric.host_index(dst_host):
            raise ValueError("cannot open a VC from a host to itself")
        return self._establish(next(self._adhoc_ids), src_host, dst_host,
                               aal=aal, pcr_cells_s=pcr_cells_s)

    def setup_vc(self, src_host: str, dst_host: str,
                 aal: Optional[Aal] = None,
                 pcr_cells_s: Optional[float] = None):
        """Generator: timed SVC setup (per-hop signaling latency), returns
        the established VC."""
        nodes = self.fabric.path_nodes(src_host, dst_host)
        # one round trip of per-hop processing, like UNI 3.0 SETUP/CONNECT
        delay = 2 * len(nodes) * self.PER_HOP_SETUP_S + 2 * sum(
            ch.spec.prop_delay_s for ch in self.fabric.directed_channels(nodes))
        yield delay
        return self.create_pvc(src_host, dst_host, aal, pcr_cells_s)

    def create_multicast(self, src_host: str, dst_hosts: list[str],
                         aal: Optional[Aal] = None,
                         pcr_cells_s: Optional[float] = None
                         ) -> MulticastChannel:
        """Provision a point-to-multipoint VC from ``src_host`` to every
        host in ``dst_hosts``.

        The union of the shortest paths to each destination forms the
        replication tree, and every switch on it gets a **multicast
        group entry** (:meth:`repro.atm.switch.AtmSwitch.program_multicast`)
        mapping its incoming channel to the set of outgoing legs — cell
        replication happens at the switch output ports, so the source
        transmits each PDU exactly once no matter how many leaves
        listen.
        """
        if src_host in dst_hosts:
            raise ValueError(
                f"multicast from {src_host} cannot include itself")
        if not dst_hosts:
            raise ValueError("multicast needs at least one destination")
        for dst in dst_hosts:
            self.fabric.host_index(dst)                 # KeyError if unknown
        return self._establish_tree(next(self._adhoc_ids), src_host,
                                    dst_hosts, aal=aal,
                                    pcr_cells_s=pcr_cells_s)

    # ------------------------------------------------------------- mechanics
    def _establish(self, vc_id: int, src_host: str, dst_host: str,
                   service: Optional[Service] = None,
                   aal: Optional[Aal] = None,
                   pcr_cells_s: Optional[float] = None) -> VirtualChannel:
        """Program the switches along the path and open the VC."""
        fabric = self.fabric
        vpi, vci = vc_label(vc_id)
        nodes = fabric.path_nodes(src_host, dst_host)
        for prev, name, nxt in zip(nodes, nodes[1:], nodes[2:]):
            fabric.switches[name].program(
                fabric.channel(prev, name), vci,
                fabric.channel(name, nxt), vci, vpi=vpi)
        hops = fabric.directed_channels(nodes)
        vc = VirtualChannel(
            vc_id=vc_id, src=fabric.adapters[src_host],
            dst=fabric.adapters[dst_host], src_vci=vci, hops=hops,
            hop_vcis=[vci] * len(hops), aal=aal or AAL5,
            pcr_cells_s=pcr_cells_s, vpi=vpi, service=service)
        self.open_vcs[vc_id] = vc
        self._released.discard(vc_id)
        return vc

    def _establish_tree(self, vc_id: int, src_host: str,
                        dst_hosts: list[str],
                        service: Optional[Service] = None,
                        aal: Optional[Aal] = None,
                        pcr_cells_s: Optional[float] = None
                        ) -> MulticastChannel:
        """Program the switches of the replication tree and open the
        multicast VC.  The tree is the union of the shortest paths
        to each leaf; every node of it has one parent, so every switch
        has one incoming channel."""
        fabric = self.fabric
        vpi, vci = vc_label(vc_id)
        edges = dict.fromkeys(                          # insertion-ordered
            edge for dst in dst_hosts
            for edge in itertools.pairwise(fabric.path_nodes(src_host, dst)))
        parent = {name: prev for prev, name in edges}
        if len(parent) != len(edges):  # pragma: no cover - wiring invariant
            raise RuntimeError(
                f"multicast tree from {src_host} is not a tree: a node "
                "has two different incoming channels")
        fanout: dict[str, list[str]] = {}               # switch -> next hops
        for prev, name in edges:
            if prev != src_host:
                fanout.setdefault(prev, []).append(name)
        for name, nexts in fanout.items():
            fabric.switches[name].program_multicast(
                fabric.channel(parent[name], name), vci,
                [(fabric.channel(name, nxt), vci) for nxt in nexts],
                vpi=vpi)
        mvc = MulticastChannel(
            vc_id=vc_id, src=fabric.adapters[src_host], src_vci=vci,
            leaves=[fabric.adapters[d] for d in dst_hosts],
            hops=[fabric._channels[edge] for edge in edges],
            aal=aal or AAL5, pcr_cells_s=pcr_cells_s, vpi=vpi,
            service=service)
        self.open_mcast[vc_id] = mvc
        return mvc

    def teardown(self, vc: VirtualChannel) -> None:
        """Release a VC's switch-table entries."""
        self.open_vcs.pop(vc.vc_id, None)
        if vc.service is not None:
            self._released.add(vc.vc_id)
        for ch in vc.hops:
            if isinstance(ch.endpoint, AtmSwitch):
                ch.endpoint.unprogram(ch, vc.src_vci, vpi=vc.vpi)
