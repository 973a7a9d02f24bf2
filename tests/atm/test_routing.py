"""Routes are computed once per switch; they are the routes networkx
computes from every host.

:meth:`repro.atm.signaling.AtmFabric.path_nodes` treats a node with one
link as a leaf whose route is its gateway's, and runs Dijkstra (the
fabric's own :func:`repro.atm.signaling._shortest_paths`) only from
gateways, over the non-leaf core.  The oracle stays what the fabric used
to do — ``nx.shortest_path`` from the source host over the whole
topology, as an ``nx.Graph`` replayed from the fabric's nodes and its
``connect`` calls in connect order — in this file only.
Equality includes the ties: on a ring with an even number of sites the
opposite site is equally far both ways round, and which way a circuit
goes decides which trunk queues.
"""

import networkx as nx
import pytest

from repro.atm import (AtmFabric, AtmSwitch, NoPathError, Sba200Adapter,
                       TAXI_140)
from repro.config import ensure_components
from repro.net.nynet import SiteSpec
from repro.registry import TOPOLOGIES
from repro.sim import Simulator

ensure_components()

#: (registered topology, builder arguments): every ATM one, several sizes
BUILDS = [
    ("atm-lan", {"n_hosts": 1}),
    ("atm-lan", {"n_hosts": 2}),
    ("atm-lan", {"n_hosts": 6}),
    ("atm-dual", {"n_hosts": 4}),
    ("platform-nynet", {"n_hosts": 5}),
    ("nynet-testbed", {"n_upstate": 3, "n_downstate": 2}),
    ("nynet", {"sites": [SiteSpec("syr", 2), SiteSpec("rome", 1),
                         SiteSpec("nyc", 3)]}),
    ("wan-ring", {"n_sites": 2, "hosts_per_site": 1}),
    ("wan-ring", {"n_sites": 3, "hosts_per_site": 2}),
    ("wan-ring", {"n_sites": 6, "hosts_per_site": 2}),
    ("wan-ring", {"n_sites": 8, "hosts_per_site": 2}),
]
IDS = [f"{name}-{'x'.join(str(v) for v in kw.values() if isinstance(v, int))}"
       for name, kw in BUILDS]


#: fabric -> the ends of every link it was told about, in connect order
CONNECTS: dict = {}


@pytest.fixture(autouse=True)
def connect_order(monkeypatch):
    """Record the ends of every ``connect`` call."""
    plain = AtmFabric.connect

    def recording(self, a, b, *args, **kwargs):
        link = plain(self, a, b, *args, **kwargs)
        CONNECTS.setdefault(self, []).append(tuple(link.name.split("--")))
        return link
    monkeypatch.setattr(AtmFabric, "connect", recording)
    yield
    CONNECTS.clear()


def oracle_graph(fabric) -> nx.Graph:
    """The fabric's topology as networkx would have held it: the nodes
    in insertion order, then the edges in connect order."""
    graph = nx.Graph()
    graph.add_nodes_from(fabric.routes)
    for a, b in CONNECTS[fabric]:
        graph.add_edge(a, b, weight=fabric.routes[a][b].weight)
    # the replay is the fabric's graph, neighbour order and all
    assert [(u, list(nbrs)) for u, nbrs in graph.adj.items()] \
        == [(u, list(nbrs)) for u, nbrs in fabric.routes.items()]
    return graph


def assert_routes_are_networkx_routes(fabric):
    hosts = fabric.hosts
    graph = oracle_graph(fabric)
    for src in hosts:
        oracle = nx.shortest_path(graph, src, weight="weight")
        for dst in hosts:
            assert fabric.path_nodes(src, dst) == oracle[dst], (src, dst)


@pytest.mark.parametrize("name,kw", BUILDS, ids=IDS)
def test_full_universe_routes(name, kw):
    assert_routes_are_networkx_routes(
        TOPOLOGIES.get(name)(**kw).fabric)


def test_even_ring_ties_break_as_from_the_host():
    """The case the oracle is for: both ways round are equally long."""
    fabric = TOPOLOGIES.get("wan-ring")(n_sites=6, hosts_per_site=1).fabric
    src, opposite = fabric.hosts[0], fabric.hosts[3]
    graph = oracle_graph(fabric)
    ways = list(nx.all_shortest_paths(graph, src, opposite,
                                      weight="weight"))
    assert len(ways) == 2
    assert fabric.path_nodes(src, opposite) == nx.shortest_path(
        graph, src, weight="weight")[opposite]


@pytest.fixture
def dijkstra_runs(monkeypatch):
    """The sources ``repro.atm.signaling`` runs Dijkstra from."""
    import repro.atm.signaling as signaling
    sources = []
    plain = signaling._shortest_paths

    def counted(adj, source, weight):
        sources.append(source)
        return plain(adj, source, weight)
    monkeypatch.setattr(signaling, "_shortest_paths", counted)
    return sources


def test_a_star_all_to_all_runs_dijkstra_once(dijkstra_runs):
    """64 hosts, 4 032 circuits, one switch: one route computation."""
    cluster = TOPOLOGIES.get("atm-lan")(n_hosts=64)
    for src in range(64):
        for dst in range(64):
            if src != dst:
                assert len(cluster.hsm_vc(src, dst).hops) == 2
    assert dijkstra_runs == ["fore-sw"]


def test_a_ring_runs_dijkstra_once_per_switch(dijkstra_runs):
    fabric = TOPOLOGIES.get("wan-ring")(n_sites=4, hosts_per_site=3).fabric
    for src in fabric.hosts:
        for dst in fabric.hosts:
            fabric.path_nodes(src, dst)
    assert sorted(dijkstra_runs) == sorted(fabric.switches)


class TestShapesOutsideTheRegistry:
    """``path_nodes`` is the fabric's, not the registered topologies'."""

    @staticmethod
    def fabric(edges, hosts):
        sim = Simulator()
        fabric = AtmFabric(sim)
        nodes = {}
        for name in dict.fromkeys(n for edge in edges for n in edge):
            if name in hosts:
                nodes[name] = fabric.add_adapter(Sba200Adapter(sim, name))
            else:
                nodes[name] = fabric.add_switch(AtmSwitch(sim, name))
        for a, b in edges:
            fabric.connect(nodes[a], nodes[b], TAXI_140)
        return fabric

    def test_two_node_fabric_has_no_core_to_lose(self):
        fabric = self.fabric([("h0", "sw")], {"h0"})
        assert fabric.path_nodes("h0", "sw") == ["h0", "sw"]
        assert fabric.path_nodes("h0", "h0") == ["h0"]

    def test_switch_chain_with_a_dangling_switch(self):
        fabric = self.fabric([("h0", "s0"), ("s0", "s1"), ("s1", "s2"),
                              ("s1", "h1"), ("s2", "h2"), ("s1", "s3")],
                             {"h0", "h1", "h2"})
        assert_routes_are_networkx_routes(fabric)
        assert fabric.path_nodes("h0", "h2") == ["h0", "s0", "s1", "s2", "h2"]
        # switches are nodes too: from, to and between them
        graph = oracle_graph(fabric)
        for src in fabric.routes:
            oracle = nx.shortest_path(graph, src, weight="weight")
            for dst in fabric.routes:
                assert fabric.path_nodes(src, dst) == oracle[dst], (src, dst)

    def test_no_path_names_the_pair(self):
        fabric = self.fabric([("h0", "s0"), ("s0", "h1"),
                              ("h2", "s1"), ("s1", "h3")],
                             {"h0", "h1", "h2", "h3"})
        with pytest.raises(NoPathError, match="h0 and h3"):
            fabric.path_nodes("h0", "h3")

    def test_a_link_added_later_reroutes(self):
        fabric = self.fabric([("h0", "s0"), ("s0", "s1"), ("s1", "s2"),
                              ("s2", "h1")], {"h0", "h1"})
        assert fabric.path_nodes("h0", "h1") == ["h0", "s0", "s1", "s2", "h1"]
        fabric.connect(fabric.switches["s0"], fabric.switches["s2"],
                       TAXI_140)
        assert fabric.path_nodes("h0", "h1") == ["h0", "s0", "s2", "h1"]
