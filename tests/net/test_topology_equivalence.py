"""Topology equivalence properties.

Every registered topology builds a cluster in one call, and that
cluster's *construction signature* (host rows, fabric graph, routing
graph, host directory, TCP state, full metrics snapshot — and, once
every pair's circuits have been asked for, every VC id, label and
switch-table row) is identical to the imperative builder kept in
:mod:`tests.net.reference_builders`.
Trace-level byte identity is additionally gated by the perf-lock and
sharded-determinism goldens.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import Service
from repro.config import ClusterSpec, build_cluster, ensure_components
from repro.net import Cluster
from repro.net.nynet import SiteSpec
from repro.registry import TOPOLOGIES

from tests.atm.test_circuit_identity import (described as vc_signature,
                                             tables as switch_tables)

from .reference_builders import (
    reference_atm_cluster, reference_atm_dual_cluster,
    reference_ethernet_cluster, reference_nynet, reference_wan_ring,
)

SMALL = settings(deadline=None, max_examples=12)


# --------------------------------------------------------------------------
# the construction signature
# --------------------------------------------------------------------------

def construction_signature(cluster) -> dict:
    """Everything structurally observable about a built cluster."""
    sig: dict = {
        "medium": cluster.medium,
        "hosts": [s.host.name for s in cluster.stacks],
        "lan": cluster.lan is not None,
        "tcp": [(s.tcp.preconnect, len(s.tcp.connections()))
                for s in cluster.stacks],
        "metrics": cluster.metrics.snapshot(),
    }
    fabric = cluster.fabric
    if fabric is not None:
        sig["graph_nodes"] = [n for n in fabric.routes
                              if n in fabric.adapters or n in fabric.switches]
        sig["graph_edges"] = [(link.fwd.name, link.fwd.spec.name)
                              for link in fabric.links]
        sig["route_nodes"] = list(fabric.routes)
        sig["route_edges"] = [
            (u, v, e.weight, e.spec.name, e.ends, e.noisy, e.link is not None)
            for u, nbrs in fabric.routes.items() for v, e in nbrs.items()]
        sig["fabric_hosts"] = list(fabric.hosts)
        # nothing is provisioned per pair at construction ...
        sig["open_at_build"] = len(cluster.signaling.open_vcs)
        # ... and asking for every pair's circuits programs the same
        # ids, labels and switch rows on both sides
        names = sig["hosts"]
        sig["vcs"] = [
            vc_signature(cluster.signaling.circuit(src, dst, service))
            for service in (Service.IP, Service.HSM)
            for src in names for dst in names if src != dst]
        sig["switch_tables"] = switch_tables(fabric)
    return sig


def _built(name: str, **kw):
    return TOPOLOGIES.get(name)(**kw)


# --------------------------------------------------------------------------
# equivalence: registered builder == pre-refactor builder
# --------------------------------------------------------------------------

#: arguments that build a small instance of each registered topology
_SMALL_ARGS = {"nynet": {"sites": [SiteSpec("s", 2)]},
               "nynet-testbed": {}, "wan-ring": {}}


def test_every_registered_topology_builds_a_cluster():
    ensure_components()
    assert len(TOPOLOGIES) == 8
    for name in TOPOLOGIES:
        kw = _SMALL_ARGS.get(name, {"n_hosts": 2})
        cluster = TOPOLOGIES.get(name)(**kw)
        assert isinstance(cluster, Cluster), name
        options = {k: v for k, v in kw.items() if k != "n_hosts"}
        spec = ClusterSpec(topology=name, n_hosts=kw.get("n_hosts"),
                           options=options)
        assert construction_signature(build_cluster(spec)) \
            == construction_signature(cluster), name


@SMALL
@given(n_hosts=st.integers(1, 5), preconnect=st.booleans(),
       metrics=st.booleans())
def test_ethernet_equivalence(n_hosts, preconnect, metrics):
    ref = reference_ethernet_cluster(n_hosts, preconnect=preconnect,
                                     metrics=metrics)
    new = _built("ethernet", n_hosts=n_hosts, preconnect=preconnect,
                 metrics=metrics)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_hosts=st.integers(1, 4), train_cells=st.sampled_from([64, 256]),
       preconnect=st.booleans())
def test_atm_lan_equivalence(n_hosts, train_cells, preconnect):
    ref = reference_atm_cluster(n_hosts, train_cells=train_cells,
                                preconnect=preconnect)
    new = _built("atm-lan", n_hosts=n_hosts, train_cells=train_cells,
                 preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_hosts=st.integers(1, 4), preconnect=st.booleans())
def test_atm_dual_equivalence(n_hosts, preconnect):
    ref = reference_atm_dual_cluster(n_hosts, preconnect=preconnect)
    new = _built("atm-dual", n_hosts=n_hosts, preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


_SITES = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from(["upstate", "downstate"])),
    min_size=1, max_size=4,
).filter(lambda rows: any(n for n, _ in rows)).map(
    lambda rows: [SiteSpec(f"s{i}", n, region)
                  for i, (n, region) in enumerate(rows)])


@SMALL
@given(sites=_SITES, preconnect=st.booleans())
def test_nynet_equivalence(sites, preconnect):
    ref = reference_nynet(sites, preconnect=preconnect)
    new = _built("nynet", sites=sites, preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


def test_nynet_testbed_equivalence():
    ref = reference_nynet([SiteSpec("syr", 3, "upstate"),
                           SiteSpec("nyc", 2, "downstate")])
    new = _built("nynet-testbed", n_upstate=3, n_downstate=2)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_sites=st.integers(1, 5), hosts_per_site=st.integers(1, 2),
       preconnect=st.booleans())
def test_wan_ring_equivalence(n_sites, hosts_per_site, preconnect):
    ref = reference_wan_ring(n_sites=n_sites, hosts_per_site=hosts_per_site,
                             preconnect=preconnect)
    new = _built("wan-ring", n_sites=n_sites,
                 hosts_per_site=hosts_per_site, preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


def test_builder_validation_errors_match():
    import pytest
    for name, kw, msg in [
            ("ethernet", {"n_hosts": 0}, "need at least one host"),
            ("atm-lan", {"n_hosts": 0}, "need at least one host"),
            ("atm-dual", {"n_hosts": -1}, "need at least one host"),
            ("wan-ring", {"n_sites": 0}, "n_sites must be >= 1"),
            ("wan-ring", {"hosts_per_site": 0},
             "hosts_per_site must be >= 1"),
            ("nynet", {"sites": []}, "need at least one site with hosts"),
            ("nynet", {"sites": [SiteSpec("a", 1), SiteSpec("a", 1)]},
             "site names must be unique"),
    ]:
        with pytest.raises(ValueError, match=msg):
            TOPOLOGIES.get(name)(**kw)
