"""Blueprint equivalence and shard-coverage properties (ISSUE 9, 12).

Two families of guarantees over :mod:`repro.net.blueprint`:

* **Equivalence** — every registered topology returns a blueprint, and
  ``materialize(blueprint)`` produces a cluster whose *construction
  signature* (host rows, fabric graph, routing graph, host directory,
  TCP state, full metrics snapshot — and, once every pair's circuits
  have been asked for, every VC id, label and switch-table row) is
  identical to the imperative builder kept in
  :mod:`tests.net.reference_builders`.  Trace-level byte identity is
  additionally gated by the perf-lock and sharded-determinism goldens.
* **Coverage** — the union of per-shard partial materializations covers
  every blueprint host and switch exactly once (ghosts and boundary
  stubs excluded), every universe routes every pair identically, and
  every VC a partial universe establishes equals the full universe's VC
  for that pair on the switches the shard owns, for any shard count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import Service
from repro.atm.signaling import label_vc
from repro.config import ensure_components
from repro.net.blueprint import PlanView, TopologyBlueprint, materialize
from repro.net.nynet import SiteSpec
from repro.registry import TOPOLOGIES
from repro.sim.sharded import plan_shards

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


def _bp_cluster(name: str, **kw):
    return materialize(TOPOLOGIES.get(name)(**kw))


# --------------------------------------------------------------------------
# equivalence: materialize(blueprint) == pre-refactor builder
# --------------------------------------------------------------------------

#: arguments that build a small instance of each registered topology
_SMALL_ARGS = {"nynet": {"sites": [SiteSpec("s", 2)]},
               "nynet-testbed": {}, "wan-ring": {}}


def test_every_registered_topology_returns_a_blueprint():
    ensure_components()
    assert len(TOPOLOGIES) == 8
    for name in TOPOLOGIES:
        bp = TOPOLOGIES.get(name)(**_SMALL_ARGS.get(name, {"n_hosts": 2}))
        assert isinstance(bp, TopologyBlueprint), name


@SMALL
@given(n_hosts=st.integers(1, 5), preconnect=st.booleans(),
       metrics=st.booleans())
def test_ethernet_equivalence(n_hosts, preconnect, metrics):
    ref = reference_ethernet_cluster(n_hosts, preconnect=preconnect,
                                     metrics=metrics)
    new = _bp_cluster("ethernet", n_hosts=n_hosts, preconnect=preconnect,
                      metrics=metrics)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_hosts=st.integers(1, 4), train_cells=st.sampled_from([64, 256]),
       preconnect=st.booleans())
def test_atm_lan_equivalence(n_hosts, train_cells, preconnect):
    ref = reference_atm_cluster(n_hosts, train_cells=train_cells,
                                preconnect=preconnect)
    new = _bp_cluster("atm-lan", n_hosts=n_hosts, train_cells=train_cells,
                      preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_hosts=st.integers(1, 4), preconnect=st.booleans())
def test_atm_dual_equivalence(n_hosts, preconnect):
    ref = reference_atm_dual_cluster(n_hosts, preconnect=preconnect)
    new = _bp_cluster("atm-dual", n_hosts=n_hosts, preconnect=preconnect)
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
    new = _bp_cluster("nynet", sites=sites, preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


def test_nynet_testbed_equivalence():
    ref = reference_nynet([SiteSpec("syr", 3, "upstate"),
                           SiteSpec("nyc", 2, "downstate")])
    new = _bp_cluster("nynet-testbed", n_upstate=3, n_downstate=2)
    assert construction_signature(new) == construction_signature(ref)


@SMALL
@given(n_sites=st.integers(1, 5), hosts_per_site=st.integers(1, 2),
       preconnect=st.booleans())
def test_wan_ring_equivalence(n_sites, hosts_per_site, preconnect):
    ref = reference_wan_ring(n_sites=n_sites, hosts_per_site=hosts_per_site,
                             preconnect=preconnect)
    new = _bp_cluster("wan-ring", n_sites=n_sites,
                      hosts_per_site=hosts_per_site, preconnect=preconnect)
    assert construction_signature(new) == construction_signature(ref)


def test_blueprint_validation_errors_match():
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


# --------------------------------------------------------------------------
# routing fidelity: a partial universe's routes == the full universe's
# --------------------------------------------------------------------------

def _shard_universes(bp, shards):
    plan = plan_shards(PlanView(bp), shards)
    for shard in range(plan.n_shards):
        owned = {swn for swn, s in plan.switch_shard.items() if s == shard}
        yield owned, materialize(bp, owned_switches=owned)


def _assert_shadow_paths_match(bp, shards):
    """The name-level routing graph a shard universe fills in for nodes
    it did not materialize yields exactly the full universe's paths
    (same insertion order and weights, so same Dijkstra tie-breaks)."""
    full = materialize(bp).fabric
    hosts = full.hosts
    for _owned, part in _shard_universes(bp, shards):
        assert part.fabric.hosts == hosts
        assert list(part.fabric.routes) == list(full.routes)
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    assert (part.fabric.path_nodes(src, dst)
                            == full.path_nodes(src, dst)), (src, dst)


def test_shadow_paths_match_wan_ring():
    _assert_shadow_paths_match(
        TOPOLOGIES.get("wan-ring")(n_sites=5, hosts_per_site=2), shards=3)


def test_shadow_paths_match_nynet():
    _assert_shadow_paths_match(TOPOLOGIES.get("nynet-testbed")(
        n_upstate=3, n_downstate=2), shards=2)


# --------------------------------------------------------------------------
# shard coverage: union of partial materializations == the blueprint
# --------------------------------------------------------------------------

@SMALL
@given(n_sites=st.integers(2, 5), hosts_per_site=st.integers(1, 2),
       shards=st.integers(2, 4))
def test_shard_union_covers_every_node_exactly_once(
        n_sites, hosts_per_site, shards):
    bp = TOPOLOGIES.get("wan-ring")(n_sites=n_sites,
                                    hosts_per_site=hosts_per_site)
    seen_hosts: list[str] = []
    seen_switches: list[str] = []
    for _owned, part in _shard_universes(bp, shards):
        assert len(part.stacks) == bp.n_hosts       # pid-stable rows
        real = [s for s in part.stacks if not getattr(s, "ghost", False)]
        seen_hosts.extend(s.host.name for s in real)
        seen_switches.extend(part.fabric.switches)   # stubs excluded
    assert sorted(seen_hosts) == sorted(h.name for h in bp.hosts)
    assert len(seen_hosts) == len(set(seen_hosts))
    assert sorted(seen_switches) == sorted(s.name for s in bp.switches)
    assert len(seen_switches) == len(set(seen_switches))


@SMALL
@given(n_sites=st.integers(2, 4), hosts_per_site=st.integers(1, 2),
       shards=st.integers(2, 4), data=st.data())
def test_partial_identities_match_full_build(n_sites, hosts_per_site,
                                             shards, data):
    """Every VC a partial universe establishes equals the full
    universe's VC for that pair on the switches the shard owns —
    whichever pairs it is asked for, in whatever order, and whether the
    request comes from an endpoint (``circuit``) or from a burst in
    transit (``resolve``)."""
    bp = TOPOLOGIES.get("wan-ring")(n_sites=n_sites,
                                    hosts_per_site=hosts_per_site)
    full = materialize(bp)
    names = full.fabric.hosts
    pairs = [(s, d, svc) for s in names for d in names if s != d
             for svc in (Service.IP, Service.HSM)]
    full_vcs = {key: full.signaling.circuit(*key) for key in pairs}
    full_tables = switch_tables(full.fabric)
    for owned, part in _shard_universes(bp, shards):
        assert not part.signaling.open_vcs          # nothing pre-provisioned
        have = {ch.name for ch in part.fabric._channels.values()}
        asked = data.draw(st.lists(st.sampled_from(pairs), unique=True,
                                   max_size=len(pairs)))
        for key in asked:
            ref = full_vcs[key]
            if data.draw(st.booleans()):
                vc = part.signaling.circuit(*key)
            else:
                vc = part.signaling.resolve(ref.vc_id)
            assert (vc.vc_id, vc.vpi, vc.src_vci) == \
                (ref.vc_id, ref.vpi, ref.src_vci)
            assert [ch.name for ch in vc.hops] == \
                [ch.name for ch in ref.hops if ch.name in have]
            for end, ref_end in ((vc.src, ref.src), (vc.dst, ref.dst)):
                assert end is None or end.host_name == ref_end.host_name
        asked_ids = {full_vcs[key].vc_id for key in asked}
        for name, rows in switch_tables(part.fabric).items():
            assert name in owned
            assert rows == [row for row in full_tables[name]
                            if _row_vc_id(row) in asked_ids]


def _row_vc_id(row) -> int:
    (_ch, vpi, vci), _out = row
    return label_vc(vpi, vci)


def test_plan_from_planview_matches_plan_from_cluster():
    """Cost-model planning off the blueprint must agree with planning
    off the fully materialized cluster."""
    bp = TOPOLOGIES.get("wan-ring")(n_sites=6, hosts_per_site=2)
    from_view = plan_shards(PlanView(bp), 3)
    from_real = plan_shards(materialize(bp), 3)
    assert from_view.n_shards == from_real.n_shards
    assert from_view.pid_shard == from_real.pid_shard
    assert from_view.switch_shard == from_real.switch_shard
    assert from_view.channel_shard == from_real.channel_shard
    assert from_view.lookahead == from_real.lookahead


def test_partial_requires_pure_atm_rail():
    import pytest
    bp = TOPOLOGIES.get("atm-dual")(n_hosts=2)
    with pytest.raises(ValueError, match="pure ATM-rail"):
        materialize(bp, owned_switches={"fore-sw"})
    bp = TOPOLOGIES.get("wan-ring")(n_sites=2, hosts_per_site=1)
    with pytest.raises(ValueError, match="unknown switches"):
        materialize(bp, owned_switches={"sw-r0", "nope"})
