"""Circuit identity is a pure function of ``(src, dst, service)``.

On-demand establishment only works — across establishment orders and
across the shard universes of the sharded kernel — because nothing about
a circuit depends on what was established before it: not its ``vc_id``,
not the VPI/VCI label its cells carry, not the switch-table rows it
programs.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm import (AtmCell, AtmFabric, AtmSwitch, OC3, Sba200Adapter,
                       Service, SignalingController, TAXI_140)
from repro.atm.signaling import (MAX_HOSTS, circuit_id, circuit_key,
                                 label_vc, vc_label)
from repro.sim import Simulator

UNICAST = [s for s in Service if s is not Service.MULTICAST]
hosts = st.integers(0, MAX_HOSTS - 1)


def ring_fabric(n_switches=3, hosts_per_switch=2):
    """Hosts behind a ring of switches: several equal-cost-free paths,
    shared trunks, multi-hop circuits."""
    sim = Simulator()
    fabric = AtmFabric(sim)
    sig = SignalingController(fabric)
    switches = [fabric.add_switch(AtmSwitch(sim, f"sw{i}"))
                for i in range(n_switches)]
    for a, b in zip(switches, switches[1:] + switches[:1]):
        fabric.connect(a, b, OC3)
    for i, sw in enumerate(switches):
        for k in range(hosts_per_switch):
            adapter = fabric.add_adapter(Sba200Adapter(sim, f"h{i}{k}"))
            fabric.connect(adapter, sw, TAXI_140)
    return fabric, sig


def tables(fabric) -> dict:
    """Every switch's rows with channels by name (ids differ per build)."""
    names = {id(ch): ch.name for ch in fabric._channels.values()}
    return {
        sw.name: sorted(((names[cid], vpi, vci),
                         (r.out_channel.name, r.out_vci))
                        for (cid, vpi, vci), r in sw._table.items())
        for sw in fabric.switches.values()}


def described(vc) -> tuple:
    return (vc.vc_id, vc.vpi, vc.src_vci, tuple(vc.hop_vcis),
            tuple(ch.name for ch in vc.hops))


_PAIRS = [(s, d, svc)
          for s, d in itertools.permutations(
              [f"h{i}{k}" for i in range(3) for k in range(2)], 2)
          for svc in UNICAST]


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=24),
       st.randoms(use_true_random=False))
def test_establishment_order_is_irrelevant(subset, rnd):
    """Any subset of pairs, in any order: same ids, same per-hop labels,
    same switch-table rows."""
    fabric_a, sig_a = ring_fabric()
    fabric_b, sig_b = ring_fabric()
    shuffled = list(subset)
    rnd.shuffle(shuffled)
    vcs_a = {key: described(sig_a.circuit(*key)) for key in subset}
    vcs_b = {key: described(sig_b.circuit(*key)) for key in shuffled}
    assert vcs_a == vcs_b
    assert tables(fabric_a) == tables(fabric_b)
    assert set(sig_a.open_vcs) == set(sig_b.open_vcs) == \
        {desc[0] for desc in vcs_a.values()}


@given(hosts, hosts, st.sampled_from(list(Service)))
def test_ids_and_labels_round_trip(src, dst, service):
    vc_id = circuit_id(src, dst, service)
    assert circuit_key(vc_id) == (src, dst, service)
    vpi, vci = vc_label(vc_id)
    assert label_vc(vpi, vci) == vc_id
    assert vpi >= 1, "VPI 0 belongs to ad-hoc circuits"
    AtmCell(vpi=vpi, vci=vci, payload=bytes(48))    # 8/16-bit header fields
    assert vci >= 32                                # UNI-reserved VCIs


def test_no_two_circuits_share_a_label_at_1024_hosts():
    """Labels are globally unique, so no two circuits can collide on
    any directed channel — checked exhaustively at the id-space edges
    and on a dense sample of the 5 x 1024 x 1024 space."""
    edge = [0, 1, 2, 511, 512, 1022, 1023]
    sample = sorted(set(edge) | set(range(0, MAX_HOSTS, 37)))
    seen = {}
    for service in Service:
        for src in sample:
            for dst in sample:
                label = vc_label(circuit_id(src, dst, service))
                assert seen.setdefault(label, (src, dst, service)) == \
                    (src, dst, service)
    # the split is a bijection of an interval, so the sample generalizes:
    # consecutive ids get consecutive labels
    lo = circuit_id(0, 0, Service.IP)
    hi = circuit_id(MAX_HOSTS - 1, MAX_HOSTS - 1, Service.MULTICAST)
    assert label_vc(*vc_label(lo)) == lo and label_vc(*vc_label(hi)) == hi
    assert vc_label(hi)[0] <= 255


def test_adhoc_circuits_never_collide_with_on_demand_ones():
    fabric, sig = ring_fabric()
    on_demand = sig.circuit("h00", "h10", Service.HSM)
    adhoc = [sig.create_pvc("h00", "h10") for _ in range(3)]
    assert len({vc.vc_id for vc in adhoc} | {on_demand.vc_id}) == 4
    assert all(vc.vpi == 0 and vc.service is None for vc in adhoc)
    assert on_demand.vpi >= 1


def test_switch_miss_establishes_the_circuit_a_label_names():
    """A cell arriving at a switch that has no row for its label — the
    circuit was established in another universe, say — programs the
    circuit on the spot instead of being discarded."""
    fabric, sig = ring_fabric()
    vc_id = circuit_id(fabric.host_index("h00"), fabric.host_index("h20"),
                       Service.HSM)
    vpi, vci = vc_label(vc_id)
    got = []
    fabric.adapters["h20"].rx_handler = lambda vc, payload, n, mid: \
        got.append((vc.vc_id, payload))
    # hand-rolled VC: the signaling controller has never heard of it
    from repro.atm import VirtualChannel
    foreign = VirtualChannel(vc_id=vc_id, src=fabric.adapters["h00"],
                             dst=None, src_vci=vci, hops=[], vpi=vpi,
                             service=Service.HSM)
    assert vc_id not in sig.open_vcs
    fabric.adapters["h00"].send_pdu(foreign, 1024, msg_id=1, payload="hi")
    fabric.sim.run(max_events=100_000)
    assert vc_id in sig.open_vcs
    assert [p for _, p in got] == ["hi"]
    assert all(sw.bursts_unroutable == 0 for sw in fabric.switches.values())


def test_torn_down_circuit_stays_down_for_stray_cells():
    fabric, sig = ring_fabric()
    vc = sig.circuit("h00", "h20", Service.HSM)
    sig.teardown(vc)
    fabric.adapters["h00"].send_pdu(vc, 1024, msg_id=1, payload="ghost")
    fabric.sim.run(max_events=100_000)
    assert vc.vc_id not in sig.open_vcs
    assert fabric.switches["sw0"].bursts_unroutable >= 1
    # asking for it again brings it back
    assert sig.circuit("h00", "h20", Service.HSM).vc_id == vc.vc_id
