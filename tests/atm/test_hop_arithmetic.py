"""The ATM fabric against the calendar it used to keep per hop.

A burst used to cross a hop on four calendar entries — the switching
latency, the wake-up of the channel's drain process, the serialization
timer, the propagation timer — and the depth of an output buffer was a
counter those events moved.  Now a hop is one entry and everything else
is arithmetic (ARCHITECTURE.md, "What may go on the calendar", fourth
class); every instant, drop decision, fault verdict and random draw must
be where it was.  ``hop_arithmetic_parent.json`` holds what commit
``83117d9`` — the last one with the drain process — produced for the
scripts below, which cover what ``tests/net/event_diet_parent.json``
does not: the instant, order and corruption flag of every
``receive_burst`` at every adapter and switch, for switch arrivals also
the ``queued_cells`` of the output port(s) the burst was headed for and
whether it was dropped there, every counter of every switch, channel
and adapter, and the buffer depth each fault window found when it
opened.  The tests compare with ``==``, floats included.

Re-capture (only ever at that commit, with this file copied next to it)::

    PYTHONPATH=<parent>/src python tests/atm/test_hop_arithmetic.py OUT.json

The scripts drive the adapters directly (``send_pdu`` at scripted
instants: no host CPU, no runtime), so nothing but the fabric decides
what happens:

* ``fan_in`` / ``zero_latency`` — five hosts onto one port behind a
  120-cell output buffer, with the default and with no switching
  latency: which bursts drop, and the depth every arrival saw;
* ``multicast_stalled_leg`` — a switch-replicated tree with one leg's
  port wedged while the others drain, plus unicast traffic on that leg;
* ``stall_windows`` — ``SwitchPortStall`` windows from a ``FaultPlan``
  that open on a queue, open while a burst is inside the switching
  latency, and close before the burst in service ends;
* ``ds3_windows`` — ``LinkOutage`` / ``BerSpike`` windows on DS-3 host
  links (2 ms of fibre, far longer than a burst's service): windows open
  between the end of a serialization and the arrival;
* ``ber_both_ways`` — a noisy TAXI link carrying traffic in both
  directions, which share one random stream: the draw order;
* ``shaped_vc`` — a peak-cell-rate contract's pacer sharing the uplink
  with best-effort bursts;
* ``trunk_windows`` — outages and stalls of a switch-to-switch DS-3
  trunk of a three-site ring.

Windows of one kind never overlap on one target here: what overlapping
windows do changed on purpose (``tests/faults/test_injector_primitives``).

The last test is a law, not a capture: the drain-process channel of
``83117d9`` is kept below as :class:`DrainChannel`, frozen, and a random
script of sends, stalls, outages and BER spikes on a single channel must
land every burst at the same instant with the same verdict on both —
ties included, because the script's instants are armed before the run as
the fault injector arms its own.
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.cell import CellBurst
from repro.atm.link import DS3, TAXI_140, Channel, LinkSpec
from repro.atm.signaling import circuit_key
from repro.faults import (BerSpike, FaultInjector, FaultPlan, LinkOutage,
                          SwitchPortStall)
from repro.net import build_atm_cluster
from repro.net.nynet import build_wan_ring
from repro.sim import Event, Simulator, Store

PARENT = Path(__file__).with_name("hop_arithmetic_parent.json")

SIZES = (256, 1024, 2048, 4096, 9000)


# ------------------------------------------------------------------ harness
class Tap:
    """Logs every ``receive_burst`` at every adapter and switch."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.rx = []
        self.windows = []
        self._msg_ids = iter(range(1, 1 << 20))
        fabric = cluster.fabric
        for who, adapter in sorted(fabric.adapters.items()):
            self._tap_adapter(who, adapter)
        for who, switch in sorted(fabric.switches.items()):
            self._tap_switch(who, switch)

    def _row(self, who, burst, channel):
        return [self.sim.now, who, channel.name, burst.vc.vc_id,
                burst.msg_id, burst.n_cells, burst.corrupted]

    def _tap_adapter(self, who, adapter):
        plain = adapter.receive_burst

        def receive_burst(burst, channel):
            self.rx.append(self._row(who, burst, channel))
            plain(burst, channel)
        adapter.receive_burst = receive_burst

    def _tap_switch(self, who, switch):
        plain = switch.receive_burst

        def receive_burst(burst, channel):
            key = (id(channel), burst.vpi, burst.vci)
            route = switch._table.get(key)
            legs = switch._mcast.get(key) or ((route,) if route else ())
            depths = [leg.out_channel.queued_cells for leg in legs]
            dropped = switch._m_dropped.value
            row = self._row(who, burst, channel)
            plain(burst, channel)
            self.rx.append(row + [depths, switch._m_dropped.value - dropped])
        switch.receive_burst = receive_burst

    # ------------------------------------------------------------- scripting
    def send(self, at, src, vc, nbytes):
        """PDU of ``nbytes`` from pid ``src`` on ``vc`` at instant ``at``."""
        adapter = self.cluster.fabric.adapters[self.cluster.host(src).name]
        self.sim.call_at(at, adapter.send_pdu, vc, nbytes,
                         next(self._msg_ids))

    def volleys(self, rng, senders, pick_dst, n_pdus, max_gap):
        """Every sender's PDUs at random gaps (a third of them none)."""
        for src in senders:
            t = 0.0
            for _ in range(n_pdus):
                if rng.random() > 1 / 3:
                    t += rng.uniform(0.0, max_gap)
                dst = pick_dst(src)
                self.send(t, src, self.cluster.hsm_vc(src, dst),
                          rng.choice(SIZES))

    def window(self, label, at, length, begin, end, channel):
        """A fault window opened and closed by direct calls."""
        self.probe(label, at, length, channel)
        self.sim.call_at(at, begin)
        self.sim.call_at(at + length, end)

    def probe(self, label, at, length, channel):
        """Log the depth ``channel`` has just before a window opens."""
        self.sim.call_at(at, lambda: self.windows.append(
            [label, self.sim.now, length, channel.queued_cells]))

    def outcome(self):
        self.sim.run(max_events=2_000_000)
        fabric = self.cluster.fabric
        snap = self.sim.metrics.snapshot()
        # program_multicast creates the replica series on first use
        replicas = snap.get("atm.mcast_replicas", {})
        return {
            "end": self.sim.now, "rx": self.rx, "windows": self.windows,
            # per-burst state a drained channel still holds: the drain
            # process had none to hold, the arithmetic must drop its own
            "residue": sum(len(getattr(ch, "_sent", ()))
                           + getattr(ch, "_sent_cells", 0)
                           for ch in fabric._channels.values()),
            "switches": {name: [
                snap["atm.bursts_forwarded"][f"switch={name}"],
                snap["atm.bursts_dropped"][f"switch={name}"],
                sw.bursts_unroutable,
                snap["atm.switch_bursts_faulted"][f"switch={name}"],
                replicas.get(f"switch={name}", 0)]
                for name, sw in sorted(fabric.switches.items())},
            "channels": {ch.name: [
                ch.bursts_carried, ch.bursts_corrupted,
                snap["atm.link_bursts_faulted"][f"link={ch.name}"]]
                for _pair, ch in sorted(fabric._channels.items())},
            "adapters": {name: [
                snap[series][f"host={name}"]
                for series in ("atm.pdus_sent", "atm.pdus_received",
                               "atm.pdus_failed", "atm.cells_received")]
                for name in sorted(fabric.adapters)},
        }


def spaced_windows(rng, horizon, lengths, gaps):
    """``(at, length)`` windows one after the other, never overlapping."""
    t, out = rng.uniform(*gaps), []
    while t < horizon:
        length = rng.uniform(*rng.choice(lengths))
        out.append((t, length))
        t += length + rng.uniform(*gaps)
    return out


def _port(cluster, pid):
    """The switch output channel feeding host ``pid``."""
    name = cluster.host(pid).name
    (switch,) = cluster.fabric.routes.adj[name]
    return cluster.fabric.channel(switch, name)


# ------------------------------------------------------------------ scripts
def _fan_in(seed, **options):
    rng = random.Random(seed)
    cluster = build_atm_cluster(6, seed=seed, train_cells=24, **options)
    cluster.fabric.switches["fore-sw"].output_buffer_cells = 120
    tap = Tap(cluster)
    for src in range(6):
        for dst in range(6):
            if src != dst:
                cluster.hsm_vc(src, dst)
    tap.volleys(rng, range(1, 6),
                lambda src: 0 if rng.random() < 0.8 else
                rng.choice([p for p in range(1, 6) if p != src]),
                n_pdus=7, max_gap=3e-4)
    return tap.outcome()


def fan_in():
    return _fan_in(101)


def zero_latency():
    return _fan_in(102, switch_latency_s=0.0)


def multicast_stalled_leg():
    rng = random.Random(103)
    cluster = build_atm_cluster(5, seed=103, train_cells=24)
    switch = cluster.fabric.switches["fore-sw"]
    switch.output_buffer_cells = 150
    tap = Tap(cluster)
    tree = cluster.signaling.create_multicast("n0", ["n1", "n2", "n3", "n4"])
    cross = cluster.hsm_vc(1, 2)
    t = 0.0
    for _ in range(14):
        t += rng.choice((0.0, rng.uniform(0.0, 4e-4)))
        tap.send(t, 0, tree, rng.choice(SIZES))
        if rng.random() < 0.6:
            tap.send(t + rng.uniform(0.0, 1e-4), 1, cross, rng.choice(SIZES))
    leg = _port(cluster, 2)
    for at, length in spaced_windows(rng, t, [(2e-5, 9e-5), (3e-4, 8e-4)],
                                     (1e-4, 5e-4)):
        tap.window("stall:n2", at, length,
                   lambda: switch.stall_port(leg),
                   lambda: switch.unstall_port(leg), leg)
    return tap.outcome()


def stall_windows():
    rng = random.Random(104)
    cluster = build_atm_cluster(4, seed=104, train_cells=16)
    tap = Tap(cluster)
    for src in range(4):
        for dst in (0, 1):
            if src != dst:
                cluster.hsm_vc(src, dst)
    tap.volleys(rng, range(4),
                lambda src: rng.choice([p for p in (0, 0, 0, 1) if p != src]),
                n_pdus=9, max_gap=2.5e-4)
    plan = []
    for host in (0, 1):
        for at, length in spaced_windows(
                rng, 3e-3, [(1e-5, 6e-5), (1e-5, 6e-5), (2e-4, 7e-4)],
                (2e-5, 3e-4)):
            tap.probe(f"stall:{host}", at, length, _port(cluster, host))
            plan.append(SwitchPortStall(at=at, duration=length, host=host))
    FaultInjector(cluster, FaultPlan(tuple(plan))).arm()
    return tap.outcome()


def ds3_windows():
    rng = random.Random(105)
    cluster = build_atm_cluster(3, seed=105, train_cells=16, link_spec=DS3)
    tap = Tap(cluster)
    tap.volleys(rng, range(3),
                lambda src: rng.choice([p for p in range(3) if p != src]),
                n_pdus=8, max_gap=1.5e-3)
    plan = []
    for host in range(3):
        for at, length in spaced_windows(rng, 0.012, [(3e-4, 1.5e-3)],
                                         (5e-4, 3e-3)):
            tap.probe(f"outage:{host}", at, length, _port(cluster, host))
            plan.append(LinkOutage(at=at, duration=length, host=host))
        for at, length in spaced_windows(rng, 0.012, [(5e-4, 2.5e-3)],
                                         (5e-4, 2e-3)):
            tap.probe(f"spike:{host}", at, length, _port(cluster, host))
            plan.append(BerSpike(at=at, duration=length, host=host,
                                 ber=2e-5))
    FaultInjector(cluster, FaultPlan(tuple(plan))).arm()
    return tap.outcome()


def ber_both_ways():
    rng = random.Random(106)
    cluster = build_atm_cluster(2, seed=106, train_cells=32,
                                link_spec=TAXI_140.with_ber(1e-5))
    tap = Tap(cluster)
    tap.volleys(rng, range(2), lambda src: 1 - src, n_pdus=22, max_gap=2e-4)
    return tap.outcome()


def shaped_vc():
    rng = random.Random(107)
    cluster = build_atm_cluster(3, seed=107, train_cells=8)
    tap = Tap(cluster)
    shaped = cluster.signaling.create_pvc("n0", "n1", pcr_cells_s=80_000.0)
    plain = cluster.hsm_vc(0, 2)
    t = 0.0
    for _ in range(5):
        tap.send(t, 0, shaped, rng.choice(SIZES[2:4]))
        tap.send(t + rng.uniform(0.0, 3e-4), 0, plain, rng.choice(SIZES))
        t += rng.uniform(0.0, 1.5e-3)
    return tap.outcome()


def trunk_windows():
    rng = random.Random(108)
    cluster = build_wan_ring(n_sites=3, hosts_per_site=1, seed=108,
                             train_cells=16)
    tap = Tap(cluster)
    tap.volleys(rng, range(3),
                lambda src: rng.choice([p for p in range(3) if p != src]),
                n_pdus=9, max_gap=8e-4)
    fabric = cluster.fabric
    trunks = sorted((a, b) for a, b in fabric._channels
                    if a in fabric.switches and b in fabric.switches)
    for a, b in trunks[:2]:
        ch = fabric.channel(a, b)
        for at, length in spaced_windows(rng, 0.01, [(2e-4, 1.2e-3)],
                                         (3e-4, 2e-3)):
            tap.window(f"fail:{a}>{b}", at, length, ch.fail, ch.restore, ch)
    for a, b in trunks[2:4]:
        ch = fabric.channel(a, b)
        for at, length in spaced_windows(
                rng, 0.01, [(2e-5, 8e-5), (3e-4, 1e-3)], (2e-4, 1.5e-3)):
            tap.window(f"stall:{a}>{b}", at, length, ch.stall, ch.unstall, ch)
    return tap.outcome()


SCRIPTS = {fn.__name__: fn for fn in (
    fan_in, zero_latency, multicast_stalled_leg, stall_windows, ds3_windows,
    ber_both_ways, shaped_vc, trunk_windows)}


def capture():
    return {"commit": "83117d9",
            "scripts": {name: fn() for name, fn in SCRIPTS.items()}}


# -------------------------------------------------------------------- tests
@pytest.fixture(scope="module")
def parent():
    return json.loads(PARENT.read_text())["scripts"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_burst_lands_where_it_did(parent, name):
    want = parent[name]
    got = json.loads(json.dumps(SCRIPTS[name]()))
    # the coarse outcomes first: a failure there explains the rest
    for key in ("end", "residue", "switches", "channels", "adapters",
                "windows"):
        assert got[key] == want[key], key
    for i, (g, w) in enumerate(zip(got["rx"], want["rx"])):
        assert g == w, f"rx row {i}"
    assert got == want


def _arrivals(doc, who=None, channel=None):
    return [row for row in doc["rx"]
            if (who is None or row[1] == who)
            and (channel is None or row[2] == channel)]


def test_scripts_exercise_what_they_claim(parent):
    """Guards the scripts, not the models, on the captured logs."""
    for name in ("fan_in", "zero_latency"):
        doc = parent[name]
        dropped = [row for row in _arrivals(doc, "fore-sw") if row[8]]
        assert len(dropped) >= 5, name
        # a drop is decided on the depth the arrival saw, and some
        # bursts got through a buffer that was nearly full
        assert all(row[7][0] + row[5] > 120 for row in dropped), name
        assert any(not row[8] and row[7][0] > 90
                   for row in _arrivals(doc, "fore-sw")), name

    doc = parent["multicast_stalled_leg"]
    fanned = [row for row in _arrivals(doc, "fore-sw") if len(row[7]) == 4]
    assert fanned and doc["switches"]["fore-sw"][4] > 3 * len(fanned) - 10
    # the stalled leg filled while the other three stayed shallow
    assert any(row[7][1] > 100 and max(row[7][2:]) < 50 for row in fanned)
    assert any(0 < row[8] < 4 for row in fanned)
    assert sum(1 for w in doc["windows"] if w[3] > 0) >= 2

    doc = parent["stall_windows"]
    latency, cell_s = 10e-6, 53 * 8 / TAXI_140.bandwidth_bps
    on_queue = in_latency = inside_service = 0
    for label, at, length, depth in doc["windows"]:
        host = int(label.split(":")[1])
        on_queue += depth > 16                  # more than one burst
        in_latency += any(
            row[0] < at < row[0] + latency
            for row in _arrivals(doc, "fore-sw")
            if circuit_key(row[3])[1] == host and not row[8])
        inside_service += any(
            finish - row[5] * cell_s < at and at + length < finish
            for row in _arrivals(doc, f"n{host}")
            for finish in [row[0] - TAXI_140.prop_delay_s])
    assert on_queue >= 2 and in_latency >= 2 and inside_service >= 2, (
        on_queue, in_latency, inside_service)

    doc = parent["ds3_windows"]
    in_flight = 0
    for label, at, _length, _depth in doc["windows"]:
        host = f"n{label.split(':')[1]}"
        in_flight += any(
            row[0] - DS3.prop_delay_s < at < row[0]
            for row in doc["rx"] if host in row[2])
    assert in_flight >= 6
    assert sum(c[1] for c in doc["channels"].values()) >= 5     # BER hits
    assert sum(c[2] for c in doc["channels"].values()) >= 5     # outages

    doc = parent["ber_both_ways"]
    hit = {name: c[1] for name, c in doc["channels"].items() if c[1]}
    assert len(hit) >= 2 and sum(hit.values()) >= 8, hit
    assert {name[-1] for name in hit} == {"<", ">"}     # both directions

    doc = parent["shaped_vc"]
    uplink = _arrivals(doc, "fore-sw", "n0--fore-sw>")
    vcs = [row[3] for row in uplink]
    # paced bursts let best-effort ones in between
    assert sum(1 for a, b in zip(vcs, vcs[1:]) if a != b) >= 10
    pace = 8 / 80_000.0
    shaped_at = [row[0] for row in uplink if row[3] == min(vcs)]
    spacing = [b - a for a, b in zip(shaped_at, shaped_at[1:])]
    assert sum(1 for gap in spacing if abs(gap - pace) < 1e-9) >= 5
    # ... and some waited behind them on the uplink and bunched up
    assert sum(1 for gap in spacing if gap < pace / 2) >= 5

    doc = parent["trunk_windows"]
    assert sum(c[2] for c in doc["channels"].values()) >= 3
    assert sum(1 for w in doc["windows"]
               if w[0].startswith("stall") and w[3] > 0) >= 1


# --------------------------------------------------------------- the oracle
class DrainChannel:
    """The channel of commit ``83117d9``: a queue drained by a process,
    one timer per serialization, one per propagation leg.  Frozen — the
    oracle of :func:`test_one_channel_is_the_drain_process`; do not fix."""

    def __init__(self, sim, spec, rng, deliver):
        self.sim, self.spec, self._rng, self._deliver = sim, spec, rng, deliver
        self._q = Store(sim)
        self.queued_cells = 0
        self.up = True
        self.ber_override = None
        self._stalled = False
        self._stall_release = None
        self.bursts_carried = self.bursts_corrupted = self.bursts_faulted = 0
        sim.process(self._drain())

    def fail(self):
        self.up = False

    def restore(self):
        self.up = True

    def stall(self):
        if not self._stalled:
            self._stalled = True
            self._stall_release = Event(self.sim)

    def unstall(self):
        if self._stalled:
            self._stalled = False
            release, self._stall_release = self._stall_release, None
            release.succeed(None)

    def tx_time(self, burst):
        return burst.wire_bytes * 8 / self.spec.bandwidth_bps

    def send(self, burst, extra_service_s=0.0):
        self.queued_cells += burst.n_cells
        self._q.try_put((burst, extra_service_s))

    def _drain(self):
        while True:
            burst, extra = yield self._q.get()
            while self._stalled:
                yield self._stall_release
            yield self.sim.timeout(max(self.tx_time(burst), extra))
            self.queued_cells -= burst.n_cells
            if not self.up:
                burst.corrupted = True
                self.bursts_faulted += 1
            else:
                ber = (self.spec.ber if self.ber_override is None
                       else self.ber_override)
                if ber > 0.0 and self._rng is not None:
                    bits = burst.wire_bytes * 8
                    p_bad = 1.0 - (1.0 - ber) ** bits
                    if self._rng.random() < p_bad:
                        burst.corrupted = True
                        self.bursts_corrupted += 1
            self.bursts_carried += 1
            self.sim.call_in(self.spec.prop_delay_s, self._deliver, burst)


class _Sink:
    def __init__(self, sim, log):
        self.sim, self.log = sim, log

    def receive_burst(self, burst, channel=None):
        self.log.append((self.sim.now, burst.msg_id, burst.corrupted))


LAW_BPS = 140e6
#: gaps that make ties: none at all, and whole serialization times
gaps = st.one_of(
    st.just(0.0),
    st.integers(1, 48).map(lambda cells: cells * 53 * 8 / LAW_BPS),
    st.floats(1e-7, 4e-4, allow_nan=False))
ops = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 48),
              st.sampled_from((0.0, 3e-6, 5e-6))),
    st.tuples(st.sampled_from(("stall", "unstall", "fail", "restore",
                               "spike", "clear", "depth"))))


def play(script, latency, prop, ber, new):
    """One script on one kind of channel: ``(landings, depths,
    counters)``."""
    sim = Simulator()
    spec = LinkSpec("law", LAW_BPS, prop, ber)
    rng = np.random.default_rng(7)
    landings, depths = [], []
    sink = _Sink(sim, landings)
    if new:
        ch = Channel(sim, "law", spec, rng)
        ch.connect(sink)

        def send(burst, extra):
            ch.send(burst, extra, at=sim.now + latency)
    else:
        ch = DrainChannel(sim, spec, rng, sink.receive_burst)

        def send(burst, extra):
            sim.call_in(latency, ch.send, burst, extra)

    def spike(value):
        ch.ber_override = value

    calls = {"stall": ch.stall, "unstall": ch.unstall, "fail": ch.fail,
             "restore": ch.restore, "spike": lambda: spike(2e-5),
             "clear": lambda: spike(None)}
    t = 0.0
    for i, (gap, op) in enumerate(script):
        t += gap
        if op[0] == "send":
            burst = CellBurst(vc=None, vci=40, msg_id=i, n_cells=op[1],
                              payload_bytes=48 * op[1], is_final=True)
            sim.call_at(t, send, burst, op[1] * op[2])
        elif op[0] == "depth":
            # a nanosecond off the script's instants: at an exact tie
            # the depth is a matter of rule, not of the oracle
            sim.call_at(t + 1e-9,
                        lambda: depths.append((sim.now, ch.queued_cells)))
        else:
            sim.call_at(t, calls[op[0]])
    sim.call_at(t + 1.0, ch.unstall)    # nothing stays held for good
    sim.run(max_events=100_000)
    # each implementation's fault count where it keeps it
    faulted = (sim.metrics.snapshot()["atm.link_bursts_faulted"]["link=law"]
               if new else ch.bursts_faulted)
    return landings, depths, (ch.bursts_carried, ch.bursts_corrupted,
                              faulted)


@given(script=st.lists(st.tuples(gaps, ops), max_size=40),
       latency=st.sampled_from((0.0, 10e-6)),
       prop=st.sampled_from((0.0, 5e-6, 2e-3)),
       ber=st.sampled_from((0.0, 1e-5)))
@settings(max_examples=200, deadline=None)
def test_one_channel_is_the_drain_process(script, latency, prop, ber):
    assert play(script, latency, prop, ber, new=True) \
        == play(script, latency, prop, ber, new=False)


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(json.dumps(capture()) + "\n")
