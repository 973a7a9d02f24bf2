"""The Ethernet segment's wall: every frame where the drain processes
put it.

Each NIC used to drain its transmit queue in a coroutine and arbitrate
for the medium, a capacity-1 ``Resource``, frame by frame: a frame cost
a wake-up of the drain, the medium's grant when it had to wait, a
serialization timer, a gap timer and a delivery.  Now the segment is a
FIFO server whose departures are floats (ARCHITECTURE.md, "What may go
on the calendar", fourth class); every delivery, drop, counter and
random draw must be where it was.  ``medium_arithmetic_parent.json``
holds what commit ``df7c26f`` — the last one with the drain processes —
produced for the scripts below: the instant and order of every
``_receive`` at every NIC, every LAN and NIC counter, the transmit
queue lengths and the medium's busy state each fault window found when
it opened, and the state of both random streams at the end.
Provenance: capturing at ``df7c26f`` and at today's code both
reproduce the golden byte for byte.

The scripts drive ``EthernetNic.enqueue`` at scripted instants (no host
CPU, no protocol stack), so nothing but the segment decides:

* ``volley`` — five stations queue several frames each at one instant,
  twice, then at random instants;
* ``late_joiner`` / ``late_joiner_collisions`` — a backlogged sender
  against stations asking at exactly its gap end, one armed before the
  run and one armed from a delivery (so after the gap-end entry), and a
  station asking again at exactly its own gap end with nothing queued;
* ``collisions`` — four stations on the collision model, with frame
  sizes whose serialization is a whole number of slot times, so jam
  ends, backoff retries and gap ends tie;
* ``segment_faults`` / ``nic_faults`` — segment outages and NIC outages
  that open while frames are queued at the NIC and while one is on the
  wire;
* ``ber`` — ``set_fault_ber`` windows; ``rx_fault`` — receive filters.

The last test is a law, not a capture: the drain-process segment of
``df7c26f`` is kept below as :class:`DrainLan` / :class:`DrainNic`,
frozen, and a random script of enqueues, replies sent from receive
handlers, NIC and segment outages, BER windows and probes must give the
same deliveries, readings, counters and draws on both — ties included,
because the script's instants are armed before the run as the fault
injector arms its own.  NIC flips and probes sit a nanosecond off the
script's instants: at an exact tie with an enqueue they are a matter of
rule (ARCHITECTURE.md), not of the oracle.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ethernet import EthernetFrame, EthernetLan, EthernetNic
from repro.ethernet.frame import ETHERNET_IFG_BITS
from repro.sim import Resource, RngRegistry, Simulator, Store

from .harness import Wall, assert_same, tap_frames

BPS = 10e6
SLOT_S = 512 / BPS
SIZES = (46, 102, 230, 512, 1000, 1500)


def tx_time(nbytes):
    return EthernetFrame("a", "b", None, nbytes).wire_bytes * 8 / BPS


def busy(lan):
    """Whether the medium is held; the parent's medium was a Resource."""
    medium = getattr(lan, "medium", None)
    return lan.busy if medium is None else medium.in_use > 0


# ---------------------------------------------------------------------- tap
class Tap:
    """``n`` stations ``e0`` ... on one segment, every receive logged."""

    def __init__(self, n, seed, lan_cls=EthernetLan, nic_cls=EthernetNic,
                 **lan_kw):
        self.sim = sim = Simulator()
        self.lan = lan_cls(sim, rngs=RngRegistry(seed), **lan_kw)
        self.nics = [nic_cls(sim, self.lan, f"e{i}") for i in range(n)]
        self.rx, self.windows = [], []
        self.on_rx = None       # optional ``fn(nic, frame)`` after the log
        for nic in self.nics:
            tap_frames(sim, nic, self.rx)
            nic.set_receive_handler(
                lambda frame, nic=nic: self._received(nic, frame))

    def _received(self, nic, frame):
        if self.on_rx is not None:
            self.on_rx(nic, frame)

    def send(self, at, src, dst, nbytes, payload=None):
        self.sim.call_at(at, self.nics[src].enqueue, f"e{dst}", payload,
                         nbytes)

    def probe(self, label):
        self.windows.append([label, self.sim.now,
                             [nic.tx_queue_len for nic in self.nics],
                             busy(self.lan)])

    def window(self, label, at, length, begin, end):
        """A fault window opened and closed by direct calls; what the
        NICs and the medium looked like is logged as it opens."""
        def _open():
            self.probe(label)
            begin()
        self.sim.call_at(at, _open)
        self.sim.call_at(at + length, end)

    def traffic(self, rng, horizon, n_frames, senders=None, start=0.0):
        senders = range(len(self.nics)) if senders is None else senders
        for _ in range(n_frames):
            src = rng.choice(list(senders))
            dst = rng.choice([p for p in range(len(self.nics)) if p != src])
            self.send(rng.uniform(start, horizon), src, dst,
                      rng.choice(SIZES))

    def outcome(self):
        self.sim.run(max_events=1_000_000)
        lan = self.lan
        if isinstance(lan, EthernetLan):    # counted in the registry only
            snap = self.sim.metrics.snapshot()
            counts = [snap[f"ethernet.{name}"][""] for name in (
                "frames_delivered", "frames_dropped", "collision_events")]
        else:
            counts = [lan.frames_delivered, lan.frames_dropped,
                      lan.collision_events]
        return {
            "end": self.sim.now, "rx": self.rx, "windows": self.windows,
            "lan": counts,
            "nics": {nic.address: [nic.frames_sent, nic.frames_received,
                                   nic.tx_queue_len] for nic in self.nics},
            "backoff_rng": lan._rng.bit_generator.state,
            "fault_rng": lan._fault_rng.bit_generator.state,
        }


# ------------------------------------------------------------------ scripts
def volley():
    rng = random.Random(201)
    tap = Tap(5, 201)
    for at in (0.0, 3e-3):
        for src in range(5):
            for _ in range(3):
                tap.send(at, src, rng.choice([p for p in range(5) if p != src]),
                         rng.choice(SIZES))
    tap.traffic(rng, 0.02, 40)
    return tap.outcome()


def _late_joiner(seed, collisions):
    rng = random.Random(seed)
    tap = Tap(5, seed, prop_delay_s=5e-6, collisions=collisions)
    # e0 is backlogged from t=0 and alone on the medium, so its first
    # gap ends at exactly this float
    gap_end = (0.0 + tx_time(1500)) + ETHERNET_IFG_BITS / BPS
    for _ in range(6):
        tap.send(0.0, 0, 4, 1500)
    tap.send(gap_end, 1, 4, 512)            # armed before the run
    asked = []

    def ask_from_delivery(nic, frame):
        # the first delivery (5 us after the end, inside the 9.6 us gap)
        # arms a request for the same gap end, after the gap's own entry
        if not asked:
            asked.append(frame)
            tap.sim.call_at(gap_end, tap.nics[2].enqueue, "e4", None, 1000)
    tap.on_rx = ask_from_delivery
    # e3 alone sends one frame later on, and asks again at exactly its
    # own gap end, ahead of e1 asking at that instant too
    t0 = 10e-3
    own_gap_end = (t0 + tx_time(230)) + ETHERNET_IFG_BITS / BPS
    tap.send(t0, 3, 4, 230)
    tap.send(own_gap_end, 3, 4, 230)
    tap.send(own_gap_end, 1, 4, 102)
    tap.traffic(rng, 0.03, 25, senders=(1, 2, 3), start=0.012)
    return tap.outcome()


def late_joiner():
    return _late_joiner(202, False)


def late_joiner_collisions():
    return _late_joiner(203, True)


def collisions():
    rng = random.Random(204)
    tap = Tap(4, 204, collisions=True)
    slotted = (102, 230, 486)       # 128, 256 and 512 wire bytes
    for at in (0.0, 2e-3, 2e-3 + SLOT_S, 6e-3):
        for src in range(4):
            tap.send(at, src, (src + 1) % 4, rng.choice(slotted))
    for _ in range(30):
        src = rng.randrange(4)
        tap.send(rng.choice((0.01, 0.01 + 2 * SLOT_S, rng.uniform(0.0, 0.03))),
                 src, rng.choice([p for p in range(4) if p != src]),
                 rng.choice(slotted + SIZES))
    return tap.outcome()


def segment_faults():
    rng = random.Random(205)
    tap = Tap(4, 205)
    tap.traffic(rng, 0.03, 60)
    lan = tap.lan
    t = 1e-3
    while t < 0.03:
        length = rng.uniform(2e-4, 3e-3)
        tap.window("segment", t, length, lan.fail, lan.restore)
        t += length + rng.uniform(5e-4, 4e-3)
    return tap.outcome()


def nic_faults():
    rng = random.Random(206)
    tap = Tap(4, 206)
    # e0 queues ten frames at t=0: the first outage opens while one is on
    # the wire and nine wait, and closes before that frame's gap ends;
    # the second opens on the backlog and spans a gap end
    for _ in range(10):
        tap.send(0.0, 0, 1, 1000)
    first = tx_time(1000)
    tap.window("nic:e0", first / 2, first / 3, tap.nics[0].fail,
               tap.nics[0].restore)
    tap.window("nic:e0", 5.3 * first, first, tap.nics[0].fail,
               tap.nics[0].restore)
    tap.traffic(rng, 0.03, 50)
    for _ in range(10):
        nic = rng.choice(tap.nics)
        tap.window(f"nic:{nic.address}", rng.uniform(3e-3, 0.03),
                   rng.uniform(2e-4, 2e-3), nic.fail, nic.restore)
    return tap.outcome()


def ber():
    rng = random.Random(207)
    tap = Tap(3, 207)
    tap.traffic(rng, 0.03, 50)
    lan = tap.lan
    t = 5e-4
    while t < 0.03:
        length = rng.uniform(1e-3, 4e-3)
        tap.window("ber", t, length, lambda: lan.set_fault_ber(5e-5),
                   lan.clear_fault_ber)
        t += length + rng.uniform(1e-3, 3e-3)
    return tap.outcome()


def rx_fault():
    rng = random.Random(208)
    tap = Tap(3, 208)
    tap.traffic(rng, 0.02, 45)
    tap.nics[1].rx_fault = lambda frame: frame.seq % 3 == 0
    nic2 = tap.nics[2]

    def deaf():
        nic2.rx_fault = lambda frame: frame.payload_bytes > 500

    def hearing():
        nic2.rx_fault = None
    t = 1e-3
    while t < 0.02:
        length = rng.uniform(1e-3, 3e-3)
        tap.window("rx_fault:e2", t, length, deaf, hearing)
        t += length + rng.uniform(1e-3, 3e-3)
    return tap.outcome()


SCRIPTS = {fn.__name__: fn for fn in (
    volley, late_joiner, late_joiner_collisions, collisions, segment_faults,
    nic_faults, ber, rx_fault)}


WALL = Wall("medium_arithmetic", "df7c26f", lambda: {
    "scripts": {name: fn() for name, fn in SCRIPTS.items()}})


# -------------------------------------------------------------------- tests
def test_every_frame_lands_where_it_did():
    parent = WALL.parent()["scripts"]
    for name, fn in SCRIPTS.items():
        assert_same(fn(), parent[name], coarse=(
            "end", "lan", "nics", "windows", "backoff_rng", "fault_rng"),
            rows=("rx",), where=name)


def test_scripts_exercise_what_they_claim():
    """Guards the scripts, not the models, on the captured logs."""
    parent = WALL.parent()["scripts"]
    ifg = ETHERNET_IFG_BITS / BPS
    for name in ("late_joiner", "late_joiner_collisions"):
        doc = parent[name]
        gap_end = (0.0 + tx_time(1500)) + ifg
        # e1 (asked before the gap-end entry) took the medium at the gap
        # end: its frame arrived one serialization and 5 us later
        first_e1 = next(row for row in doc["rx"] if row[2] == "e1")
        assert first_e1[0] == (gap_end + tx_time(512)) + 5e-6, name
    assert parent["late_joiner_collisions"]["lan"][2] > 0
    doc = parent["collisions"]
    assert doc["lan"][2] >= 10 and doc["lan"][1] == 0
    for name in ("segment_faults", "nic_faults", "ber", "rx_fault"):
        doc = parent[name]
        assert doc["lan"][1] > 0, name                 # frames were lost
        assert any(w[3] for w in doc["windows"]), name  # ... on live traffic
    doc = parent["nic_faults"]
    # the first outage found e0 on the wire with nine frames queued
    assert doc["windows"][0][2][0] == 9 and doc["windows"][0][3]
    assert any(w[2][0] > 0 for w in doc["windows"][1:])


# --------------------------------------------------------------- the oracle
class DrainLan:
    """The segment of commit ``df7c26f``: a capacity-1 ``Resource`` for
    the medium, one timer per serialization and per gap, one delivery.
    Frozen — the oracle of ``test_one_segment_is_the_drain_processes``;
    do not fix."""

    def __init__(self, sim, bandwidth_bps=10e6, prop_delay_s=10e-6,
                 collisions=False, rngs=None):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay_s = prop_delay_s
        self.collisions = collisions
        rngs = rngs or RngRegistry()
        self._rng = rngs.stream("ethernet.backoff")
        self._fault_rng = rngs.stream("ethernet.faults")
        self.medium = Resource(sim, capacity=1, name="ether-medium")
        self.nics = {}
        self.up = True
        self.fault_ber = 0.0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.collision_events = 0

    def fail(self):
        self.up = False

    def restore(self):
        self.up = True

    def set_fault_ber(self, ber):
        self.fault_ber = ber

    def clear_fault_ber(self):
        self.fault_ber = 0.0

    def tx_time(self, wire_bytes):
        return wire_bytes * 8 / self.bandwidth_bps

    @property
    def ifg_time(self):
        return ETHERNET_IFG_BITS / self.bandwidth_bps

    def _backoff_time(self, attempt):
        k = min(attempt, 10)
        slots = int(self._rng.integers(0, 2 ** k))
        return slots * 512 / self.bandwidth_bps

    def transmit(self, frame):
        attempt = 0
        medium = self.medium
        while True:
            contended = not medium.try_acquire()
            if contended:
                yield medium.request()
            if self.collisions and contended and attempt < 16:
                self.collision_events += 1
                attempt += 1
                yield self.sim.timeout(512 / self.bandwidth_bps)
                medium.release()
                yield self.sim.timeout(self._backoff_time(attempt))
                continue
            break
        yield self.sim.timeout(self.tx_time(frame.wire_bytes))
        gap = self.sim.timeout(self.ifg_time)
        self.sim.call_in(self.prop_delay_s, self._deliver, frame)
        yield gap
        medium.release()

    def _deliver(self, frame):
        nic = self.nics[frame.dst]
        if not self.up or not nic.up:
            self.frames_dropped += 1
            return
        if self.fault_ber > 0.0:
            bits = frame.wire_bytes * 8
            p_bad = 1.0 - (1.0 - self.fault_ber) ** bits
            if self._fault_rng.random() < p_bad:
                self.frames_dropped += 1
                return
        if nic.rx_fault is not None and nic.rx_fault(frame):
            self.frames_dropped += 1
            return
        self.frames_delivered += 1
        nic._receive(frame)


class DrainNic:
    """The NIC of commit ``df7c26f``: a ``Store`` drained by a process.
    Frozen, with :class:`DrainLan`."""

    def __init__(self, sim, lan, address):
        self.sim = sim
        self.lan = lan
        self.address = address
        self._txq = Store(sim)
        self._rx_handler = None
        self._seq = 0
        self.up = True
        self.rx_fault = None
        lan.nics[address] = self
        sim.process(self._drain())
        self.frames_sent = 0
        self.frames_received = 0

    def fail(self):
        self.up = False

    def restore(self):
        self.up = True

    @property
    def tx_queue_len(self):
        return len(self._txq)

    def set_receive_handler(self, fn):
        self._rx_handler = fn

    def enqueue(self, dst, payload, payload_bytes):
        self._seq += 1
        self._txq.try_put(EthernetFrame(self.address, dst, payload,
                                        payload_bytes, seq=self._seq))

    def _drain(self):
        while True:
            frame = yield self._txq.get()
            if not self.up:
                self.lan.frames_dropped += 1
                continue
            yield from self.lan.transmit(frame)
            self.frames_sent += 1

    def _receive(self, frame):
        self.frames_received += 1
        if self._rx_handler is not None:
            self._rx_handler(frame)


LAW_SIZES = (46, 102, 230, 1000)
#: gaps that make ties: none at all, whole serialization, gap and slot
#: times (sums of them land on gap ends, jam ends and retries)
gaps = st.one_of(
    st.just(0.0),
    st.sampled_from([tx_time(s) for s in LAW_SIZES]
                    + [ETHERNET_IFG_BITS / BPS, SLOT_S]),
    st.floats(1e-7, 2e-3, allow_nan=False))
ops = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 3), st.integers(1, 3),
              st.sampled_from(LAW_SIZES), st.booleans()),
    st.tuples(st.just("nic"), st.integers(0, 3)),
    st.tuples(st.sampled_from(("segment", "ber", "probe"))))


def play(script, collisions, prop, new):
    """One script on one kind of segment: ``(receives, probes,
    counters)``; a frame sent with ``echo`` set is answered by its
    receiver from the receive handler."""
    cls = (EthernetLan, EthernetNic) if new else (DrainLan, DrainNic)
    tap = Tap(4, 11, *cls, collisions=collisions, prop_delay_s=prop)
    sim, lan, nics = tap.sim, tap.lan, tap.nics

    def echo(nic, frame):
        if frame.payload == "echo":
            nic.enqueue(frame.src, None, 46)
    tap.on_rx = echo

    def flip(target):
        (target.restore if not target.up else target.fail)()

    def ber():
        lan.set_fault_ber(0.0 if lan.fault_ber else 1e-4)

    t = 0.0
    for i, (gap, op) in enumerate(script):
        t += gap
        if op[0] == "send":
            _, src, hop, nbytes, reply = op
            tap.send(t, src, (src + hop) % 4, nbytes, "echo" if reply else i)
        elif op[0] == "nic":
            sim.call_at(t + 1e-9, flip, nics[op[1]])
        elif op[0] == "segment":
            sim.call_at(t, flip, lan)
        elif op[0] == "ber":
            sim.call_at(t, ber)
        else:
            sim.call_at(t + 1e-9, tap.probe, "probe")
    out = tap.outcome()
    return out["rx"], out["windows"], out["lan"], out["nics"], \
        out["backoff_rng"], out["fault_rng"]


#: e2 waits behind e0, collides at e0's gap end and draws a zero-slot
#: backoff at the end of its jam, the very instant e1 asks: e1's request,
#: armed first, goes first (rarely drawn at random, so always played)
ZERO_BACKOFF_TIE = [
    (0.0, ("send", 0, 1, 1000, False)), (0.0, ("send", 2, 1, 1000, False)),
    (tx_time(1000), ("probe",)), (ETHERNET_IFG_BITS / BPS, ("probe",)),
    (SLOT_S, ("send", 1, 1, 46, False))]


@example(script=ZERO_BACKOFF_TIE, collisions=True, prop=10e-6)
@given(script=st.lists(st.tuples(gaps, ops), max_size=40),
       collisions=st.booleans(),
       prop=st.sampled_from((0.0, 5e-6, ETHERNET_IFG_BITS / BPS, 10e-6,
                             1e-3)))
@settings(max_examples=200, deadline=None)
def test_one_segment_is_the_drain_processes(script, collisions, prop):
    assert play(script, collisions, prop, new=True) \
        == play(script, collisions, prop, new=False)
