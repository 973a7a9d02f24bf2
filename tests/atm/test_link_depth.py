"""``Channel.queued_cells`` against a brute-force recount.

A reading keeps its result for the instant and the next reading at the
same instant resumes from the newest record it saw; these tests hold
every reading to a recount over the channel's records (``_sent``) and
the bursts a stall kept back (``_held``), whatever the schedule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.cell import CELL_BYTES, CellBurst
from repro.atm.link import Channel, LinkSpec
from repro.sim import Simulator

#: one cell serializes in exactly 1/1024 s, so sends, landings and
#: readings tie at the same instants
TICK = 1 / 1024
SPEC = LinkSpec("depth", CELL_BYTES * 8 * 1024, prop_delay_s=2 * TICK)
LATENCY = 3 * TICK


class _Sink:
    def __init__(self):
        self.landed = []

    def receive_burst(self, burst, channel):
        self.landed.append(burst)


def _channel():
    sim = Simulator()
    ch = Channel(sim, "depth", SPEC)
    sink = _Sink()
    ch.connect(sink)
    return sim, ch, sink


def _burst(msg_id, n_cells):
    return CellBurst(vc=None, vci=1, msg_id=msg_id, n_cells=n_cells,
                     payload_bytes=0, is_final=True)


def _recount(ch):
    """Cells that reached the port and have not left it, held or not."""
    now = ch.sim.now
    cells = sum(burst.n_cells for at, _, finish, burst, _, _ in ch._sent
                if at <= now < finish)
    return cells + sum(burst.n_cells for burst, _, at in ch._held or ()
                       if at <= now)


_step = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 4), st.booleans()),
    st.tuples(st.just("read")),
    st.tuples(st.just("advance"), st.integers(0, 6)),
    st.tuples(st.just("stall")),
    st.tuples(st.just("unstall")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_step, max_size=60))
def test_every_reading_matches_a_recount(steps):
    sim, ch, sink = _channel()
    sent = 0
    for step in steps:
        kind = step[0]
        if kind == "send":
            # behind the switching latency, or at the port now; a
            # channel's arrivals never go back in time
            at = sim.now + (LATENCY if step[2] else 0.0)
            ch.send(_burst(sent, step[1]), at=max(at, ch._last_at))
            sent += 1
        elif kind == "read":
            assert ch.queued_cells == _recount(ch)
        elif kind == "advance":
            sim.run(until=sim.now + step[1] * TICK)
            assert ch.queued_cells == _recount(ch)
        elif kind == "stall":
            ch.stall()
        else:
            ch.unstall()
        assert ch.queued_cells == _recount(ch)
    ch.unstall()
    sim.run()
    assert ch.queued_cells == 0
    assert [b.msg_id for b in sink.landed] == list(range(sent))


def test_a_255_way_fan_in_counts_each_burst_once():
    sim, ch, _ = _channel()
    sim.run(until=TICK)
    depths = []
    for i in range(255):
        ch.send(_burst(i, 1 + i % 3))
        depths.append(ch.queued_cells)
    assert depths == [sum(1 + j % 3 for j in range(i + 1))
                      for i in range(255)]
    # the same fan-in behind the switching latency reaches the port
    # only when the latency ends
    sim, ch, _ = _channel()
    behind = []
    for i in range(255):
        ch.send(_burst(i, 1 + i % 3), at=sim.now + LATENCY)
        behind.append(ch.queued_cells)
    assert behind == [0] * 255
    sim.run(until=LATENCY)
    assert ch.queued_cells == depths[-1]
