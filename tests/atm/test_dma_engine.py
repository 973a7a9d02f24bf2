"""The SBA-200 DMA engine (``Sba200Adapter.dma``) against a recount.

Four users share one host's engine: the receive side (a reassembled PDU
moved to host memory), the Fig 2 pipeline (a filled kernel buffer moved
to the adapter), classical IP over ATM (``AtmIpAdapter.send``: fire and
forget) and a caller that waits (``AtmApi.send``).  Hypothesis draws
their transfers at random instants, and, at random instants, probe timers
for the instants the transfers asked for so far should finish; every run
is held to four laws:

* every transfer completes at ``max(ask, previous finish) + nbytes·8/bw``
  in the order it was asked for, and its completion entry is armed at
  ``max(ask, previous finish)``: it runs after a timer for the same
  instant armed before then, before one armed after then;
* each drain's transfers complete in the order they were submitted;
* a receive handler that raises is counted once and its error kept, and
  the next PDU is still delivered;
* ``BufferPipeline.drained()`` fires once and ``chunk_errors`` counts
  every chunk whose hand-off to SAR raised.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NcsRuntime, ServiceMode
from repro.atm.cell import CellBurst
from repro.core.mps.buffers import BufferPipeline
from repro.hosts import KernelBufferPool
from repro.net import build_atm_cluster
from repro.protocols.ip import IP_HEADER_BYTES, LLC_SNAP_BYTES, IpPacket
from repro.sim import Resource, Store

#: every drawn instant is a multiple of TICK, and UNIT bytes cross the
#: engine in exactly one TICK, so asks, completions and probes tie
TICK = 2.0 ** -12
UNIT = 64
BANDWIDTH = UNIT * 8 / TICK
BUFFER = 4 * UNIT

_action = st.one_of(
    st.tuples(st.just("rx"), st.integers(0, 6), st.booleans()),
    st.tuples(st.just("ip"), st.integers(1, 6)),
    st.tuples(st.just("api"), st.integers(0, 6)),
    st.tuples(st.just("probe")),
)
_schedule = st.lists(st.tuples(st.integers(0, 40), _action), max_size=30)
_sends = st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12)),
                  max_size=5)


class _Run:
    """One host-0 engine under the four users, every ask and every
    completion recorded through the adapter's two entry points."""

    def __init__(self):
        self.cluster = cluster = build_atm_cluster(3)
        self.sim = sim = cluster.sim
        self.adapter = adapter = cluster.host(0).interface("atm")
        adapter.dma_bandwidth_bps = BANDWIDTH
        self.step = itertools.count()
        #: [user, ask, nbytes, done, step] per transfer, in ask order
        self.asks = []
        #: [armed, at, step] per probe timer
        self.probes = []
        dma, transfer = adapter.dma, adapter.dma_transfer

        def recorded_dma(nbytes, fn, *args):
            row = [fn.__name__, sim.now, nbytes, None, None]
            self.asks.append(row)

            def done(*a):
                row[3:] = [sim.now, next(self.step)]
                fn(*a)
            dma(nbytes, done, *args)

        def recorded_transfer(nbytes):
            row = ["api", sim.now, nbytes, None, None]
            self.asks.append(row)
            yield from transfer(nbytes)
            row[3:] = [sim.now, next(self.step)]

        adapter.dma = recorded_dma
        adapter.dma_transfer = recorded_transfer

    def probe(self):
        """Arm a timer, here and now, for each instant at which a
        transfer asked for so far finishes by the recount, if later."""
        sim = self.sim
        for _armed, finish in _recount(self.asks):
            if finish > sim.now:
                row = [sim.now, finish, None]
                self.probes.append(row)
                sim.call_at(finish, self._fired, row)

    def _fired(self, row):
        row[2] = next(self.step)


def _recount(asks):
    """The engine's law, recounted in ask order: ``(armed, finish)`` per
    transfer, its completion armed at ``max(ask, previous finish)``."""
    finish = 0.0
    for _user, ask, nbytes, _done, _step in asks:
        armed = max(ask, finish)
        finish = armed + nbytes * 8 / BANDWIDTH
        yield armed, finish


@settings(max_examples=60, deadline=None)
@given(schedule=_schedule, sends=_sends,
       chunk_faults=st.sets(st.integers(0, 20), max_size=3))
def test_every_transfer_completes_as_a_fifo_server_recounts(
        schedule, sends, chunk_faults):
    run = _Run()
    sim, cluster, adapter = run.sim, run.cluster, run.adapter
    peer = cluster.host(1).name
    api = cluster.stack(0).atm_api
    ip_adapter = cluster.stack(0).ip.adapter
    rx_vc, tx_vc, api_vc = (cluster.hsm_vc(1, 0), cluster.hsm_vc(0, 1),
                            cluster.hsm_vc(0, 2))

    # the receive side: one final burst per PDU, a handler that raises
    # on the PDUs drawn to raise
    arrived, delivered, raised = [], [], []

    def handler(vc, payload, nbytes, msg_id):
        delivered.append(msg_id)
        if payload:
            raised.append(RuntimeError(f"probe: PDU {msg_id}"))
            raise raised[-1]
    adapter.rx_handler = handler

    def act(action):
        kind = action[0]
        if kind == "rx":
            msg_id = 1_000 + len(arrived)
            arrived.append(msg_id)
            adapter.receive_burst(CellBurst(
                vc=rx_vc, vci=rx_vc.src_vci, msg_id=msg_id, n_cells=1,
                payload_bytes=action[1] * UNIT, is_final=True,
                payload=action[2]), None)
        elif kind == "ip":
            ip_adapter.send(peer, IpPacket(
                cluster.host(0).name, peer, "none", None,
                action[1] * UNIT - IP_HEADER_BYTES - LLC_SNAP_BYTES,
                ident=len(run.asks)))
        elif kind == "api":
            sim.process(api.send(api_vc, "api", action[1] * UNIT))
        else:
            run.probe()

    for tick, action in schedule:
        sim.call_at(tick * TICK, act, action)

    # the Fig 2 pipeline: one sender, messages after drawn gaps; the
    # hand-off of the drawn chunks to SAR raises
    pipeline = BufferPipeline(
        cluster.host(0), adapter,
        pool=KernelBufferPool(count=2, buffer_bytes=BUFFER))
    handed, fired = [], []
    send_pdu = adapter.send_pdu

    def flaky_send_pdu(vc, nbytes, msg_id, is_final=True, payload=None):
        if vc is tx_vc:
            handed.append((msg_id, nbytes, is_final))
            if len(handed) - 1 in chunk_faults:
                raise RuntimeError("probe: the chunk broke")
        send_pdu(vc, nbytes, msg_id, is_final, payload)
    adapter.send_pdu = flaky_send_pdu

    def sender():
        for i, (gap, units) in enumerate(sends):
            yield gap * TICK
            yield from pipeline.pipelined_send(tx_vc, f"m{i}", units * UNIT)
        ev = pipeline.drained()
        ev.add_callback(lambda _ev: fired.append(sim.now))
        yield ev
    sim.process(sender())
    sim.run()

    # law 1: a FIFO server, each completion on an entry armed at
    # max(ask, previous finish)
    served = []
    for row, (armed, finish) in zip(run.asks, _recount(run.asks)):
        assert row[3] == finish, row
        served.append((armed, finish, row[4]))
    steps = [step for _armed, _done, step in served]
    assert steps == sorted(steps)
    for armed_p, at, step_p in run.probes:
        for armed, done, step in served:
            if done == at and armed != armed_p:
                assert (step < step_p) == (armed < armed_p), (
                    armed, armed_p, at)

    # law 2 and 3: the receive side delivers every PDU in reassembly
    # order; a raise is counted once and the first one kept
    assert delivered == arrived
    assert adapter.delivery_errors == len(raised)
    assert adapter.first_delivery_error is (raised[0] if raised else None)

    # law 2 and 4: the pipeline hands its chunks to SAR in fill order;
    # drained() fires once, when the last chunk is handed over
    expected = [(nbytes, is_final) for _gap, units in sends
                for nbytes, is_final in _chunks(pipeline, units * UNIT)]
    assert [(nbytes, final) for _msg, nbytes, final in handed] == expected
    msg_ids = [msg for msg, _nbytes, _final in handed]
    assert msg_ids == sorted(msg_ids)
    assert pipeline.chunk_errors == len(chunk_faults & set(range(len(handed))))
    assert pipeline.chunks_in_flight == 0
    last = max((done for user, _ask, _n, done, _s in run.asks
                if user == "_chunk_done"), default=None)
    assert len(fired) == 1
    if last is not None:
        assert fired == [last]


def _chunks(pipeline, nbytes):
    sizes = pipeline.pool.chunks(nbytes)
    return [(size, i == len(sizes) - 1) for i, size in enumerate(sizes)]


# ------------------------------------------------------------ bad sizes
@pytest.mark.parametrize("nbytes", [True, 64.0, -1, "64", None])
def test_a_bad_size_is_refused_at_the_ask(nbytes):
    """``dma`` and ``dma_transfer`` check the size when they are asked,
    so a bad one can no longer die unheard inside a spawned body."""
    cluster = build_atm_cluster(2)
    adapter = cluster.host(0).interface("atm")
    with pytest.raises(ValueError, match="nbytes must be an integer"):
        adapter.dma(nbytes, lambda: None)
    with pytest.raises(ValueError, match="nbytes must be an integer"):
        next(adapter.dma_transfer(nbytes))
    assert not adapter._dma_queue


@pytest.mark.parametrize("payload_bytes", [64.5, -100])
def test_a_datagram_of_bad_size_raises_at_the_send(payload_bytes):
    """IP over ATM: the size was checked when the ``ipoa-tx`` body
    booted, and that failure found no listener."""
    cluster = build_atm_cluster(2)
    ip_adapter = cluster.stack(0).ip.adapter
    packet = IpPacket("n0", "n1", "none", None, payload_bytes, ident=1)
    with pytest.raises(ValueError, match="nbytes must be an integer"):
        ip_adapter.send("n1", packet)
    cluster.sim.run()
    assert cluster.metrics.snapshot()["atm.pdus_sent"]["host=n0"] == 0


def test_a_raise_in_a_nic_delivery_surfaces_from_run(monkeypatch):
    """An exception from ``mps.deliver_data`` on a NIC delivery used to
    die with the spawned body; it now propagates out of
    ``Simulator.run``, annotated with the call and the instant."""
    rt = NcsRuntime(build_atm_cluster(3), mode=ServiceMode.NSM,
                    collectives="nic")
    mps = rt.nodes[1].mps

    def broken(msg):
        raise RuntimeError("probe: the delivery broke")
    monkeypatch.setattr(mps.mailbox, "deliver", broken)
    mps.collectives._deliver_data((0, 0), "x", 64, 7, 0.0)
    with pytest.raises(RuntimeError, match="the delivery broke") as info:
        rt.sim.run()
    assert any("call 'NcsMps.deliver_data' at t=" in note
               for note in getattr(info.value, "__notes__", ()))


def test_the_engine_holds_no_resource():
    cluster = build_atm_cluster(2)
    adapter = cluster.host(0).interface("atm")
    assert not [name for name, value in vars(adapter).items()
                if isinstance(value, (Resource, Store))]
