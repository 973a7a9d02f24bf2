"""Telemetry must be free when off and inert when on.

Two contracts: a cluster built with ``metrics=False`` allocates no
instruments and records nothing; and — the important one — enabling or
disabling telemetry never changes a single simulated timestamp.
"""

from repro import NcsRuntime, build_ethernet_cluster
from repro.obs import NULL_REGISTRY
from repro.obs.registry import _NullInstrument


def _pingpong(metrics: bool, rounds: int = 20):
    cluster = build_ethernet_cluster(2, metrics=metrics)
    rt = NcsRuntime(cluster)

    def pong(ctx):
        for _ in range(rounds):
            msg = yield ctx.recv()
            yield ctx.send(msg.from_thread, msg.from_process, "pong", 512)

    def ping(ctx, peer_tid):
        for _ in range(rounds):
            yield ctx.send(peer_tid, 1, "ping", 512)
            yield ctx.recv()

    pong_tid = rt.t_create(1, pong)
    rt.t_create(0, ping, (pong_tid,))
    return rt.run(), cluster


def test_disabled_cluster_uses_the_null_registry():
    cluster = build_ethernet_cluster(2, metrics=False)
    assert cluster.metrics is NULL_REGISTRY
    assert not cluster.metrics.enabled


def test_disabled_cluster_allocates_no_instruments():
    cluster = build_ethernet_cluster(2, metrics=False)
    rt = NcsRuntime(cluster)
    # every layer handle is the one shared no-op singleton
    assert isinstance(cluster.lan._m_delivered, _NullInstrument)
    assert cluster.lan._m_delivered is cluster.stacks[0].ip._m_sent
    assert rt.nodes[0].scheduler._m_switches is cluster.lan._m_dropped


def test_disabled_cluster_records_nothing():
    _, cluster = _pingpong(metrics=False)
    assert cluster.metrics.snapshot() == {}
    assert cluster.metrics.names() == []


def test_telemetry_never_perturbs_the_simulation():
    makespan_on, cluster_on = _pingpong(metrics=True)
    makespan_off, _ = _pingpong(metrics=False)
    assert makespan_on == makespan_off
    # and the enabled run did record the traffic
    assert cluster_on.metrics.value("mps.data_sent", pid=0) == 20
    assert cluster_on.metrics.value("mps.data_received", pid=1) == 20
