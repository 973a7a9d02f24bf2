"""Adaptive error control: Jacobson RTO, Karn's rule, retry budget."""

from types import SimpleNamespace

import pytest

from repro import NcsRuntime
from repro.faults import FaultInjector, FaultPlan, Partition
from repro.net.topology import build_atm_cluster
from repro.resilience import ClusterResilience
from repro.resilience.adaptive import AdaptiveAckErrorControl

from ..counts import count


def make_unit_ec(**kw):
    """An unbound instance wired to stand-ins: enough for the estimator."""
    ec = AdaptiveAckErrorControl(**kw)
    ec.sim = SimpleNamespace(now=0.0)
    confirmed = []
    ec.mps = SimpleNamespace(transport=SimpleNamespace(
        on_delivery_confirmed=confirmed.append))
    ec._m_rto = SimpleNamespace(set=lambda v: None)
    return ec, confirmed


def msg(uid, to=1):
    return SimpleNamespace(msg_uid=uid, to_process=to, deadline=None)


def test_first_sample_seeds_srtt_and_rttvar():
    ec, _ = make_unit_ec(timeout_s=0.05)
    assert ec.rto == 0.05                      # pre-sample: the static default
    ec._sample(0.02)
    assert ec.srtt == pytest.approx(0.02)
    assert ec.rttvar == pytest.approx(0.01)
    assert ec.rto == pytest.approx(0.02 + 4 * 0.01)


def test_rto_tracks_the_jacobson_recurrences():
    ec, _ = make_unit_ec()
    ec._sample(0.02)
    srtt, rttvar = ec.srtt, ec.rttvar
    ec._sample(0.04)
    assert ec.rttvar == pytest.approx(
        (1 - ec.beta) * rttvar + ec.beta * abs(srtt - 0.04))
    assert ec.srtt == pytest.approx((1 - ec.alpha) * srtt + ec.alpha * 0.04)
    assert ec.rto == pytest.approx(
        min(max(ec.srtt + 4 * ec.rttvar, ec.min_rto_s), ec.max_rto_s))


def test_rto_is_clamped_to_the_configured_band():
    ec, _ = make_unit_ec(min_rto_s=0.01, max_rto_s=0.1)
    ec._sample(1e-6)
    assert ec.rto == 0.01
    ec2, _ = make_unit_ec(min_rto_s=0.01, max_rto_s=0.1)
    ec2._sample(5.0)
    assert ec2.rto == 0.1


def test_karn_rule_skips_retransmitted_entries():
    ec, confirmed = make_unit_ec()
    ec.on_sent(msg((0, 1)))
    ec.on_sent(msg((0, 2)))
    ec._unacked[(0, 2)][2] = 1                 # pretend it was retransmitted
    ec.sim.now = 0.03
    ec.on_ack((0, 1))
    ec.on_ack((0, 2))
    assert ec.rtt_samples == 1                 # only the clean round trip
    assert len(confirmed) == 2                 # but both confirm delivery


def test_retry_budget_gives_up_before_max_retries():
    cluster = build_atm_cluster(2, seed=3, trace=True)
    res = ClusterResilience(heartbeat_interval_s=0.02, suspect_after_s=0.06,
                            dead_after_s=0.15)
    rt = NcsRuntime(cluster, mode="hsm", error="adaptive",
                    error_kwargs=dict(timeout_s=0.01, max_retries=50,
                                      check_interval_s=0.002,
                                      retry_budget_s=0.06),
                    resilience=res)
    cut = Partition(at=0.0, duration=None, groups=((0,), (1,)))
    FaultInjector(cluster, FaultPlan([cut]), runtime=rt).arm()

    def talk(ctx):
        yield ctx.send(-1, 1, "doomed", 2048, tag=3)
        yield ctx.sleep(0.4)

    def idle(ctx):
        yield ctx.sleep(0.4)

    rt.t_create(0, talk, name="talk")
    rt.t_create(1, idle, name="idle")
    rt.run(raise_message_lost=False)
    ec0 = rt.nodes[0].mps.ec
    # the budget wall fired long before 50 retries' worth of backoff
    assert ec0.budget_exhausted + ec0.abandoned >= 1
    assert count(cluster.metrics, "ec.retransmissions", pid=0) < 20


def test_adaptive_converges_on_a_live_cluster():
    cluster = build_atm_cluster(2, seed=4, trace=True)
    rt = NcsRuntime(cluster, mode="hsm", error="adaptive",
                    error_kwargs=dict(timeout_s=0.05, check_interval_s=0.002))

    def pong(ctx):
        for _ in range(20):
            m = yield ctx.recv(tag=1)
            yield ctx.send(m.from_thread, m.from_process, m.data, 2048, tag=2)

    def ping(ctx, peer):
        for i in range(20):
            yield ctx.send(peer, 1, i, 2048, tag=1)
            yield ctx.recv(tag=2)

    peer = rt.t_create(1, pong, name="pong")
    rt.t_create(0, ping, (peer,), name="ping")
    rt.run()
    ec0 = rt.nodes[0].mps.ec
    assert ec0.rtt_samples >= 20
    assert ec0.srtt is not None and ec0.srtt > 0
    # the measured ATM round trip is far below the 50 ms static default
    assert ec0.rto < 0.05
    # no spurious timeouts either
    assert count(cluster.metrics, "ec.retransmissions", pid=0) == 0


def test_rejects_bad_estimator_parameters():
    with pytest.raises(ValueError):
        AdaptiveAckErrorControl(min_rto_s=0.0)
    with pytest.raises(ValueError):
        AdaptiveAckErrorControl(min_rto_s=0.5, max_rto_s=0.1)
    with pytest.raises(ValueError):
        AdaptiveAckErrorControl(alpha=1.5)
    with pytest.raises(ValueError):
        AdaptiveAckErrorControl(retry_budget_s=0.0)
