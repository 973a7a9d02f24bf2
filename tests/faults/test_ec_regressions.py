"""Regressions in AckRetransmitErrorControl bookkeeping.

Two historical bugs:

* the receiver-side dedup set ``_seen`` grew without bound over a
  process's lifetime — it is now an insertion-ordered dict capped at
  ``dedup_capacity`` with oldest-first eviction;
* ``on_sent`` keyed ``_unacked`` by the raw ``msg.msg_uid`` tuple while
  ``on_ack``/``on_nack`` saw the uid as it survived the wire (a list,
  historically), so an acked message could stay queued for
  retransmission forever.  Every uid now normalizes through ``_uid``.
"""

from types import SimpleNamespace

from repro import NcsRuntime
from repro.core.mps.error_control import AckRetransmitErrorControl
from repro.faults import FaultInjector, FaultPlan, MessageLoss
from repro.net.topology import build_atm_cluster

from ..counts import count
from .util import FAST_EC


def make_ec(**kw):
    ec = AckRetransmitErrorControl(**kw)
    ec.sim = SimpleNamespace(now=0.0)
    ec.mps = SimpleNamespace(transport=SimpleNamespace(
        on_delivery_confirmed=lambda m: None))
    return ec


def msg(uid):
    return SimpleNamespace(msg_uid=uid, to_process=1, deadline=None)


# --------------------------------------------------------- dedup set bound
def test_seen_set_is_bounded_with_oldest_first_eviction():
    ec = make_ec(dedup_capacity=4)
    for i in range(10):
        assert ec.is_duplicate(msg((1, i))) is False
    assert len(ec._seen) == 4
    # the four newest survive; the evicted oldest are forgotten
    assert list(ec._seen) == [(1, 6), (1, 7), (1, 8), (1, 9)]
    assert ec.is_duplicate(msg((1, 9))) is True
    assert ec.is_duplicate(msg((1, 0))) is False   # evicted => seen anew


def test_duplicate_hit_does_not_evict():
    ec = make_ec(dedup_capacity=2)
    ec.is_duplicate(msg((0, 1)))
    ec.is_duplicate(msg((0, 2)))
    for _ in range(5):
        assert ec.is_duplicate(msg((0, 2))) is True
    assert ec.is_duplicate(msg((0, 1))) is True    # still remembered


def test_dedup_stays_bounded_under_retransmission_load():
    """Integration: a lossy link forces retransmissions; the receiver's
    dedup set still respects its (tiny) configured cap."""
    cluster = build_atm_cluster(2, seed=21, trace=True)
    rt = NcsRuntime(cluster, mode="hsm", error="ack",
                    error_kwargs=dict(FAST_EC, max_retries=6,
                                      dedup_capacity=8))
    loss = MessageLoss(at=0.0, duration=0.05, p=0.3, pids=(1,))
    FaultInjector(cluster, FaultPlan([loss]), runtime=rt).arm()

    def source(ctx):
        for i in range(40):
            yield ctx.send(-1, 1, i, 1024, tag=2)

    def sink(ctx):
        for _ in range(40):
            yield ctx.recv(tag=2)

    rt.t_create(0, source, name="source")
    rt.t_create(1, sink, name="sink")
    rt.run()
    # the fault did bite
    assert count(cluster.metrics, "ec.retransmissions", pid=0) > 0
    assert len(rt.nodes[1].mps.ec._seen) <= 8


# ------------------------------------------------------- uid normalization
def test_ack_with_list_uid_clears_the_tuple_keyed_entry():
    ec = make_ec()
    ec.on_sent(msg((3, 7)))
    assert (3, 7) in ec._unacked
    ec.on_ack([3, 7])                              # as deserialized off the wire
    assert not ec._unacked                         # no type-confused ghost


def test_nack_with_list_uid_targets_the_same_entry():
    ec = make_ec()
    ec.on_sent(msg((3, 8)))
    ec.on_nack([3, 8])
    assert ec._nacked == [(3, 8)]                  # canonical tuple form


def test_duplicate_detection_is_uid_type_agnostic():
    ec = make_ec(dedup_capacity=16)
    assert ec.is_duplicate(msg((5, 1))) is False
    assert ec.is_duplicate(msg([5, 1])) is True    # same uid, list spelling
    assert len(ec._seen) == 1


def test_on_sent_retransmit_copy_does_not_reset_tracking():
    ec = make_ec()
    ec.on_sent(msg((9, 1)))
    ec._unacked[(9, 1)][2] = 2                     # two retries in
    ec.on_sent(msg([9, 1]))                        # re-send of the same uid
    assert len(ec._unacked) == 1
    assert ec._unacked[(9, 1)][2] == 2             # retry count preserved
