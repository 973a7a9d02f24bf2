"""Tests for NCS_recv timeouts and the probe primitive (§3.1 exception
handling service class)."""

import pytest

from repro.core import NcsRuntime
from repro.core.mps import RecvTimeout
from repro.net import build_ethernet_cluster


def make(n=2):
    cluster = build_ethernet_cluster(n)
    return cluster, NcsRuntime(cluster)


class TestRecvTimeout:
    def test_timeout_fires_when_no_message(self):
        cluster, rt = make()
        def lonely(ctx):
            try:
                yield ctx.recv(timeout=0.25)
            except RecvTimeout as e:
                return ("timed-out", e.seconds, round(ctx.now, 6))
        tid = rt.t_create(0, lonely)
        rt.run(max_events=500_000)
        verdict, secs, when = rt.thread_result(0, tid)
        assert verdict == "timed-out" and secs == 0.25
        assert when >= 0.25

    def test_message_beats_timeout(self):
        cluster, rt = make()
        def receiver(ctx):
            msg = yield ctx.recv(timeout=10.0)
            return msg.data
        def sender(ctx, rtid):
            yield ctx.send(rtid, 0, "fast", 64)
        rtid = rt.t_create(0, receiver)
        rt.t_create(1, sender, (rtid,))
        rt.run(max_events=500_000)
        assert rt.thread_result(0, rtid) == "fast"

    def test_thread_usable_after_timeout(self):
        cluster, rt = make()
        def persistent(ctx):
            try:
                yield ctx.recv(timeout=0.1)
            except RecvTimeout:
                pass
            msg = yield ctx.recv()      # no timeout: waits for real data
            return msg.data
        def late_sender(ctx, rtid):
            yield ctx.sleep(0.5)
            yield ctx.send(rtid, 0, "late", 64)
        rtid = rt.t_create(0, persistent)
        rt.t_create(1, late_sender, (rtid,))
        rt.run(max_events=500_000)
        assert rt.thread_result(0, rtid) == "late"

    def test_negative_timeout_rejected(self):
        from repro.core.mts import ops
        with pytest.raises(ValueError):
            ops.Recv(timeout=-1.0)

    def test_timeout_zero_expires_if_nothing_queued(self):
        cluster, rt = make()
        def impatient(ctx):
            try:
                yield ctx.recv(timeout=0.0)
            except RecvTimeout:
                return "instant"
        tid = rt.t_create(0, impatient)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, tid) == "instant"


class TestStaleTimeoutTimers:
    """A receive that completed leaves its timer armed; when it fires it
    must not mistake the thread's *next* receive — equal field by field —
    for the one it was armed for."""

    @staticmethod
    def _two_sends_three_seconds_apart(rt, rtid):
        def sender(ctx):
            yield ctx.send(rtid, 0, "first", 64)
            yield ctx.sleep(3.0)
            yield ctx.send(rtid, 0, "second", 64)
        rt.t_create(1, sender)

    def test_second_receive_without_timeout(self):
        cluster, rt = make()
        def receiver(ctx):
            first = yield ctx.recv(timeout=1.0)     # arrives at once
            second = yield ctx.recv()               # waits ~3 s
            return (first.data, second.data, ctx.now > 3.0)
        rtid = rt.t_create(0, receiver)
        self._two_sends_three_seconds_apart(rt, rtid)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, rtid) == ("first", "second", True)

    def test_second_receive_with_a_longer_timeout(self):
        cluster, rt = make()
        def receiver(ctx):
            first = yield ctx.recv(timeout=1.0)
            second = yield ctx.recv(timeout=5.0)
            return (first.data, second.data, ctx.now > 3.0)
        rtid = rt.t_create(0, receiver)
        self._two_sends_three_seconds_apart(rt, rtid)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, rtid) == ("first", "second", True)

    def test_second_receive_still_times_out_on_its_own_timer(self):
        cluster, rt = make()
        def receiver(ctx):
            yield ctx.recv(timeout=1.0)
            try:
                yield ctx.recv(timeout=1.5)
            except RecvTimeout as e:
                return (e.seconds, ctx.now > 1.5)
        rtid = rt.t_create(0, receiver)
        self._two_sends_three_seconds_apart(rt, rtid)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, rtid) == (1.5, True)

    def test_two_threads_equal_wildcards(self):
        """Two threads post receives that differ in nothing but who
        posted them; one message arrives: the first poster gets it, the
        other runs into its own timeout — and its next receive is not
        hit by the winner's stale timer."""
        cluster, rt = make()
        def waiter(ctx, seconds):
            try:
                msg = yield ctx.recv(timeout=seconds)
                got = msg.data
            except RecvTimeout as e:
                got = ("timed-out", e.seconds)
            late = yield ctx.recv()
            return (got, late.data)
        a = rt.t_create(0, waiter, (1.0,), name="a")
        b = rt.t_create(0, waiter, (2.0,), name="b")
        def sender(ctx):
            yield ctx.send(-1, 0, "only", 64)
            yield ctx.sleep(3.0)
            yield ctx.send(a, 0, "late-a", 64)
            yield ctx.send(b, 0, "late-b", 64)
        rt.t_create(1, sender)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, a) == ("only", "late-a")
        assert rt.thread_result(0, b) == (("timed-out", 2.0), "late-b")


class TestProbe:
    def test_probe_false_then_true(self):
        cluster, rt = make()
        def poller(ctx):
            early = yield ctx.probe()
            while not (yield ctx.probe()):
                yield ctx.sleep(0.05)
            msg = yield ctx.recv()
            return (early, msg.data)
        def sender(ctx, rtid):
            yield ctx.sleep(0.4)
            yield ctx.send(rtid, 0, "polled", 64)
        rtid = rt.t_create(0, poller)
        rt.t_create(1, sender, (rtid,))
        rt.run(max_events=1_000_000)
        early, data = rt.thread_result(0, rtid)
        assert early is False and data == "polled"

    def test_probe_respects_filters(self):
        cluster, rt = make()
        def receiver(ctx):
            yield ctx.recv(tag=1)             # consume the tag-1 message
            while not (yield ctx.probe(tag=2)):
                yield ctx.sleep(0.01)         # tag-2 still in flight
            wrong_tag = yield ctx.probe(tag=99)
            right_tag = yield ctx.probe(tag=2)
            msg = yield ctx.recv(tag=2)
            return (wrong_tag, right_tag, msg.data)
        def sender(ctx, rtid):
            yield ctx.send(rtid, 0, "first", 64, tag=1)
            yield ctx.send(rtid, 0, "second", 64, tag=2)
        rtid = rt.t_create(0, receiver)
        rt.t_create(1, sender, (rtid,))
        rt.run(max_events=1_000_000)
        assert rt.thread_result(0, rtid) == (False, True, "second")

    def test_probe_is_nondestructive(self):
        cluster, rt = make()
        def receiver(ctx):
            while not (yield ctx.probe()):
                yield ctx.sleep(0.01)
            a = yield ctx.probe()
            b = yield ctx.probe()
            msg = yield ctx.recv()
            return (a, b, msg.data)
        def sender(ctx, rtid):
            yield ctx.send(rtid, 0, "still-there", 64)
        rtid = rt.t_create(0, receiver)
        rt.t_create(1, sender, (rtid,))
        rt.run(max_events=1_000_000)
        assert rt.thread_result(0, rtid) == (True, True, "still-there")
