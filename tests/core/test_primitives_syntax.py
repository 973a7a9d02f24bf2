"""Fig 7 — the NCS primitive syntax, exercised verbatim.

    NCS_send(from_thread, from_process, to_thread, to_process, data, size)
    NCS_recv(from_thread, from_process, to_thread, to_process, data, size)
    NCS_bcast(from_thread, from_process, list, data, size)

The reproduction exposes the same parameters (sender identity is
implicit — a thread cannot forge its from-fields), with ``-1`` as the
receive-side wildcard exactly as Figs 7/17 use it.
"""

import pytest

from repro.core import NcsRuntime
from repro.core.mps import ANY, ANY_THREAD, NcsMessage
from repro.core.mts import ops
from repro.net import build_atm_cluster, build_ethernet_cluster

#: sizes that are not a byte count: each must fail at the call
BAD_SIZES = [float("nan"), 1.5, True, "8"]


class TestFig7Signatures:
    def test_send_op_fields(self):
        op = ops.Send(to_thread=3, to_process=1, data="payload", size=1024)
        assert (op.to_thread, op.to_process, op.data, op.size) == \
            (3, 1, "payload", 1024)

    def test_recv_op_wildcards_default(self):
        op = ops.Recv()
        assert op.from_thread == -1 and op.from_process == -1

    def test_bcast_op_takes_identifier_list(self):
        op = ops.Bcast(targets=((3, 1), (4, 2)), data="B", size=2048)
        assert op.targets == ((3, 1), (4, 2))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ops.Send(1, 1, None, -1)

    @pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
    def test_message_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError) as exc:
            NcsMessage(0, 0, 1, 1, None, size)
        assert str(exc.value) == \
            f"message size must be an integer >= 0, got {size!r}"

    @pytest.mark.parametrize("mode", ["p4", "nsm", "hsm"])
    @pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
    def test_send_and_bcast_reject_a_non_integer_size(self, mode, size):
        """The sending thread gets the error at its call, in every
        service mode, and nothing reaches the wire."""
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode=mode)

        def sender(ctx):
            verdicts = []
            for call in (lambda: ctx.send(-1, 1, "x", size),
                         lambda: ctx.bcast([(-1, 1)], "x", size)):
                try:
                    yield call()
                except ValueError as e:
                    verdicts.append(str(e))
            return verdicts

        tid = rt.t_create(0, sender)
        rt.run(max_events=500_000)
        assert rt.thread_result(0, tid) == \
            [f"size must be an integer >= 0, got {size!r}"] * 2
        assert cluster.metrics.snapshot()["mps.data_sent"]["pid=0"] == 0


class TestMessageEnvelope:
    def test_from_fields_filled_by_runtime(self):
        """The paper's from_thread/from_process arrive at the receiver."""
        cluster = build_ethernet_cluster(2)
        rt = NcsRuntime(cluster)

        def sender(ctx):
            yield ctx.send(rtid, 1, None, 16)

        def receiver(ctx):
            msg = yield ctx.recv()
            return (msg.from_thread, msg.from_process,
                    msg.to_thread, msg.to_process)

        rtid = rt.t_create(1, receiver)
        stid = rt.t_create(0, sender)
        rt.run(max_events=500_000)
        assert rt.thread_result(1, rtid) == (stid, 0, rtid, 1)

    def test_wildcard_matching_matrix(self):
        msg = NcsMessage(from_thread=3, from_process=0,
                         to_thread=5, to_process=1, data=None, size=0)
        # exact
        assert msg.matches(3, 0, 5, 1)
        # the Fig 17 pattern: NCS_recv(-1, -1, THREAD1, HOST)
        assert msg.matches(ANY, ANY, 5, 1)
        # partial wildcards
        assert msg.matches(3, ANY, 5, 1)
        assert msg.matches(ANY, 0, 5, 1)
        # non-matches
        assert not msg.matches(4, 0, 5, 1)
        assert not msg.matches(3, 1, 5, 1)
        assert not msg.matches(3, 0, 6, 1)
        assert not msg.matches(3, 0, 5, 0)

    def test_any_thread_send_matches_any_receiver(self):
        msg = NcsMessage(from_thread=3, from_process=0,
                         to_thread=ANY_THREAD, to_process=1,
                         data=None, size=0)
        assert msg.matches(ANY, ANY, 5, 1)
        assert msg.matches(ANY, ANY, 99, 1)

    def test_wire_bytes_include_header(self):
        from repro.core.mps import NCS_HEADER_BYTES
        msg = NcsMessage(1, 0, 2, 1, None, 1000)
        assert msg.wire_bytes == 1000 + NCS_HEADER_BYTES
