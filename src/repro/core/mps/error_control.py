"""Pluggable error control (the EC thread of Fig 8).

Approach 1 inherits p4's (really TCP's) reliability, "and uses the flow
and error control provided by p4" (§4.1).  Approach 2 runs on raw AAL5,
where a corrupted cell kills a whole PDU with no recovery below NCS —
so the EC thread implements message-level positive-ack retransmission:

* the sender's EC thread keeps a copy of every un-acked message and
  retransmits after ``timeout_s`` (doubling, up to ``max_retries``);
* the receiver's MPS acks each tracked message as it is delivered and
  deduplicates retransmitted copies by ``msg_uid``;
* an AAL5 CRC failure reported by the adapter triggers an immediate NACK
  so recovery does not wait for the timer.

Coverage extends beyond application DATA to the MPS control messages
that carry collective state (barrier arrive/release, credits, remote
throws — :data:`repro.core.mps.core.RELIABLE_KINDS`), so barriers and
broadcasts survive transient faults too; only ACK/NACK themselves are
fire-and-forget (acking acks would never converge — a lost ACK is
recovered by the duplicate-suppressed retransmission it provokes).

When retries are exhausted the message is declared permanently lost:
the MPS surfaces :class:`MessageLost` to the originating thread and
:meth:`repro.core.api.NcsRuntime.run` re-raises it, so a partitioned
application fails loudly instead of hanging.
"""

from __future__ import annotations

from typing import Any, Optional

from ...registry import ERROR_CONTROLS
from ..mts import ops

__all__ = ["ErrorControl", "NoErrorControl", "AckRetransmitErrorControl",
           "make_error_control", "MessageLost"]


class MessageLost(RuntimeError):
    """Raised to a sending thread when retransmission gives up."""


class ErrorControl:
    """Strategy interface."""

    name = "base"
    #: does the receiver need to ACK data messages?
    wants_acks = False
    #: the system thread the MPS created from :meth:`thread_body`, if any
    thread = None

    def bind(self, mps: Any) -> None:
        self.mps = mps
        self.sim = mps.sim
        # telemetry handles (no-ops when the registry is disabled)
        _m = mps.sim.metrics
        self._m_retransmissions = _m.counter(
            "ec.retransmissions", help="EC timer/NACK retransmissions",
            pid=mps.pid)
        self._m_gave_up = _m.counter(
            "ec.gave_up", help="messages abandoned after max_retries",
            pid=mps.pid)

    def has_pending(self) -> bool:
        """True while unacked/retransmittable messages remain — keeps the
        scheduler alive until reliability obligations are met."""
        return False

    def on_sent(self, msg) -> None:
        """Sender-side: message handed to the transport."""

    def on_ack(self, msg_uid) -> None:
        """Sender-side: receiver confirmed delivery."""

    def on_nack(self, msg_uid) -> None:
        """Sender-side: receiver saw a corrupted PDU for this message."""

    def is_duplicate(self, msg) -> bool:
        """Receiver-side dedup for retransmitted messages."""
        return False

    def thread_body(self, ctx, mps):
        return None


@ERROR_CONTROLS.register("none")
class NoErrorControl(ErrorControl):
    """Trust the transport (TCP, or an error-free fabric)."""

    name = "none"


@ERROR_CONTROLS.register("ack")
class AckRetransmitErrorControl(ErrorControl):
    """Positive-ack + timeout retransmission at message level.

    ``dedup_capacity`` bounds the receiver-side duplicate-suppression
    set: once more than that many uids are remembered, the oldest are
    evicted in arrival order.  A uid only matters for dedup while its
    sender may still retransmit it (bounded by ``max_retries`` worth of
    backoff), so any capacity comfortably above the retransmission
    window is safe — and the set no longer grows without bound over a
    long-running process's lifetime.
    """

    name = "ack"
    wants_acks = True

    def __init__(self, timeout_s: float = 0.05, max_retries: int = 8,
                 check_interval_s: float = 0.01,
                 dedup_capacity: int = 65536):
        if timeout_s <= 0 or check_interval_s <= 0:
            raise ValueError("timeouts must be positive")
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if dedup_capacity < 1:
            raise ValueError("dedup_capacity must be >= 1")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.check_interval_s = check_interval_s
        self.dedup_capacity = dedup_capacity
        #: canonical msg_uid -> [msg, deadline, retries]
        self._unacked: dict[tuple, list] = {}
        #: insertion-ordered dedup set (dict keys; oldest evicted first)
        self._seen: dict[tuple, None] = {}
        self._nacked: list[tuple] = []
        #: statistics
        self.retransmissions = 0
        self.gave_up = 0
        self.abandoned = 0
        self.deadline_expired = 0

    @staticmethod
    def _uid(raw) -> tuple:
        """One canonical key form for every uid-keyed structure.

        ``on_sent`` sees the raw ``msg.msg_uid`` tuple while ``on_ack``
        and ``on_nack`` see whatever survived the wire (historically a
        list after serialization) — normalizing here is what keeps a
        retransmitted message from being tracked under two keys."""
        return raw if type(raw) is tuple else tuple(raw)

    def has_pending(self) -> bool:
        return bool(self._unacked or self._nacked)

    def _initial_timeout(self) -> float:
        """First retransmission timeout (adaptive EC overrides)."""
        return self.timeout_s

    def _retry_limit(self, msg) -> int:
        """Retry budget for one message (adaptive EC overrides)."""
        return self.max_retries

    # ----------------------------------------------------------- sender side
    def on_sent(self, msg) -> None:
        uid = self._uid(msg.msg_uid)
        if uid not in self._unacked:
            self._unacked[uid] = [msg, self.sim.now + self._initial_timeout(),
                                  0]
            self._kick()

    def on_ack(self, msg_uid) -> None:
        entry = self._unacked.pop(self._uid(msg_uid), None)
        if entry is not None:
            self.mps.transport.on_delivery_confirmed(entry[0])

    def on_nack(self, msg_uid) -> None:
        uid = self._uid(msg_uid)
        if uid in self._unacked:
            self._nacked.append(uid)
            self._kick()

    def abandon_peer(self, pid: int) -> int:
        """Stop retransmitting to a peer the failure detector confirmed
        dead.  The entries are dropped *without* surfacing
        :class:`MessageLost` — the resilience layer (work reassignment,
        or the operator) owns recovery now; poisoning the origin thread
        would fail the very coordinator doing the reassigning.  Returns
        the number of messages abandoned."""
        doomed = [uid for uid, entry in self._unacked.items()
                  if entry[0].to_process == pid]
        for uid in doomed:
            del self._unacked[uid]
        if doomed:
            self.abandoned += len(doomed)
            self._nacked = [uid for uid in self._nacked
                            if uid in self._unacked]
            self.mps.host.tracer.point(
                f"ec:{self.mps.pid}", "abandon-peer", (pid, len(doomed)))
        return len(doomed)

    def _kick(self) -> None:
        if self.thread is not None:
            self.mps.scheduler.signal(self.thread)

    # --------------------------------------------------------- receiver side
    def is_duplicate(self, msg) -> bool:
        uid = self._uid(msg.msg_uid)
        if uid in self._seen:
            return True
        self._seen[uid] = None
        while len(self._seen) > self.dedup_capacity:
            del self._seen[next(iter(self._seen))]
        return False

    # ------------------------------------------------------------ EC thread
    def thread_body(self, ctx, mps):
        def body(tctx):
            while True:
                # immediate NACK-driven retransmissions
                while self._nacked:
                    uid = self._nacked.pop()
                    entry = self._unacked.get(uid)
                    if entry is not None:
                        yield from self._retransmit(uid, entry)
                if not self._unacked:
                    yield tctx.park()
                    continue
                yield ops.Sleep(self.check_interval_s)
                now = self.sim.now
                for uid, entry in list(self._unacked.items()):
                    if entry[1] <= now:
                        yield from self._retransmit(uid, entry)
        return body

    def _give_up(self, uid, msg, why: str) -> None:
        self.gave_up += 1
        self._m_gave_up.inc()
        del self._unacked[uid]
        self.mps.host.tracer.point(f"ec:{self.mps.pid}", why, uid)
        self.mps.on_message_lost(msg)

    def _retransmit(self, uid, entry):
        # index, don't unpack: subclasses may append fields to the entry
        msg, retries = entry[0], entry[2]
        if msg.deadline is not None and self.sim.now >= msg.deadline:
            self.deadline_expired += 1
            self._give_up(uid, msg, "deadline-expired")
            return
        if retries >= self._retry_limit(msg):
            self._give_up(uid, msg, "gave-up")
            return
        entry[2] += 1
        backoff = self._initial_timeout() * (2 ** entry[2])
        entry[1] = self.sim.now + backoff
        self.retransmissions += 1
        self._m_retransmissions.inc()
        self.mps.host.tracer.point(
            f"ec:{self.mps.pid}", "retransmit", uid)
        self.mps.transport.on_path_suspect(msg)
        accepted = ops.Wake()
        self.mps.transport.start_send(msg, accepted.wake)
        yield accepted


def make_error_control(spec: Optional[str | ErrorControl],
                       **kwargs) -> ErrorControl:
    """``NCS_init(..., error)``: resolve a strategy by registered name.

    Unknown names fail with the list of registered policies; new
    policies plug in via ``@ERROR_CONTROLS.register("name")``.
    """
    if spec is None:
        return NoErrorControl()
    if isinstance(spec, ErrorControl):
        return spec
    return ERROR_CONTROLS.get(spec)(**kwargs)
