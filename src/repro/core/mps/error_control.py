"""Pluggable error control (the EC thread of Fig 8).

Approach 1 inherits p4's (really TCP's) reliability, "and uses the flow
and error control provided by p4" (§4.1).  Approach 2 runs on raw AAL5,
where a corrupted cell kills a whole PDU with no recovery below NCS —
so the EC thread implements message-level positive-ack retransmission:

* the sender's EC thread keeps a copy of every un-acked message and
  retransmits after ``rto`` (doubling, up to ``max_retries``);
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

Three policies, one implementation of retransmission:

* ``none`` — :class:`ErrorControl` itself: trust the transport;
* ``ack`` — :class:`AckRetransmitErrorControl`: ``rto`` is the fixed
  ``timeout_s``;
* ``adaptive`` — :class:`AdaptiveAckErrorControl`: ``ack`` with the TCP
  estimator on (Jacobson 1988, RFC 6298), sampled from send→ACK round
  trips with Karn's rule (a message that was ever retransmitted gives no
  sample, its ACK is ambiguous)::

      SRTT   <- (1-ALPHA)*SRTT + ALPHA*sample
      RTTVAR <- (1-BETA)*RTTVAR + BETA*|SRTT - sample|
      RTO    <- clamp(SRTT + 4*RTTVAR, min_rto_s, max_rto_s)

  plus a per-message ``retry_budget_s`` give-up.  Message deadlines
  (``NCS_send(..., deadline=t)``) stop retransmission under both.
"""

from __future__ import annotations

from typing import Any, Optional

from ...registry import ERROR_CONTROLS
from ...sim import check_param, check_size
from ..mts import ops

__all__ = ["ErrorControl", "AckRetransmitErrorControl",
           "AdaptiveAckErrorControl", "make_error_control", "MessageLost"]

#: RFC 6298's estimator gains
ALPHA = 1 / 8
BETA = 1 / 4


class MessageLost(RuntimeError):
    """Raised to a sending thread when retransmission gives up."""


@ERROR_CONTROLS.register("none")
class ErrorControl:
    """The strategy interface, and the ``none`` policy: trust the
    transport (TCP, or an error-free fabric)."""

    name = "none"
    #: does the receiver need to ACK data messages?
    wants_acks = False
    #: the system thread the MPS created from :meth:`thread_body`, if any
    thread = None

    def bind(self, mps: Any) -> None:
        """Attach to one node's MPS and register the EC counters."""
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

    def abandon_peer(self, pid: int) -> int:
        """Stop retransmitting to a dead peer; returns how many messages
        were dropped (none: nothing is tracked)."""
        return 0

    def is_duplicate(self, msg) -> bool:
        """Receiver-side dedup for retransmitted messages."""
        return False

    def thread_body(self, ctx, mps):
        """The EC system-thread body; None means no thread needed."""
        return None


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

    The retransmission timer is ``rto``; only the estimator moves it,
    and only ``adaptive`` turns the estimator on, so under ``ack`` it
    stays ``timeout_s``.
    """

    name = "ack"
    wants_acks = True
    #: sample clean round trips into ``rto`` (``adaptive``)
    estimating = False
    #: give up on a message this long after its first send (``adaptive``)
    retry_budget_s: Optional[float] = None

    def __init__(self, timeout_s: float = 0.05, max_retries: int = 8,
                 check_interval_s: float = 0.01,
                 dedup_capacity: int = 65536):
        check_param("timeout_s", timeout_s, positive=True)
        check_param("check_interval_s", check_interval_s, positive=True)
        check_size("max_retries", max_retries)
        check_size("dedup_capacity", dedup_capacity)
        if max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if dedup_capacity < 1:
            raise ValueError("dedup_capacity must be >= 1")
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.check_interval_s = check_interval_s
        self.dedup_capacity = dedup_capacity
        #: current retransmission timeout
        self.rto = timeout_s
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        #: canonical msg_uid -> [msg, deadline, retries, first-send time]
        self._unacked: dict[tuple, list] = {}
        #: insertion-ordered dedup set (dict keys; oldest evicted first)
        self._seen: dict[tuple, None] = {}
        self._nacked: list[tuple] = []
        #: messages dropped by ``abandon_peer``, by ``retry_budget_s``,
        #: and round trips sampled (retransmissions and give-ups are
        #: counted in the registry only)
        self.abandoned = 0
        self.budget_exhausted = 0
        self.rtt_samples = 0

    @staticmethod
    def _uid(raw) -> tuple:
        """One canonical key form for every uid-keyed structure.

        ``on_sent`` sees the raw ``msg.msg_uid`` tuple while ``on_ack``
        and ``on_nack`` see whatever survived the wire (historically a
        list after serialization) — normalizing here is what keeps a
        retransmitted message from being tracked under two keys."""
        return raw if type(raw) is tuple else tuple(raw)

    def has_pending(self) -> bool:
        """True while a message awaits its ACK or a NACK awaits service."""
        return bool(self._unacked or self._nacked)

    # ----------------------------------------------------------- sender side
    def on_sent(self, msg) -> None:
        """Track a first transmission; its timer runs from now."""
        uid = self._uid(msg.msg_uid)
        if uid not in self._unacked:
            now = self.sim.now
            self._unacked[uid] = [msg, now + self.rto, 0, now]
            self._kick()

    def on_ack(self, msg_uid) -> None:
        """Stop tracking an acked message; sample it if never resent."""
        entry = self._unacked.pop(self._uid(msg_uid), None)
        if entry is None:
            return
        if self.estimating and entry[2] == 0:
            self._sample(self.sim.now - entry[3])
        self.mps.transport.on_delivery_confirmed(entry[0])

    def on_nack(self, msg_uid) -> None:
        """Queue a tracked message for immediate retransmission."""
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

    def _sample(self, rtt: float) -> None:
        if rtt < 0:   # pragma: no cover - sim time is monotonic
            return
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = ((1 - BETA) * self.rttvar
                           + BETA * abs(self.srtt - rtt))
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self.rtt_samples += 1
        self.rto = max(self.min_rto_s,
                       min(self.srtt + 4 * self.rttvar, self.max_rto_s))
        self._m_rto.set(self.rto)

    # --------------------------------------------------------- receiver side
    def is_duplicate(self, msg) -> bool:
        """True for a uid seen before; remembers the newest uids."""
        uid = self._uid(msg.msg_uid)
        if uid in self._seen:
            return True
        self._seen[uid] = None
        while len(self._seen) > self.dedup_capacity:
            del self._seen[next(iter(self._seen))]
        return False

    # ------------------------------------------------------------ EC thread
    def thread_body(self, ctx, mps):
        """The EC system thread: serves NACKs at once and expired timers
        every ``check_interval_s``; parks while nothing is tracked."""
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
        self._m_gave_up.inc()
        del self._unacked[uid]
        self.mps.host.tracer.point(f"ec:{self.mps.pid}", why, uid)
        self.mps.on_message_lost(msg)

    def _retransmit(self, uid, entry):
        msg, _, retries, first_sent = entry
        now = self.sim.now
        if (self.retry_budget_s is not None
                and now - first_sent >= self.retry_budget_s):
            self.budget_exhausted += 1
            self._give_up(uid, msg, "budget-exhausted")
            return
        if msg.deadline is not None and now >= msg.deadline:
            self._give_up(uid, msg, "deadline-expired")
            return
        if retries >= self.max_retries:
            self._give_up(uid, msg, "gave-up")
            return
        entry[2] = retries = retries + 1
        entry[1] = now + self.rto * (2 ** retries)
        self._m_retransmissions.inc()
        self.mps.host.tracer.point(
            f"ec:{self.mps.pid}", "retransmit", uid)
        self.mps.transport.on_path_suspect(msg)
        accepted = ops.Wake()
        self.mps.transport.start_send(msg, accepted.wake)
        yield accepted


@ERROR_CONTROLS.register("adaptive")
class AdaptiveAckErrorControl(AckRetransmitErrorControl):
    """``ack`` with the estimator on: ``rto`` starts at ``timeout_s``
    clamped to ``[min_rto_s, max_rto_s]`` and follows the measured round
    trips (exported as the ``ec.rto`` gauge); a message still unacked
    ``retry_budget_s`` after its first send is given up."""

    name = "adaptive"
    estimating = True

    def __init__(self, timeout_s: float = 0.05, max_retries: int = 8,
                 check_interval_s: float = 0.01,
                 dedup_capacity: int = 65536,
                 min_rto_s: float = 0.005, max_rto_s: float = 2.0,
                 retry_budget_s: Optional[float] = None):
        super().__init__(timeout_s, max_retries, check_interval_s,
                         dedup_capacity)
        check_param("min_rto_s", min_rto_s, positive=True)
        check_param("max_rto_s", max_rto_s, positive=True)
        if min_rto_s > max_rto_s:
            raise ValueError("need 0 < min_rto_s <= max_rto_s")
        if retry_budget_s is not None:
            check_param("retry_budget_s", retry_budget_s, positive=True)
        self.min_rto_s = min_rto_s
        self.max_rto_s = max_rto_s
        self.retry_budget_s = retry_budget_s
        self.rto = max(min(timeout_s, max_rto_s), min_rto_s)

    def bind(self, mps) -> None:
        """Attach, and export ``rto`` as the ``ec.rto`` gauge."""
        super().bind(mps)
        self._m_rto = mps.sim.metrics.gauge(
            "ec.rto", help="current adaptive retransmission timeout (s)",
            pid=mps.pid)
        self._m_rto.set(self.rto)


def make_error_control(spec: Optional[str], **kwargs) -> ErrorControl:
    """``NCS_init(..., error)``: resolve a strategy by registered name.

    Unknown names fail with the list of registered policies; new
    policies plug in via ``@ERROR_CONTROLS.register("name")``.
    """
    if spec is None:
        return ErrorControl()
    return ERROR_CONTROLS.get(spec)(**kwargs)
