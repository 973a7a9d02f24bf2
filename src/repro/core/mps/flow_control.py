"""Pluggable flow control (the FC threads of Figs 5 and 8).

"NCS provides different flow control mechanisms such that the one that
best suites a given application can be invoked dynamically at runtime."
(§3)  A Video-on-Demand stream wants paced, rate-based injection; a bulk
parallel application wants a credit window; a barrier-heavy code may
want none at all.

Each strategy plugs into the MPS at two points:

* the **send thread** calls :meth:`acquire` before pushing a message to
  the transport — the returned wake handle (if any) is what the send
  thread blocks on and the FC thread wakes when the message may proceed;
* the **receive thread** calls :meth:`on_data_delivered` so window
  strategies can return credits to the sender (as MPS control traffic).

Strategies that need background work (token refill, credit application)
provide a ``thread_body`` that NCS installs as the FC system thread —
matching the paper's architecture where flow control is itself a thread.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ...registry import FLOW_CONTROLS
from ...sim import Simulator, check_param, check_size
from ..mts import ops

__all__ = ["FlowControl", "NoFlowControl", "WindowFlowControl",
           "RateFlowControl", "make_flow_control"]


class FlowControl:
    """Strategy interface."""

    name = "base"
    #: does this strategy need the receiver to send credits back?
    wants_credits = False
    #: the system thread the MPS created from :meth:`thread_body`, if any
    thread = None

    def bind(self, mps: Any) -> None:
        """Attach to one node's MPS and register the FC counters."""
        self.mps = mps
        self.sim: Simulator = mps.sim
        # telemetry handles (no-ops when the registry is disabled)
        _m = mps.sim.metrics
        self._m_stalls = _m.counter(
            "fc.send_stalls", help="sends gated by flow control",
            pid=mps.pid)
        self._m_credits = _m.counter(
            "fc.credits_applied", help="credit messages applied",
            pid=mps.pid)

    def acquire(self, dest_pid: int, nbytes: int) -> Optional[ops.Wake]:
        """None: proceed now.  A handle: the send thread must block on
        it (the strategy wakes it)."""
        raise NotImplementedError

    def on_data_delivered(self, msg) -> None:
        """Receive-side hook (credit generation)."""

    def on_credit(self, from_pid: int, nbytes: int) -> None:
        """Sender-side hook when a CREDIT control message arrives."""

    def thread_body(self, ctx, mps):
        """Optional FC system-thread body; None means no thread needed."""
        return None

    def _kick(self) -> None:
        if self.thread is not None:
            self.mps.scheduler.signal(self.thread)


@FLOW_CONTROLS.register("none")
class NoFlowControl(FlowControl):
    """Fire at will (the default; TCP below provides its own limits)."""

    name = "none"

    def acquire(self, dest_pid: int, nbytes: int) -> Optional[ops.Wake]:
        """Always proceed."""
        return None


@FLOW_CONTROLS.register("window")
class WindowFlowControl(FlowControl):
    """At most ``window_bytes`` of un-credited data per destination.

    The receiver's MPS returns a CREDIT control message for every data
    message it hands to the application, so a slow consumer back-
    pressures the sender — what TCP's window does, but at message level
    and per NCS destination.
    """

    name = "window"
    wants_credits = True

    def __init__(self, window_bytes: int = 64 * 1024):
        check_size("window_bytes", window_bytes)
        if window_bytes < 1:
            raise ValueError("window_bytes must be >= 1")
        self.window_bytes = window_bytes
        self._outstanding: dict[int, int] = {}
        self._waiters: Deque[tuple[int, int, ops.Wake]] = deque()
        #: credits queued for the FC thread to apply
        self._credit_q: Deque[tuple[int, int]] = deque()

    def outstanding(self, dest_pid: int) -> int:
        """Bytes sent to ``dest_pid`` and not yet credited back."""
        return self._outstanding.get(dest_pid, 0)

    def acquire(self, dest_pid: int, nbytes: int) -> Optional[ops.Wake]:
        """Proceed while the window has room, else queue (FIFO)."""
        take = min(nbytes, self.window_bytes)  # one oversized msg still fits
        if self.outstanding(dest_pid) + take <= self.window_bytes:
            self._outstanding[dest_pid] = self.outstanding(dest_pid) + take
            return None
        handle = ops.Wake()
        self._waiters.append((dest_pid, take, handle))
        self._m_stalls.inc()
        return handle

    def on_data_delivered(self, msg) -> None:
        """Receiver side: hand a credit back to the sender."""
        self.mps.send_control_credit(msg.from_process,
                                     min(msg.size, self.window_bytes))

    def on_credit(self, from_pid: int, nbytes: int) -> None:
        """Queue a credit for the FC thread to apply."""
        self._credit_q.append((from_pid, nbytes))
        self._kick()

    def _apply_credits(self) -> None:
        while self._credit_q:
            pid, nbytes = self._credit_q.popleft()
            self._m_credits.inc()
            self._outstanding[pid] = max(0, self.outstanding(pid) - nbytes)
        # admit as many waiters as now fit, FIFO per arrival
        still_waiting: Deque[tuple[int, int, ops.Wake]] = deque()
        while self._waiters:
            dest, take, handle = self._waiters.popleft()
            if self.outstanding(dest) + take <= self.window_bytes:
                self._outstanding[dest] = self.outstanding(dest) + take
                handle.wake()
            else:
                still_waiting.append((dest, take, handle))
        self._waiters = still_waiting

    def thread_body(self, ctx, mps):
        """The FC system thread: applies credits and wakes the send path."""
        def body(tctx):
            while True:
                if self._credit_q:
                    self._apply_credits()
                    continue
                yield tctx.park()
        return body


@FLOW_CONTROLS.register("rate")
class RateFlowControl(FlowControl):
    """Leaky-bucket pacing: ``rate_bytes_s`` sustained, ``bucket_bytes``
    burst — the VOD-style contract of Fig 5."""

    name = "rate"

    def __init__(self, rate_bytes_s: float, bucket_bytes: int = 64 * 1024):
        check_param("rate_bytes_s", rate_bytes_s, positive=True)
        check_size("bucket_bytes", bucket_bytes)
        if bucket_bytes < 1:
            raise ValueError("bucket_bytes must be >= 1")
        self.rate = rate_bytes_s
        self.bucket = bucket_bytes
        self._tokens = float(bucket_bytes)
        self._last_refill = 0.0
        self._waiters: Deque[tuple[float, ops.Wake]] = deque()

    #: token-grant tolerance: refill arithmetic accumulates float error,
    #: so "within a microbyte" counts as having the tokens (a strict
    #: comparison can livelock on an epsilon deficit)
    EPS_BYTES = 1e-6
    #: shortest pacing sleep worth scheduling
    MIN_SLEEP_S = 1e-6

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(self.bucket,
                           self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now

    def _grantable(self, need: float) -> bool:
        return self._tokens >= need - self.EPS_BYTES

    def acquire(self, dest_pid: int, nbytes: int) -> Optional[ops.Wake]:
        """Proceed when the bucket holds the tokens and nobody queues."""
        self._refill()
        need = min(nbytes, self.bucket)
        if not self._waiters and self._grantable(need):
            self._tokens = max(0.0, self._tokens - need)
            return None
        handle = ops.Wake()
        self._waiters.append((need, handle))
        self._m_stalls.inc()
        self._kick()
        return handle

    def thread_body(self, ctx, mps):
        """The FC thread sleeps exactly until the head waiter's tokens
        will have accumulated, then releases it."""
        def body(tctx):
            while True:
                if not self._waiters:
                    yield tctx.park()
                    continue
                self._refill()
                need, handle = self._waiters[0]
                if self._grantable(need):
                    self._waiters.popleft()
                    self._tokens = max(0.0, self._tokens - need)
                    handle.wake()
                    continue
                deficit = need - self._tokens
                yield ops.Sleep(max(deficit / self.rate, self.MIN_SLEEP_S))
        return body


def make_flow_control(spec: Optional[str], **kwargs) -> FlowControl:
    """``NCS_init(flow, ...)``: resolve a strategy by registered name.

    "If no argument is provided then default flow and error control
    threads are used" — the default here is :class:`NoFlowControl`
    (Approach 1 inherits p4/TCP's own control, exactly as §4.1 notes).
    Unknown names fail with the list of registered policies; new
    policies plug in via ``@FLOW_CONTROLS.register("name")``.
    """
    if spec is None:
        return NoFlowControl()
    return FLOW_CONTROLS.get(spec)(**kwargs)
