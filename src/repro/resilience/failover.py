"""HSM→NSM graceful degradation: the ``hsm-failover`` transport.

Wraps the paper's two service tiers behind one transport: an
:class:`~repro.core.mps.transports.AtmTransport` (HSM, raw ATM API)
protected by a per-peer :class:`~repro.resilience.breaker.CircuitBreaker`,
with an :class:`~repro.core.mps.transports.SocketTransport` (NSM,
TCP/IP) as the fallback path.  Delivery feedback from error control
drives the breakers:

* :meth:`on_path_suspect` — EC is about to retransmit, so the last
  transmission is presumed lost on whatever path carried it; an HSM
  loss is a breaker failure;
* :meth:`on_delivery_confirmed` — the receiver acked; an HSM success
  feeds the half-open probe count.

While a peer's breaker is OPEN every message to it (data, barrier
control, heartbeats) detours over NSM, so a downed ATM link degrades
throughput instead of killing the peer — and because heartbeats keep
flowing, the failure detector correctly keeps the peer ALIVE.  Probes
recover the fast path automatically once the link heals.

This transport needs a topology where the two tiers use *different*
physical paths (``atm-dual``: NSM over the Ethernet LAN, HSM over the
ATM fabric).  On ``atm-lan`` — where classical-IP and HSM PVCs share
the same TAXI links — failover is honest but futile: both tiers die
together.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.mps.core import RELIABLE_KINDS
from ..core.mps.message import NcsMessage
from ..core.mps.transports import AtmTransport, NcsTransport, SocketTransport
from ..net.topology import Cluster
from ..registry import TRANSPORTS
from .breaker import BreakerState, CircuitBreaker

__all__ = ["FailoverTransport", "HSM_PATH", "NSM_PATH"]

HSM_PATH = "hsm"
NSM_PATH = "nsm"

#: bound on the uid -> path maps; entries normally pop on ack/retransmit,
#: the cap only matters when error control is "none" (no feedback)
PATH_MEMORY = 4096


class FailoverTransport(NcsTransport):
    """HSM with per-peer circuit breakers failing over to NSM."""

    name = "failover"

    def __init__(self, cluster: Cluster, pid: int,
                 failure_threshold: int = 3, reset_timeout_s: float = 0.2,
                 probe_successes: int = 2):
        super().__init__(cluster, pid)
        # the sub-transports count the wire: this wrapper's own
        # transport.*{transport=failover} series stay at zero
        self.primary = AtmTransport(cluster, pid)
        self.fallback = SocketTransport(cluster, pid)
        self.breakers: Dict[int, CircuitBreaker] = {}
        for peer in range(cluster.n_hosts):
            if peer != pid:
                self.breakers[peer] = CircuitBreaker(
                    self.sim, failure_threshold, reset_timeout_s,
                    probe_successes,
                    on_transition=self._make_transition_cb(peer))
        #: sender side: msg_uid -> path the last transmission used
        self._tx_path: Dict[tuple, str] = {}
        #: receiver side: msg_uid -> path that delivered the message
        self._rx_path: Dict[tuple, str] = {}
        _m = self.sim.metrics
        self._m_failovers = _m.counter(
            "resilience.failovers",
            help="messages detoured to NSM by an open breaker", pid=pid)
        self._m_trips = _m.counter(
            "resilience.breaker_trips", help="HSM path breakers tripped",
            pid=pid)
        self._m_recoveries = _m.counter(
            "resilience.breaker_recoveries",
            help="HSM path breakers closed after successful probes", pid=pid)

    def _make_transition_cb(self, peer: int) -> Callable:
        def cb(old: BreakerState, new: BreakerState) -> None:
            self.host.tracer.point(
                f"failover:{self.pid}", "breaker",
                (peer, old.value, new.value))
            if new is BreakerState.OPEN:
                self._m_trips.inc()
            elif new is BreakerState.CLOSED:
                self._m_recoveries.inc()
        return cb

    # ------------------------------------------------------------- delivery
    def set_delivery_handler(self, fn: Callable[[NcsMessage], None]) -> None:
        self._deliver = fn
        self.primary.set_delivery_handler(
            lambda msg: self._on_sub_delivery(HSM_PATH, msg))
        self.fallback.set_delivery_handler(
            lambda msg: self._on_sub_delivery(NSM_PATH, msg))

    def _on_sub_delivery(self, path: str, msg: NcsMessage) -> None:
        self._remember(self._rx_path, tuple(msg.msg_uid), path)
        if self._deliver is not None:
            self._deliver(msg)

    @staticmethod
    def _remember(table: Dict[tuple, str], uid: tuple, path: str) -> None:
        table[uid] = path
        while len(table) > PATH_MEMORY:
            del table[next(iter(table))]

    # -------------------------------------------------------------- sending
    def start_send(self, msg: NcsMessage,
                   then: Optional[Callable[..., None]] = None) -> None:
        breaker = self.breakers[msg.to_process]
        if breaker.allow():
            path, transport = HSM_PATH, self.primary
        else:
            path, transport = NSM_PATH, self.fallback
            self._m_failovers.inc()
        if msg.kind in RELIABLE_KINDS:
            # only EC-tracked kinds ever report back; remembering a
            # heartbeat's path would just age out of the table
            self._remember(self._tx_path, tuple(msg.msg_uid), path)
        transport.start_send(msg, then)

    # --------------------------------------------------- EC delivery feedback
    def on_path_suspect(self, msg: NcsMessage) -> None:
        path = self._tx_path.pop(tuple(msg.msg_uid), None)
        if path == HSM_PATH:
            # NSM rides TCP (self-healing below NCS); only HSM losses
            # are evidence against the fast path
            self.breakers[msg.to_process].record_failure()

    def on_delivery_confirmed(self, msg: NcsMessage) -> None:
        path = self._tx_path.pop(tuple(msg.msg_uid), None)
        if path == HSM_PATH:
            self.breakers[msg.to_process].record_success()

    # ------------------------------------------------------------- receiving
    def recv_cost(self, nbytes: int) -> float:
        return self.primary.recv_cost(nbytes)

    def recv_cost_for(self, msg: NcsMessage) -> float:
        path = self._rx_path.pop(tuple(msg.msg_uid), HSM_PATH)
        sub = self.primary if path == HSM_PATH else self.fallback
        return sub.recv_cost(msg.size)


@TRANSPORTS.register(
    "hsm-failover",
    help="HSM behind per-peer circuit breakers, degrading to NSM/TCP")
def _build_failover_transport(runtime, pid: int) -> FailoverTransport:
    res = getattr(runtime, "resilience", None)
    kwargs = {}
    if res is not None:
        kwargs = dict(failure_threshold=res.failure_threshold,
                      reset_timeout_s=res.reset_timeout_s,
                      probe_successes=res.probe_successes)
    return FailoverTransport(runtime.cluster, pid, **kwargs)
