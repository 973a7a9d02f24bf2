"""Heartbeat failure detection and cluster membership.

Each NCS process runs one more system thread next to Fig 8's
send/recv/FC/EC threads: a heartbeat thread that broadcasts a
:data:`~repro.core.mps.message.ControlKind.HEARTBEAT` beacon to every
peer each ``heartbeat_interval_s`` and scans its timestamped membership
view for silence.  A peer unheard-of for ``suspect_after_s`` becomes
SUSPECT; for ``dead_after_s``, DEAD.  A heartbeat from a SUSPECT or
DEAD peer immediately restores it to ALIVE — a healed partition rejoins
without operator action.

Heartbeats are fire-and-forget (not in ``RELIABLE_KINDS``): they are
never acked, deduplicated or retransmitted, so a lost beacon costs
nothing and the detector's only evidence is arrival times.  Because
they are sent through the node's regular transport, a failover
transport carries them over NSM while the ATM path is down — degraded
peers still prove liveness, so degradation is never mistaken for death.

On a confirmed death the detector tells error control to
``abandon_peer``: retransmissions to a corpse stop without poisoning
the sender (the resilience layer owns recovery from here — see the
work-reassignment driver in :mod:`repro.apps.resilient`).

Quorum is partition-aware: a node is *in quorum* while it can account
for a strict majority of the cluster (itself plus every peer not DEAD).
Coordinators consult this before reassigning work so both sides of a
split never both claim the same units.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List

from ..core.mps.core import CONTROL_BYTES, SendRequest
from ..core.mps.message import ANY_THREAD, ControlKind, NcsMessage
from ..core.mts import ops
from ..core.mts.scheduler import SYSTEM_PRIORITY

__all__ = ["PeerState", "HeartbeatDetector", "ClusterResilience"]


class PeerState(enum.Enum):
    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


class HeartbeatDetector:
    """Per-node failure detector (one per NCS process)."""

    def __init__(self, mps: Any, heartbeat_interval_s: float = 0.02,
                 suspect_after_s: float = 0.06, dead_after_s: float = 0.15):
        if heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if not (heartbeat_interval_s < suspect_after_s < dead_after_s):
            raise ValueError(
                "need heartbeat_interval_s < suspect_after_s < dead_after_s")
        self.mps = mps
        self.sim = mps.sim
        self.pid = mps.pid
        self.n_hosts = mps.cluster.n_hosts
        self.heartbeat_interval_s = heartbeat_interval_s
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = dead_after_s
        self.peers = [p for p in range(self.n_hosts) if p != self.pid]
        now = self.sim.now
        #: pid -> sim time of last heartbeat (or attach time)
        self.last_seen: Dict[int, float] = {p: now for p in self.peers}
        self.states: Dict[int, PeerState] = {
            p: PeerState.ALIVE for p in self.peers}
        #: peers this node declared DEAD at any point in the run (a
        #: later rejoin does not erase the record — the runtime uses it
        #: to forgive message losses the resilience layer already
        #: compensated for)
        self.ever_dead: set[int] = set()
        #: callbacks fn(pid) fired on ALIVE/SUSPECT -> DEAD
        self.on_peer_dead: List[Callable[[int], None]] = []
        #: callbacks fn(pid) fired on DEAD -> ALIVE (rejoin)
        self.on_peer_recovered: List[Callable[[int], None]] = []
        _m = self.sim.metrics
        self._m_beats = _m.counter(
            "resilience.heartbeats_sent", help="liveness beacons broadcast",
            pid=self.pid)
        self._m_suspicions = _m.counter(
            "resilience.suspicions", help="peers marked SUSPECT", pid=self.pid)
        self._m_deaths = _m.counter(
            "resilience.deaths", help="peers declared DEAD", pid=self.pid)
        self._m_rejoins = _m.counter(
            "resilience.rejoins", help="DEAD peers restored by a heartbeat",
            pid=self.pid)
        self._m_alive = _m.gauge(
            "resilience.alive_peers", help="peers currently ALIVE (excl self)",
            pid=self.pid)
        self._m_alive.set(len(self.peers))

    # ------------------------------------------------------------ system thread
    def thread_body(self):
        def body(tctx):
            while True:
                self._beat()
                yield ops.Sleep(self.heartbeat_interval_s)
                self._scan()
        return body

    def _beat(self) -> None:
        for peer in self.peers:
            self.mps._enqueue_send(SendRequest(NcsMessage(
                from_thread=ANY_THREAD, from_process=self.pid,
                to_thread=ANY_THREAD, to_process=peer,
                data=self.sim.now, size=CONTROL_BYTES,
                kind=ControlKind.HEARTBEAT,
                msg_uid=self.mps._next_uid())))
        self._m_beats.inc(len(self.peers))

    def _scan(self) -> None:
        now = self.sim.now
        for peer in self.peers:
            state = self.states[peer]
            if state is PeerState.DEAD:
                continue   # only a heartbeat resurrects a corpse
            silent_for = now - self.last_seen[peer]
            if silent_for >= self.dead_after_s:
                self.states[peer] = PeerState.DEAD
                self.ever_dead.add(peer)
                self._m_deaths.inc()
                self.mps.host.tracer.point(
                    f"detector:{self.pid}", "peer-dead", peer)
                abandon = getattr(self.mps.ec, "abandon_peer", None)
                if abandon is not None:
                    abandon(peer)
                for cb in self.on_peer_dead:
                    cb(peer)
            elif silent_for >= self.suspect_after_s \
                    and state is PeerState.ALIVE:
                self.states[peer] = PeerState.SUSPECT
                self._m_suspicions.inc()
                self.mps.host.tracer.point(
                    f"detector:{self.pid}", "peer-suspect", peer)
        self._m_alive.set(sum(
            1 for s in self.states.values() if s is PeerState.ALIVE))

    # --------------------------------------------------------------- evidence
    def on_heartbeat(self, pid: int, sent_at: Any) -> None:
        """MPS control dispatch: a beacon from ``pid`` arrived."""
        if pid == self.pid or pid not in self.states:
            return
        self.last_seen[pid] = self.sim.now
        state = self.states[pid]
        if state is PeerState.ALIVE:
            return
        self.states[pid] = PeerState.ALIVE
        self.mps.host.tracer.point(
            f"detector:{self.pid}", "peer-recovered", pid)
        if state is PeerState.DEAD:
            self._m_rejoins.inc()
            for cb in self.on_peer_recovered:
                cb(pid)

    # ------------------------------------------------------------- membership
    def state_of(self, pid: int) -> PeerState:
        if pid == self.pid:
            return PeerState.ALIVE
        return self.states[pid]

    def is_dead(self, pid: int) -> bool:
        return pid != self.pid and self.states.get(pid) is PeerState.DEAD

    def view(self) -> Dict[int, PeerState]:
        """This node's current belief about every process (incl. self)."""
        v = {self.pid: PeerState.ALIVE}
        v.update(self.states)
        return dict(sorted(v.items()))

    def membership(self) -> Dict[int, tuple]:
        """Timestamped view: pid -> (state, last_seen sim time)."""
        m = {self.pid: (PeerState.ALIVE, self.sim.now)}
        for p in self.peers:
            m[p] = (self.states[p], self.last_seen[p])
        return dict(sorted(m.items()))

    def alive_count(self) -> int:
        """Processes currently believed reachable (incl. self)."""
        return 1 + sum(1 for s in self.states.values()
                       if s is not PeerState.DEAD)

    def in_quorum(self) -> bool:
        """True while this node can account for a strict majority."""
        return 2 * self.alive_count() > self.n_hosts


class ClusterResilience:
    """Cluster-wide resilience bring-up: one detector per node.

    Construct, pass to :class:`repro.core.api.NcsRuntime` as
    ``resilience=``, and the runtime calls :meth:`attach` during
    bring-up.  Attributes double as the configuration the
    ``hsm-failover`` transport builder reads for its breakers.
    """

    def __init__(self, heartbeat_interval_s: float = 0.02,
                 suspect_after_s: float = 0.06, dead_after_s: float = 0.15,
                 failure_threshold: int = 3, reset_timeout_s: float = 0.2,
                 probe_successes: int = 2):
        self.heartbeat_interval_s = heartbeat_interval_s
        self.suspect_after_s = suspect_after_s
        self.dead_after_s = dead_after_s
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.probe_successes = probe_successes
        self.runtime: Any = None
        self.detectors: Dict[int, HeartbeatDetector] = {}

    def attach(self, runtime: Any) -> None:
        """Install a detector + heartbeat system thread on every node
        this universe materialized (not on a shard worker's ghosts)."""
        self.runtime = runtime
        for node in runtime.nodes:
            if getattr(node, "ghost", False):
                continue
            det = HeartbeatDetector(
                node.mps, self.heartbeat_interval_s,
                self.suspect_after_s, self.dead_after_s)
            node.mps.resilience = det
            self.detectors[node.pid] = det
            node.scheduler.t_create(
                det.thread_body(), (), SYSTEM_PRIORITY, name="sys-hb",
                is_system=True)

    def detector(self, pid: int) -> HeartbeatDetector:
        return self.detectors[pid]

    def view(self, pid: int) -> Dict[int, PeerState]:
        return self.detectors[pid].view()

    def forgives(self, msg: Any) -> bool:
        """Should the runtime forgive this permanently-lost message?

        Losses *to* a destination that is crashed now, or that the
        sender's detector declared dead at any point, are the expected
        cost of a failure the resilience layer already handled (abandon
        + reassignment); surfacing them as :class:`MessageLost` at the
        end of an otherwise-recovered run would turn every survived
        crash — and every healed partition — into a test failure.
        (A ghost row's ``frozen`` flag follows its crashes too.)"""
        dest = msg.to_process
        if self.runtime is not None \
                and self.runtime.cluster.host(dest).frozen:
            return True
        det = self.detectors.get(msg.from_process)
        return det is not None and dest in det.ever_dead
