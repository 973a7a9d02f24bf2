"""NIC-offloaded collectives: barrier/bcast/reduce in SBA-200 firmware.

The paper's "Approach 2" bypasses host protocol stacks with a direct
ATM API; this module pushes that idea to its logical conclusion (per
PAPERS.md's Quadrics/Myrinet NIC-based collective protocol): the
collective *protocol itself* runs on the adapters' i960 processors, so
host MTS threads sleep from submission to completion — no send/receive
system-thread activity, no error-control ACK chatter, no per-hop host
wakeups.  The wire topology is a star rooted at process 0's adapter:

* every member adapter has an **up VC** to the root adapter and a
  **down VC** from it (ordinary PVCs of their own
  :class:`~repro.atm.signaling.Service`, established the first time
  the member takes part in a collective);
* the root has one **multicast VC** whose replication tree is
  programmed into the switches' multicast group tables
  (:meth:`repro.atm.signaling.SignalingController.broadcast_tree`),
  so a release/result/broadcast payload is transmitted exactly once.

Reliability is timer-at-the-owner: the *submitting* member retransmits
its request until the root acknowledges it (``accept``), then keeps
probing at the same cadence until the operation completes — a probe of
an already-finished operation makes the idempotent root re-emit the
completion, which is how lost multicast replicas are recovered.  A
request that is never accepted after ``max_retries`` retransmissions
deterministically fails the submitting thread with
:class:`~repro.core.mps.error_control.MessageLost`; an accepted
request whose completion never arrives gets the (much larger)
``max_probes`` budget before the same verdict, so a permanently
partitioned member bounds the simulation instead of probing forever —
the same bounded-failure-detection contract the host path's ACK error
control provides.

The host side of the seam lives in :mod:`repro.core.mps.collectives`
(the ``"nic"`` collective strategy); this module knows nothing about
MTS threads — completion is reported through plain callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Simulator
from .adapter import Sba200Adapter
from .signaling import Service, SignalingController

__all__ = ["NicPdu", "NicCollectiveEngine", "NicCollectiveFabric",
           "CONTROL_PDU_BYTES", "OP_KINDS"]

#: the operations an engine counts, one metric label set per pid each
OP_KINDS = ("barrier", "bcast", "reduce")

#: wire size of a collective control PDU (key + member + bookkeeping)
CONTROL_PDU_BYTES = 40

#: i960 processing time per collective PDU (submit, receive, replicate)
FIRMWARE_OP_S = 5e-6

#: default retransmission cadence and give-up budget for member requests
DEFAULT_RTO_S = 0.05
DEFAULT_MAX_RETRIES = 10

#: the circuits whose PDUs the firmware consumes (never the host)
_COLLECTIVE_SERVICES = (Service.COLLECTIVE_UP, Service.COLLECTIVE_DOWN,
                        Service.MULTICAST)

#: give-up budget for *accepted* requests still probing for completion
#: (10 s at the default cadence — far beyond any healthy collective)
DEFAULT_MAX_PROBES = 200


@dataclass(frozen=True)
class NicPdu:
    """One collective protocol data unit.

    ``kind`` selects the state machine edge; ``key`` identifies the
    operation instance.  Keys are ``("bar", barrier_id, epoch)``,
    ``("red", tag, epoch)`` and ``("bc", origin_pid, seq)`` — epochs
    count completed rounds per barrier/tag so retransmissions of round
    *k* can never satisfy round *k+1*.
    """

    kind: str
    key: tuple
    #: submitting (pid, tid) for requests; echoed back by ``accept``
    member: Optional[tuple] = None
    #: how many (pid, tid) parties the operation waits for
    parties: int = 0
    #: contribution / folded result / broadcast payload
    value: Any = None
    #: reduce fold function (simulation-level; never serialized)
    op: Optional[Callable[[Any, Any], Any]] = None
    #: (pid, tid) that receives the folded reduce result
    root: Optional[tuple] = None
    #: broadcast payload size in bytes
    size: int = 0
    #: application tag for broadcast delivery
    tag: int = 0
    #: destination pids of a broadcast (a frozenset on ``data``, which
    #: every member tests itself against)
    targets: tuple | frozenset = ()
    #: origin submit time (latency accounting at the receiver)
    sent_at: float = 0.0


@dataclass
class _PendingOp:
    """A member-side operation awaiting completion."""

    kind: str                      # "barrier" | "reduce" | "bcast"
    pdu: NicPdu                    # the request to (re)transmit
    member: tuple = (0, 0)         # (pid, tid) that owns the op
    on_done: Optional[Callable[[Any, Optional[BaseException]], None]] = None
    accepted: bool = False
    retries: int = 0
    probes: int = 0
    gen: int = 0                   # timer generation guard
    submitted_at: float = 0.0


class NicCollectiveEngine:
    """The collective state machine running on one adapter's i960.

    Each engine plays the *member* role for its own process; the engine
    on process 0's adapter additionally plays the *root coordinator*.
    The engine claims the adapter's
    :attr:`~repro.atm.adapter.Sba200Adapter.collective_rx` firmware
    hook, so collective PDUs are consumed before the host-bound DMA.
    """

    def __init__(self, fabric: "NicCollectiveFabric", pid: int,
                 adapter: Sba200Adapter):
        self.fabric = fabric
        self.pid = pid
        self.adapter = adapter
        self.sim: Simulator = adapter.sim
        self.is_root = (pid == 0)
        self.rto_s = fabric.rto_s
        self.max_retries = fabric.max_retries
        self.max_probes = fabric.max_probes
        self.firmware_op_s = fabric.firmware_op_s
        #: strategy callback delivering broadcast payloads to the host:
        #: ``fn(origin (pid, tid), data, size, tag, sent_at)``
        self.deliver_data: Optional[Callable[..., None]] = None
        #: tracer for ``nic:<host>`` points (set by the strategy)
        self.tracer: Optional[Any] = None
        # member-side state
        self._pending: dict[tuple, _PendingOp] = {}
        self._bar_epoch: dict[int, int] = {}      # barrier_id -> next epoch
        self._red_epoch: dict[int, int] = {}      # tag -> next epoch
        self._bc_seq = 0
        self._delivered: set[tuple] = set()       # bcast keys handed up
        # root-side state (used only on the root engine)
        self._r_bar_arrived: dict[tuple, set] = {}
        self._r_bar_released: dict[int, int] = {}
        self._r_red: dict[tuple, dict] = {}
        self._r_red_done: dict[tuple, tuple] = {}
        self._r_bc_waiting: dict[tuple, set] = {}   # targets yet to ack
        self._r_bc_pdu: dict[tuple, NicPdu] = {}
        self._r_bc_done: set[tuple] = set()
        self._signaling: SignalingController = fabric.signaling
        self._host = adapter.host_name
        self._root_host = fabric.root_host
        if adapter.collective_rx is not None:
            raise RuntimeError(
                f"adapter {adapter.host_name} already has a collective_rx "
                "hook; only one collective engine per adapter")
        adapter.collective_rx = self._rx_hook
        # telemetry: every series is labelled with its owner (pid or host)
        _m = self.sim.metrics
        host = adapter.host_name
        self._m_ops = {
            kind: _m.counter(
                "collective.ops",
                help="collective operations submitted to the NIC engine",
                pid=pid, kind=kind)
            for kind in OP_KINDS}
        self._m_latency = {
            kind: _m.histogram(
                "collective.latency_s",
                help="NIC collective submit-to-complete, simulated seconds",
                buckets=(1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                         1e-1, 3e-1, 1.0, 3.0), pid=pid, kind=kind)
            for kind in OP_KINDS}
        self._m_fw_pdus = _m.counter(
            "collective.fw_pdus",
            help="collective PDUs processed by adapter firmware", host=host)
        self._m_fw_sends = _m.counter(
            "collective.fw_sends",
            help="collective PDUs transmitted by adapter firmware", host=host)
        self._m_retx = _m.counter(
            "collective.retransmissions",
            help="collective requests retransmitted by firmware timers",
            host=host)
        self._m_lost = _m.counter(
            "collective.lost",
            help="collective operations that gave up (MessageLost)", pid=pid)

    # ------------------------------------------------------------ host API
    def barrier(self, barrier_id: int, parties: int, member: tuple,
                on_done: Callable[[Any, Optional[BaseException]], None]
                ) -> None:
        """Enter a barrier on behalf of ``member``; ``on_done(None, exc)``
        fires when every party arrived (or the request was lost)."""
        epoch = self._bar_epoch.get(barrier_id, 0)
        pdu = NicPdu("arrive", ("bar", barrier_id, epoch),
                     member=member, parties=parties)
        self._submit("barrier", pdu, member, on_done)

    def reduce(self, tag: int, parties: int, member: tuple, value: Any,
               op: Callable[[Any, Any], Any], root_member: tuple,
               on_done: Callable[[Any, Optional[BaseException]], None]
               ) -> None:
        """Contribute ``value`` to a reduction; the ``root_member``'s
        callback receives the fold (in sorted member order), every other
        member's receives None."""
        epoch = self._red_epoch.get(tag, 0)
        pdu = NicPdu("contrib", ("red", tag, epoch), member=member,
                     parties=parties, value=value, op=op, root=root_member)
        self._submit("reduce", pdu, member, on_done)

    def bcast(self, member: tuple, data: Any, size: int, tag: int,
              targets: tuple,
              on_done: Callable[[Any, Optional[BaseException]], None]
              ) -> None:
        """Broadcast ``data`` to every pid in ``targets``; payloads are
        delivered through each engine's :attr:`deliver_data` callback and
        ``on_done`` fires once every target's adapter acknowledged."""
        self._bc_seq += 1
        pdu = NicPdu("fwd", ("bc", self.pid, self._bc_seq), member=member,
                     value=data, size=size, tag=tag,
                     targets=tuple(sorted(targets)), sent_at=self.sim.now)
        self._submit("bcast", pdu, member, on_done)

    def _submit(self, kind: str, pdu: NicPdu, member: tuple,
                on_done: Callable) -> None:
        pkey = (pdu.key, member[1])
        if pkey in self._pending:
            raise RuntimeError(
                f"thread {member} re-entered {kind} {pdu.key} before the "
                "previous round completed")
        p = _PendingOp(kind, pdu, member, on_done,
                       submitted_at=self.sim.now)
        self._pending[pkey] = p
        self._m_ops[kind].inc()
        if self.tracer is not None:
            self.tracer.point(f"nic:{self.adapter.host_name}",
                              "collective-submit", (kind,) + pdu.key)
        # the host->adapter doorbell costs one firmware op, then the
        # request goes up the wire (or straight into the root machine)
        self.sim.call_in(self.firmware_op_s, self._send_up, pdu)
        self._arm(pkey, p)

    # --------------------------------------------------------- timers
    def _arm(self, pkey: tuple, p: _PendingOp) -> None:
        self.sim.call_in(self.rto_s, self._retx, pkey, p.gen)

    def _retx(self, pkey: tuple, gen: int) -> None:
        p = self._pending.get(pkey)
        if p is None or p.gen != gen:
            return
        if not p.accepted:
            p.retries += 1
            if p.retries > self.max_retries:
                self._give_up(pkey, p, "acknowledged")
                return
        else:
            # accepted requests keep probing (recovers lost completions)
            # under a far larger budget that bounds the simulation when
            # the operation can never complete
            p.probes += 1
            if p.probes > self.max_probes:
                self._give_up(pkey, p, "completed")
                return
        self._m_retx.inc()
        if self.tracer is not None:
            self.tracer.point(f"nic:{self.adapter.host_name}",
                              "fw-retransmit", p.pdu.key)
        self._send_up(p.pdu)
        self._arm(pkey, p)

    def _give_up(self, pkey: tuple, p: _PendingOp, what: str) -> None:
        from ..core.mps.error_control import MessageLost
        del self._pending[pkey]
        self._m_lost.inc()
        if self.tracer is not None:
            self.tracer.point(f"nic:{self.adapter.host_name}",
                              "collective-lost", p.pdu.key)
        budget = (self.max_retries if what == "acknowledged"
                  else self.max_probes)
        exc = MessageLost(
            f"nic {p.kind} {p.pdu.key} from process {self.pid} was never "
            f"{what} after {budget} retransmissions")
        if p.on_done is not None:
            p.on_done(None, exc)

    def _complete(self, pkey: tuple, value: Any) -> None:
        p = self._pending.pop(pkey, None)
        if p is None:
            return
        p.gen += 1
        self._m_latency[p.kind].observe(self.sim.now - p.submitted_at)
        if self.tracer is not None:
            self.tracer.point(f"nic:{self.adapter.host_name}",
                              "collective-complete", p.pdu.key)
        if p.on_done is not None:
            p.on_done(value, None)

    # --------------------------------------------------------- transmit
    def _pdu_bytes(self, pdu: NicPdu) -> int:
        if pdu.kind in ("fwd", "data"):
            return CONTROL_PDU_BYTES + pdu.size
        return CONTROL_PDU_BYTES

    def _send_up(self, pdu: NicPdu) -> None:
        """Member -> root (local machine call on the root's own engine)."""
        if self.is_root:
            self.sim.call_in(self.firmware_op_s, self._process, pdu)
            return
        self._m_fw_sends.inc()
        vc = self._signaling.circuit(self._host, self._root_host,
                                     Service.COLLECTIVE_UP)
        self.adapter.send_pdu(vc, self._pdu_bytes(pdu),
                              self.adapter.alloc_msg_id(), payload=pdu)

    def _send_down(self, pid: int, pdu: NicPdu) -> None:
        """Root -> one member (``accept`` / ``done``)."""
        if pid == self.pid:
            self.sim.call_in(self.firmware_op_s, self._process, pdu)
            return
        self._m_fw_sends.inc()
        vc = self._signaling.circuit(self._host, self.fabric.hosts[pid],
                                     Service.COLLECTIVE_DOWN)
        self.adapter.send_pdu(vc, self._pdu_bytes(pdu),
                              self.adapter.alloc_msg_id(), payload=pdu)

    def _mcast(self, pdu: NicPdu) -> None:
        """Root -> every member (switch-replicated), plus itself."""
        self._m_fw_sends.inc()
        self.adapter.send_pdu(self._signaling.broadcast_tree(self._host),
                              self._pdu_bytes(pdu),
                              self.adapter.alloc_msg_id(), payload=pdu)
        # the root's own member side is not a leaf of the multicast
        # tree; loop the PDU back through local firmware
        self.sim.call_in(self.firmware_op_s, self._process, pdu)

    # ---------------------------------------------------------- receive
    def _rx_hook(self, vc: Any, payload: Any, nbytes: int, msg_id: int,
                 corrupted: bool) -> bool:
        """The adapter's ``collective_rx`` firmware intercept."""
        if vc.service not in _COLLECTIVE_SERVICES:
            return False
        self._m_fw_pdus.inc()
        if corrupted or not isinstance(payload, NicPdu):
            # a poisoned collective PDU is simply lost; the owning
            # member's timer recovers (or surfaces MessageLost)
            return True
        self.sim.call_in(self.firmware_op_s, self._process, payload)
        return True

    def _process(self, pdu: NicPdu) -> None:
        kind = pdu.kind
        if kind == "arrive":
            self._root_arrive(pdu)
        elif kind == "contrib":
            self._root_contrib(pdu)
        elif kind == "fwd":
            self._root_fwd(pdu)
        elif kind == "ack":
            self._root_ack(pdu)
        elif kind == "accept":
            self._member_accept(pdu)
        elif kind == "release":
            self._member_release(pdu)
        elif kind == "result":
            self._member_result(pdu)
        elif kind == "data":
            self._member_data(pdu)
        elif kind == "done":
            self._member_done(pdu)
        else:  # pragma: no cover - protocol is closed
            raise RuntimeError(f"unknown collective PDU kind {kind!r}")

    # ------------------------------------------------- root coordinator
    def _root_arrive(self, pdu: NicPdu) -> None:
        _, barrier_id, epoch = pdu.key
        released = self._r_bar_released.get(barrier_id, -1)
        if epoch <= released:
            # stale probe of a finished round: re-emit the release
            self._mcast(NicPdu("release", ("bar", barrier_id, released)))
            return
        arrived = self._r_bar_arrived.setdefault(pdu.key, set())
        arrived.add(pdu.member)
        self._send_down(pdu.member[0], NicPdu("accept", pdu.key,
                                              member=pdu.member))
        if len(arrived) >= pdu.parties:
            del self._r_bar_arrived[pdu.key]
            self._r_bar_released[barrier_id] = epoch
            self._mcast(NicPdu("release", pdu.key))

    def _root_contrib(self, pdu: NicPdu) -> None:
        done = self._r_red_done.get(pdu.key)
        if done is not None:
            value, root_member = done
            self._mcast(NicPdu("result", pdu.key, value=value,
                               root=root_member))
            return
        st = self._r_red.setdefault(pdu.key, {})
        st[pdu.member] = pdu.value
        self._send_down(pdu.member[0], NicPdu("accept", pdu.key,
                                              member=pdu.member))
        if len(st) >= pdu.parties:
            del self._r_red[pdu.key]
            items = sorted(st.items())
            acc = items[0][1]
            for _, v in items[1:]:
                acc = pdu.op(acc, v)
            self._r_red_done[pdu.key] = (acc, pdu.root)
            self._mcast(NicPdu("result", pdu.key, value=acc, root=pdu.root))

    def _root_fwd(self, pdu: NicPdu) -> None:
        key = pdu.key
        self._send_down(pdu.member[0], NicPdu("accept", key,
                                              member=pdu.member))
        if key in self._r_bc_done:
            self._send_down(key[1], NicPdu("done", key))
            return
        if key in self._r_bc_waiting:
            # origin probe: re-drive the replication (recovers lost
            # DATA replicas and lost member ACKs alike)
            self._mcast(self._r_bc_pdu[key])
            return
        targets = frozenset(pdu.targets)
        data = NicPdu("data", key, member=pdu.member, value=pdu.value,
                      size=pdu.size, tag=pdu.tag, targets=targets,
                      sent_at=pdu.sent_at)
        self._r_bc_waiting[key] = set(targets)
        self._r_bc_pdu[key] = data
        self._mcast(data)

    def _root_ack(self, pdu: NicPdu) -> None:
        key = pdu.key
        waiting = self._r_bc_waiting.get(key)
        if waiting is None:
            return
        waiting.discard(pdu.member[0])
        if not waiting:
            del self._r_bc_waiting[key]
            del self._r_bc_pdu[key]
            self._r_bc_done.add(key)
            self._send_down(key[1], NicPdu("done", key))

    # ------------------------------------------------------ member side
    def _member_accept(self, pdu: NicPdu) -> None:
        if pdu.member[0] != self.pid:
            return
        p = self._pending.get((pdu.key, pdu.member[1]))
        if p is not None:
            p.accepted = True

    def _member_release(self, pdu: NicPdu) -> None:
        _, barrier_id, epoch = pdu.key
        if epoch < self._bar_epoch.get(barrier_id, 0):
            return
        self._bar_epoch[barrier_id] = epoch + 1
        for pkey in [k for k in self._pending
                     if k[0][0] == "bar" and k[0][1] == barrier_id
                     and k[0][2] <= epoch]:
            self._complete(pkey, None)

    def _member_result(self, pdu: NicPdu) -> None:
        _, tag, epoch = pdu.key
        if epoch < self._red_epoch.get(tag, 0):
            return
        self._red_epoch[tag] = epoch + 1
        for pkey in [k for k in self._pending if k[0] == pdu.key]:
            member = self._pending[pkey].member
            self._complete(pkey,
                           pdu.value if member == pdu.root else None)

    def _member_data(self, pdu: NicPdu) -> None:
        if self.pid not in pdu.targets:
            return
        if pdu.key not in self._delivered:
            self._delivered.add(pdu.key)
            if self.deliver_data is not None:
                self.deliver_data(pdu.member, pdu.value, pdu.size,
                                  pdu.tag, pdu.sent_at)
        # (re-)acknowledge; a lost ACK is recovered when the origin's
        # probe makes the root re-multicast DATA
        self._send_up(NicPdu("ack", pdu.key, member=(self.pid, 0)))

    def _member_done(self, pdu: NicPdu) -> None:
        for pkey in [k for k in self._pending if k[0] == pdu.key]:
            self._complete(pkey, None)


class NicCollectiveFabric:
    """Cluster-wide wiring for the NIC collective engines.

    Built once per runtime (when a scenario selects
    ``collectives = "nic"``): instantiates one
    :class:`NicCollectiveEngine` per host adapter.  The star's up/down
    PVCs and the root's multicast tree are the signaling controller's
    on-demand circuits, so a member that never takes part costs
    nothing.
    """

    def __init__(self, cluster: Any, rto_s: float = DEFAULT_RTO_S,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 max_probes: int = DEFAULT_MAX_PROBES,
                 firmware_op_s: float = FIRMWARE_OP_S):
        fabric = getattr(cluster, "fabric", None)
        signaling: Optional[SignalingController] = getattr(
            cluster, "signaling", None)
        if fabric is None or signaling is None:
            raise ValueError(
                "collectives = 'nic' needs an ATM fabric with a signaling "
                f"controller; topology {cluster.medium!r} has none "
                "(use atm-lan, atm-dual or an NYNET topology)")
        if cluster.n_hosts < 2:
            raise ValueError("NIC collectives need at least 2 hosts")
        self.cluster = cluster
        self.signaling = signaling
        self.rto_s = rto_s
        self.max_retries = max_retries
        self.max_probes = max_probes
        self.firmware_op_s = firmware_op_s
        #: host names in pid order; the root engine is pid 0's
        self.hosts = [cluster.host(i).name for i in range(cluster.n_hosts)]
        self.root_host = self.hosts[0]
        self.engines = {pid: NicCollectiveEngine(self, pid, fabric.adapters[h])
                        for pid, h in enumerate(self.hosts)}

    def engine(self, pid: int) -> NicCollectiveEngine:
        """The engine on process ``pid``'s adapter."""
        return self.engines[pid]
