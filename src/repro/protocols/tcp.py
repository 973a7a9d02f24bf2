"""Sliding-window TCP model.

This is the transport under p4 and under NCS's Normal Speed Mode — the
protocol whose per-segment processing, checksums, copies and ACK traffic
constitute the "inefficient communication protocols" the paper's HSM
avoids.  The model is deliberately mid-fidelity:

* byte sequence numbers, cumulative ACKs, fixed receive window
  (the SunOS-era default socket buffer), in-order delivery with
  out-of-order buffering;
* retransmission on timeout with exponential backoff (loss reaches us
  from the ATM path's AAL5 CRC failures or switch buffer overflows);
* a three-way handshake for timed connection setup;
* per-segment send/receive CPU costs and a checksum pass that touches
  every payload word — charged to the host CPU so protocol processing
  genuinely competes with application compute;
* message framing on top of the byte stream (length-aware, like p4's
  envelopes), because every consumer in this codebase is a
  message-passing library.

No congestion control: the 1995 experiments ran on a single LAN/WAN path
and the paper never mentions it; the fixed window already provides the
WAN bandwidth-delay-product behaviour the latency/bandwidth discussion
(§3, citing Kleinrock) cares about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Activity, Event, Store
from .ip import IpLayer

__all__ = ["TcpParams", "TcpSegment", "TcpConnection", "TcpStack",
           "TCP_HEADER_BYTES"]

TCP_HEADER_BYTES = 20


@dataclass(frozen=True)
class TcpParams:
    """Tunable protocol constants (calibrated in repro.apps.costs)."""

    window_bytes: int = 24576          # SunOS-era default socket buffer
    rto_initial_s: float = 0.5
    rto_max_s: float = 8.0
    tx_proc_per_segment_s: float = 120e-6
    rx_proc_per_segment_s: float = 120e-6
    ack_proc_s: float = 40e-6
    checksum: bool = True              # touch every payload word
    #: BSD delayed-ACK timer: a lone segment is not acknowledged until
    #: this much time passes (0 disables).  Combined with a small window
    #: this produces the classic mid-90s stall: the sender exhausts the
    #: window and sits idle most of each timer period.  Single-threaded
    #: p4 wastes that time; NCS threads compute through it.
    delayed_ack_s: float = 0.0
    #: acknowledge immediately after this many unacked data segments
    ack_every: int = 2
    #: Nagle's algorithm: hold a sub-MSS segment while any data is
    #: unacknowledged.  Interacts with delayed ACKs exactly the way the
    #: mid-90s folklore says (ping-pong patterns stall a full delayed-ACK
    #: period).  Off by default; an ablation/teaching knob.
    nagle: bool = False

    def __post_init__(self) -> None:
        if self.window_bytes < 1:
            raise ValueError("window must be at least one byte")
        if self.rto_initial_s <= 0 or self.rto_max_s < self.rto_initial_s:
            raise ValueError("invalid RTO configuration")
        if self.delayed_ack_s < 0:
            raise ValueError("delayed_ack_s must be non-negative")
        if self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")


@dataclass
class TcpSegment:
    """One TCP segment (data, pure ACK, or handshake)."""

    src: str
    dst: str
    cid: int                      # connection id (port-pair stand-in)
    seq: int = 0
    payload_bytes: int = 0
    ack_no: int = -1              # cumulative ack (-1: no ack info)
    syn: bool = False
    synack: bool = False
    # message framing
    msg_id: int = -1
    msg_total: int = 0
    payload: Any = None           # application object, on last segment only

    @property
    def wire_bytes(self) -> int:
        return TCP_HEADER_BYTES + self.payload_bytes

    @property
    def is_data(self) -> bool:
        return self.payload_bytes > 0


@dataclass
class _MsgAssembly:
    total: int
    got: int = 0
    payload: Any = None


class TcpConnection:
    """One duplex connection between two hosts."""

    def __init__(self, stack: "TcpStack", remote: str, cid: int):
        self.stack = stack
        self.sim = stack.sim
        self.local = stack.host.name
        self.remote = remote
        self.cid = cid
        self.params = stack.params
        #: p4 sets its connections up inside ``p4_create_procgroup``,
        #: which the paper's timed regions exclude: on a preconnected
        #: stack a connection is born established
        self.established = stack.preconnect
        self._established_ev: Optional[Event] = None
        # ---- sender state
        self.snd_nxt = 0
        self.snd_una = 0
        self._inflight: dict[int, TcpSegment] = {}   # seq -> segment
        self._ack_waiters: list[Event] = []
        self._rto_running = False
        self._rto = self.params.rto_initial_s
        self._msg_seq = 0
        self._send_lock: list[Event] = []  # FIFO of waiting senders
        self._send_busy = False
        # ---- receiver state
        self.rcv_nxt = 0
        self._ooo: dict[int, TcpSegment] = {}
        self._assembly: dict[int, _MsgAssembly] = {}
        self._segs_unacked = 0
        self._delack_gen = 0
        self._delack_running = False
        self._rx_msgs: Store = Store(self.sim, name=f"tcpmsgs:{self.local}<-{remote}")

    # ------------------------------------------------------------ handshake
    def connect(self):
        """Generator: active-open three-way handshake."""
        if self.established:
            return self
        self._established_ev = self.sim.event(name=f"estab:{self.local}>{self.remote}")
        self._emit(TcpSegment(self.local, self.remote, self.cid, syn=True))
        yield self._established_ev
        return self

    # ----------------------------------------------------------------- send
    @property
    def inflight_bytes(self) -> int:
        return self.snd_nxt - self.snd_una

    def send_message(self, payload: Any, nbytes: int):
        """Generator (runs in the *caller's* simulated context): segment a
        message onto the stream, blocking while the window is full.

        This is the behaviour of a blocking ``write()`` on a socket: the
        caller's process is captive until the last byte enters the send
        window — which is exactly why single-threaded p4 cannot overlap
        anything with a large send, and threaded NCS can (only the
        calling *thread* is captive).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not self.established:
            raise RuntimeError(
                f"connection {self.local}->{self.remote} not established")
        # serialize concurrent senders so messages interleave at message
        # (not segment) granularity, like a mutex-protected socket write
        if self._send_busy:
            ev = self.sim.event()
            self._send_lock.append(ev)
            yield ev
        self._send_busy = True
        try:
            # unique per (connection, direction): the receiver's assembly
            # table only ever sees one sender on this connection object
            self._msg_seq += 1
            msg_id = self._msg_seq
            # a segment must fit in the window or the send can never
            # proceed (SunOS-era 4 KB socket buffers vs ATM's 9 KB MTU)
            mss = min(self.stack.ip.mss - TCP_HEADER_BYTES,
                      self.params.window_bytes)
            host = self.stack.host
            offset = 0
            while True:
                take = min(mss, nbytes - offset)
                last = offset + take >= nbytes
                while self.inflight_bytes + max(take, 1) > self.params.window_bytes:
                    ev = self.sim.event()
                    self._ack_waiters.append(ev)
                    yield ev
                # Nagle: a runt segment waits until the pipe is empty
                while (self.params.nagle and take < mss
                        and self.inflight_bytes > 0):
                    ev = self.sim.event()
                    self._ack_waiters.append(ev)
                    yield ev
                cost = self.params.tx_proc_per_segment_s
                if self.params.checksum:
                    cost += host.cpu.touch_time(take)
                yield from host.cpu_busy(cost, Activity.COMMUNICATE, "tcp:tx")
                seg = TcpSegment(
                    self.local, self.remote, self.cid,
                    seq=self.snd_nxt, payload_bytes=max(take, 1),
                    msg_id=msg_id, msg_total=nbytes,
                    payload=payload if last else None)
                self._inflight[seg.seq] = seg
                self.snd_nxt += seg.payload_bytes
                self._emit(seg)
                self._ensure_rto_timer()
                offset += take
                if last:
                    break
        finally:
            self._send_busy = False
            if self._send_lock:
                self._send_lock.pop(0).succeed(None)

    def _emit(self, seg: TcpSegment) -> None:
        self.stack._m_segments.inc()
        self.stack.ip.send(self.remote, "tcp", seg, seg.wire_bytes)

    # ------------------------------------------------------------- receive
    def recv_message(self) -> Event:
        """Event firing with ``(payload, nbytes)`` for the next complete
        message (socket-layer copy costs are charged by the caller)."""
        return self._rx_msgs.get()

    # ---------------------------------------------------------- segment rx
    def handle_segment(self, seg: TcpSegment) -> None:
        if seg.syn:
            self.established = True
            self._emit(TcpSegment(self.local, self.remote, self.cid,
                                  synack=True))
            return
        if seg.synack:
            self.established = True
            if self._established_ev is not None:
                self._established_ev.succeed(None)
                self._established_ev = None
            return
        if seg.ack_no >= 0:
            self._handle_ack(seg.ack_no)
            return
        # data segment
        duplicate = False
        if seg.seq + seg.payload_bytes <= self.rcv_nxt:
            duplicate = True  # already delivered: re-ack immediately
        elif seg.seq == self.rcv_nxt:
            self._accept(seg)
            while self.rcv_nxt in self._ooo:
                self._accept(self._ooo.pop(self.rcv_nxt))
        else:
            self._ooo[seg.seq] = seg
        self._segs_unacked += 1
        if (duplicate or self.params.delayed_ack_s <= 0
                or self._segs_unacked >= self.params.ack_every):
            self._ack_now()
        elif not self._delack_running:
            self._delack_running = True
            self.sim.spawn(self._delayed_ack(),
                           name=f"delack:{self.local}<-{self.remote}")

    def _ack_now(self) -> None:
        self._segs_unacked = 0
        self.stack._m_acks.inc()
        self._emit_ack()

    def _delayed_ack(self):
        yield self.params.delayed_ack_s
        self._delack_running = False
        if self._segs_unacked > 0:
            self._ack_now()

    def _accept(self, seg: TcpSegment) -> None:
        self.rcv_nxt = seg.seq + seg.payload_bytes
        asm = self._assembly.get(seg.msg_id)
        if asm is None:
            asm = self._assembly[seg.msg_id] = _MsgAssembly(total=seg.msg_total)
        # payload_bytes is max(take,1); zero-byte messages ride one
        # 1-byte segment whose msg_total is 0
        asm.got += seg.payload_bytes
        if seg.payload is not None:
            asm.payload = seg.payload
        if asm.got >= max(asm.total, 1):
            del self._assembly[seg.msg_id]
            consumer = self.stack._consumer
            if consumer is not None:
                self.sim.call_in(0.0, consumer, asm.payload)
            else:
                self._rx_msgs.try_put((asm.payload, asm.total))

    def _emit_ack(self) -> None:
        self._emit(TcpSegment(self.local, self.remote, self.cid,
                              ack_no=self.rcv_nxt))

    # ------------------------------------------------------------ ack / rto
    def _handle_ack(self, ack_no: int) -> None:
        if ack_no <= self.snd_una:
            return
        for seq in [s for s in self._inflight if s < ack_no]:
            del self._inflight[seq]
        self.snd_una = ack_no
        self._rto = self.params.rto_initial_s
        waiters, self._ack_waiters = self._ack_waiters, []
        for ev in waiters:
            ev.succeed(None)

    def _ensure_rto_timer(self) -> None:
        if not self._rto_running:
            self._rto_running = True
            self.sim.spawn(self._rto_loop(),
                           name=f"rto:{self.local}>{self.remote}")

    def _rto_loop(self):
        while self._inflight:
            una_before = self.snd_una
            yield self._rto
            if not self._inflight:
                break
            if self.snd_una == una_before:
                # oldest unacked segment timed out: retransmit it
                seq = min(self._inflight)
                self.stack._m_retransmits.inc()
                self._emit(self._inflight[seq])
                self._rto = min(self._rto * 2, self.params.rto_max_s)
        self._rto_running = False


class TcpStack:
    """Per-host TCP: demultiplexes segments to connections and charges
    receive-side protocol processing to the host CPU."""

    def __init__(self, host, ip: IpLayer, params: Optional[TcpParams] = None,
                 preconnect: bool = False):
        self.host = host
        self.sim = host.sim
        self.ip = ip
        self.params = params or TcpParams()
        self.preconnect = preconnect
        self._conns: dict[tuple[str, int], TcpConnection] = {}
        #: what every complete message goes to, if anybody serves them
        self._consumer: Optional[Callable[[Any], None]] = None
        self._rx_q: Store = Store(self.sim, name=f"tcprx:{host.name}")
        # telemetry handles: connections publish through their stack so
        # the per-host aggregate is maintained, not recomputed
        _m = self.sim.metrics
        self._m_segments = _m.counter(
            "tcp.segments_sent", help="TCP segments emitted (data+ctl)",
            host=host.name)
        self._m_acks = _m.counter(
            "tcp.acks_sent", help="pure ACK segments emitted", host=host.name)
        self._m_retransmits = _m.counter(
            "tcp.retransmissions", help="RTO-driven retransmissions",
            host=host.name)
        ip.register_protocol("tcp", self._on_packet)
        self.sim.process(self._rx_loop(), name=f"tcp-rx:{host.name}")

    def connection(self, remote: str, cid: int = 0) -> TcpConnection:
        """The (lazily created) connection object for a peer."""
        key = (remote, cid)
        conn = self._conns.get(key)
        if conn is None:
            conn = self._conns[key] = TcpConnection(self, remote, cid)
        return conn

    def serve_messages(self, consumer: Callable[[Any], None]) -> None:
        """Call ``consumer(payload)`` for every complete message any
        connection of this stack receives, at the instant its last
        segment is accepted: no queue and no process per connection.
        Without a consumer, messages queue for ``recv_message``.

        The call goes through one zero-delay timer, the calendar slot
        the wake-up of a per-connection pump process had: a direct call
        runs ahead of same-instant events and reorders ties on a busy
        Ethernet segment."""
        if self._consumer is not None:
            raise RuntimeError(
                f"TCP on {self.host.name} already has a message consumer")
        self._consumer = consumer

    def connections(self) -> list["TcpConnection"]:
        """The live connection objects (read-only view)."""
        return list(self._conns.values())

    def _on_packet(self, packet) -> None:
        self._rx_q.try_put(packet.payload)

    def _rx_loop(self):
        """Kernel protocol processing: interrupts + TCP input path steal
        CPU from whatever the host is computing."""
        os = self.host.os
        while True:
            seg: TcpSegment = yield self._rx_q.get()
            if seg.is_data:
                cost = os.interrupt_time + self.params.rx_proc_per_segment_s
                if self.params.checksum:
                    cost += self.host.cpu.touch_time(seg.payload_bytes)
            else:
                cost = os.interrupt_time + self.params.ack_proc_s
            yield from self.host.cpu_busy(cost, Activity.OVERHEAD, "tcp:rx")
            self.connection(seg.src, seg.cid).handle_segment(seg)
