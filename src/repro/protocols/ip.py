"""IP layer over Ethernet or ATM (classical IP over ATM, RFC 1577 style).

The paper's p4 baseline and NCS's Normal Speed Mode both run TCP/IP; on
the NYNET testbed that means IP datagrams carried in AAL5 PDUs with a
9180-byte MTU, and on the SUN/Ethernet platform the familiar 1500-byte
MTU.  ``IpLayer`` does addressing, fragmentation and reassembly;
link-specific adaptation lives in :class:`EthernetIpAdapter` and
:class:`AtmIpAdapter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..atm.signaling import Service
from ..sim import Simulator

__all__ = [
    "IP_HEADER_BYTES", "LLC_SNAP_BYTES", "ATM_IP_MTU",
    "IpPacket", "IpLayer", "EthernetIpAdapter", "AtmIpAdapter",
]

IP_HEADER_BYTES = 20
#: LLC/SNAP encapsulation of IP in AAL5 (RFC 1483)
LLC_SNAP_BYTES = 8
#: default MTU for classical IP over ATM (RFC 1577)
ATM_IP_MTU = 9180


@dataclass
class IpPacket:
    """One IP datagram (possibly a fragment)."""

    src: str
    dst: str
    proto: str                  # a registered protocol, e.g. "tcp"
    payload: Any                # upper-layer segment (opaque)
    payload_bytes: int
    ident: int
    frag_offset: int = 0
    more_frags: bool = False

    @property
    def total_bytes(self) -> int:
        return IP_HEADER_BYTES + self.payload_bytes


class LinkAdapter:
    """Interface the IP layer drives; one per (host, medium)."""

    mtu: int = 1500

    def send(self, dst_host: str, packet: IpPacket) -> None:
        raise NotImplementedError


class IpLayer:
    """Per-host IP: fragmentation, reassembly, protocol demux."""

    def __init__(self, sim: Simulator, host_name: str, adapter: LinkAdapter):
        self.sim = sim
        self.host_name = host_name
        self.adapter = adapter
        self._ident = 0
        #: (src, ident) -> {offset: fragment}
        self._reasm: dict[tuple[str, int], dict[int, IpPacket]] = {}
        #: proto -> handler(packet)
        self._handlers: dict[str, Callable[[IpPacket], None]] = {}
        # telemetry handles (no-ops when the registry is disabled)
        _m = sim.metrics
        self._m_sent = _m.counter(
            "ip.packets_sent", help="datagrams emitted", host=host_name)
        self._m_received = _m.counter(
            "ip.packets_received", help="datagrams delivered upward",
            host=host_name)
        self._m_fragments = _m.counter(
            "ip.fragments_sent", help="fragments emitted", host=host_name)

    def register_protocol(self, proto: str,
                          handler: Callable[[IpPacket], None]) -> None:
        if proto in self._handlers:
            raise ValueError(f"protocol {proto!r} already registered")
        self._handlers[proto] = handler

    @property
    def mss(self) -> int:
        """Maximum transport payload that avoids IP fragmentation."""
        return self.adapter.mtu - IP_HEADER_BYTES

    # ----------------------------------------------------------------- send
    def send(self, dst_host: str, proto: str, payload: Any,
             payload_bytes: int) -> None:
        """Emit a datagram, fragmenting if it exceeds the link MTU.

        Non-blocking: the link adapter queues onto NIC hardware.
        """
        self._ident += 1
        ident = self._ident
        max_payload = self.adapter.mtu - IP_HEADER_BYTES
        if payload_bytes <= max_payload:
            self._m_sent.inc()
            self.adapter.send(dst_host, IpPacket(
                self.host_name, dst_host, proto, payload, payload_bytes, ident))
            return
        # fragment: payload object rides only on the last fragment
        offset = 0
        # fragment payloads must be multiples of 8 except the last
        step = max_payload - (max_payload % 8)
        while offset < payload_bytes:
            take = min(step, payload_bytes - offset)
            last = offset + take >= payload_bytes
            self.adapter.send(dst_host, IpPacket(
                self.host_name, dst_host, proto,
                payload if last else None, take, ident,
                frag_offset=offset, more_frags=not last))
            self._m_fragments.inc()
            offset += take
        self._m_sent.inc()

    # -------------------------------------------------------------- receive
    def receive(self, packet: IpPacket) -> None:
        """Called by the link adapter on datagram/fragment arrival."""
        if packet.dst != self.host_name:
            return  # not for us (promiscuous frame on shared medium)
        if packet.frag_offset == 0 and not packet.more_frags:
            self._deliver(packet)
            return
        key = (packet.src, packet.ident)
        frags = self._reasm.setdefault(key, {})
        frags[packet.frag_offset] = packet
        assembled = self._try_reassemble(frags)
        if assembled is not None:
            del self._reasm[key]
            self._deliver(assembled)

    def _try_reassemble(self, frags: dict[int, IpPacket]) -> Optional[IpPacket]:
        offset = 0
        total = 0
        payload = None
        chain = []
        while True:
            frag = frags.get(offset)
            if frag is None:
                return None
            chain.append(frag)
            total += frag.payload_bytes
            if frag.payload is not None:
                payload = frag.payload
            if not frag.more_frags:
                break
            offset += frag.payload_bytes
        first = chain[0]
        return IpPacket(first.src, first.dst, first.proto, payload,
                        total, first.ident)

    def _deliver(self, packet: IpPacket) -> None:
        self._m_received.inc()
        handler = self._handlers.get(packet.proto)
        if handler is None:
            return  # no listener: drop, like a closed port
        handler(packet)


class EthernetIpAdapter(LinkAdapter):
    """IP over the shared Ethernet segment."""

    def __init__(self, nic, mtu: int = 1500):
        self.nic = nic
        self.mtu = mtu
        nic.set_receive_handler(self._on_frame)
        self._ip: Optional[IpLayer] = None

    def bind(self, ip: IpLayer) -> None:
        self._ip = ip

    def send(self, dst_host: str, packet: IpPacket) -> None:
        self.nic.enqueue(dst_host, packet, packet.total_bytes)

    def _on_frame(self, frame) -> None:
        if self._ip is not None:
            self._ip.receive(frame.payload)


class AtmIpAdapter(LinkAdapter):
    """Classical IP over ATM: one AAL5 PDU per datagram on a per-peer VC.

    The per-peer PVCs are ``Service.IP`` circuits of the fabric's
    signaling controller, established the first time a datagram is sent
    to a peer; an arriving datagram goes up to IP from the ATM API's
    delivery, whatever circuit it came on.
    """

    def __init__(self, atm_api, signaling, mtu: int = ATM_IP_MTU):
        self.atm_api = atm_api
        self.signaling = signaling
        self.mtu = mtu
        self._ip: Optional[IpLayer] = None
        atm_api.serve(Service.IP, self._on_pdu)

    def bind(self, ip: IpLayer) -> None:
        self._ip = ip

    def send(self, dst_host: str, packet: IpPacket) -> None:
        vc = self.signaling.circuit(packet.src, dst_host, Service.IP)
        adapter = self.atm_api.adapter
        nbytes = packet.total_bytes + LLC_SNAP_BYTES
        # LLC/SNAP + IP header + payload in one AAL5 PDU; hardware path,
        # no host CPU charged here (TCP charges its own processing).
        adapter.dma(nbytes, adapter.send_pdu, vc, nbytes,
                    adapter.alloc_msg_id(), True, packet)

    def _on_pdu(self, msg) -> None:
        if self._ip is not None and msg.payload is not None:
            self._ip.receive(msg.payload)
