"""Traditional protocol stack (sockets / TCP / IP) — the NSM path."""

from .ip import (
    ATM_IP_MTU,
    AtmIpAdapter,
    EthernetIpAdapter,
    IP_HEADER_BYTES,
    IpLayer,
    IpPacket,
    LLC_SNAP_BYTES,
)
from .sockets import (
    NIC_COPY_ACCESSES,
    SOCKET_RECV_COPY_ACCESSES,
    SOCKET_SEND_COPY_ACCESSES,
    SocketLayer,
)
from .tcp import TCP_HEADER_BYTES, TcpConnection, TcpParams, TcpSegment, TcpStack

__all__ = [
    "ATM_IP_MTU", "AtmIpAdapter", "EthernetIpAdapter", "IP_HEADER_BYTES",
    "IpLayer", "IpPacket", "LLC_SNAP_BYTES",
    "SocketLayer", "SOCKET_SEND_COPY_ACCESSES", "SOCKET_RECV_COPY_ACCESSES",
    "NIC_COPY_ACCESSES",
    "TCP_HEADER_BYTES", "TcpConnection", "TcpParams", "TcpSegment", "TcpStack",
]
