"""The socket layer — owner of the Fig 3(a) datapath accounting.

The paper counts five memory-bus accesses per word on the traditional
send path: the application's own write into its buffer (1), the socket
layer's copy into a kernel buffer (2: read + write), TCP reading the data
for checksum/processing (1), and the copy out to the network interface
(1).  The application write belongs to application compute; the
checksum read is charged inside :mod:`repro.protocols.tcp`; this module
charges the remaining **socket copy (2)** and **kernel→NIC copy (1)** on
send, and the symmetric NIC→kernel (1) + kernel→user copy (2) on
receive, plus the syscall each side pays.

Together those terms reproduce the 5-vs-3 access comparison that
``tests/paper/test_fig3.py`` checks.
"""

from __future__ import annotations

from typing import Any

from ..sim import Activity
from .tcp import TcpConnection, TcpStack

__all__ = ["SocketLayer", "SOCKET_SEND_COPY_ACCESSES",
           "SOCKET_RECV_COPY_ACCESSES", "NIC_COPY_ACCESSES"]

#: user buffer -> kernel socket buffer: read + write
SOCKET_SEND_COPY_ACCESSES = 2
#: kernel socket buffer -> user buffer: read + write
SOCKET_RECV_COPY_ACCESSES = 2
#: kernel buffer <-> network interface (programmed I/O on the SS-era SBus)
NIC_COPY_ACCESSES = 1


class SocketLayer:
    """Blocking send/recv over a :class:`TcpStack` with 1995 socket costs."""

    def __init__(self, host, tcp: TcpStack):
        self.host = host
        self.sim = host.sim
        self.tcp = tcp

    def connect(self, remote: str, cid: int = 0):
        """Generator: establish (or reuse) a connection to ``remote``."""
        conn = self.tcp.connection(remote, cid)
        if not conn.established:
            yield from conn.connect()
        return conn

    # ----------------------------------------------------------------- send
    def send(self, conn: TcpConnection, payload: Any, nbytes: int):
        """Generator: blocking socket write of one framed message."""
        host = self.host
        yield from host.cpu_busy(host.os.syscall_time, Activity.OVERHEAD,
                                 "sock:syscall")
        copy = host.cpu.copy_time(nbytes, SOCKET_SEND_COPY_ACCESSES) \
            + host.cpu.copy_time(nbytes, NIC_COPY_ACCESSES)
        yield from host.cpu_busy(copy, Activity.COMMUNICATE, "sock:copy")
        yield from conn.send_message(payload, nbytes)

    # -------------------------------------------------------------- receive
    def recv(self, conn: TcpConnection):
        """Generator: blocking socket read of the next framed message.

        Returns ``(payload, nbytes)``.  The read syscall and the
        kernel→user copy are charged *after* the message is available,
        in the caller's context — a thread blocked here keeps the CPU
        free for its siblings, a single-threaded process does not.
        """
        payload, nbytes = yield conn.recv_message()
        host = self.host
        yield from host.cpu_busy(host.os.syscall_time, Activity.OVERHEAD,
                                 "sock:syscall")
        copy = host.cpu.copy_time(nbytes, NIC_COPY_ACCESSES) \
            + host.cpu.copy_time(nbytes, SOCKET_RECV_COPY_ACCESSES)
        yield from host.cpu_busy(copy, Activity.COMMUNICATE, "sock:copy")
        return payload, nbytes
