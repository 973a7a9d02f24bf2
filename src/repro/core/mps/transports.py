"""NCS_MPS transports.

Three interchangeable back-ends carry :class:`NcsMessage` s between
processes; which one a runtime uses is the experiment variable in most
of the benchmarks:

* :class:`SocketTransport` — TCP/IP sockets: the **Normal Speed Mode**
  tier of Fig 6 (interoperable, slower).
* :class:`P4Transport` — the paper's **Approach 1** (Fig 11):
  ``NCS_send``/``NCS_recv`` built from ``p4_send``/``p4_recv``/
  ``p4_messages_available``.  This is the configuration behind every
  number in Tables 1-3.
* :class:`AtmTransport` — the paper's **Approach 2** (Fig 12) and the
  **High Speed Mode** tier: straight onto the ATM API with mmap()ed
  kernel buffers, traps, the 3-access datapath and the Fig 2
  multiple-buffer pipeline.

A transport's contract: ``start_send(msg, then)`` runs the send path in
the background and calls ``then()`` at the instant the sender's user
buffer is free — the point NCS_send unblocks — or ``then(exc=exc)`` if
the path raised; delivery happens by calling the handler installed with
``set_delivery_handler`` with the reassembled message, wherever it
completes (the ATM adapter's delivery, TCP's message consumer);
``recv_cost`` is the CPU time the receive system thread charges to move
a received message from kernel to user space.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...atm.signaling import Service
from ...hosts import Host
from ...net.topology import Cluster, NodeStack
from ...p4.api import LibraryStream, P4Message, P4Params
from ...registry import TRANSPORTS
from ...sim import Activity
from .buffers import BufferPipeline
from .datapath import DatapathModel, NCS_DATAPATH, SOCKET_DATAPATH
from .message import NcsMessage

__all__ = ["NcsTransport", "SocketTransport", "P4Transport", "AtmTransport",
           "LOCAL_COPY_ACCESSES"]

#: thread-to-thread copy within one address space (plain memcpy)
LOCAL_COPY_ACCESSES = 2

#: the p4 message type NCS traffic travels under in Approach 1
NCS_P4_TYPE = 1995


class NcsTransport:
    """Base class: local bookkeeping plus the delivery-handler plumbing."""

    name = "base"
    #: name of the background process that runs one message's send path
    tx_label = "ncs-tx"

    def __init__(self, cluster: Cluster, pid: int):
        self.cluster = cluster
        self.sim = cluster.sim
        self.pid = pid
        self.stack: NodeStack = cluster.stack(pid)
        self.host: Host = self.stack.host
        self._deliver: Optional[Callable[[NcsMessage], None]] = None
        # telemetry handles (no-ops when the registry is disabled);
        # ``transport`` is the subclass's mode name ("p4", "socket", "atm")
        _m = self.sim.metrics
        self._m_messages = _m.counter(
            "transport.messages_sent", help="NCS messages handed to the wire",
            pid=pid, transport=self.name)
        self._m_bytes = _m.counter(
            "transport.bytes_sent", help="NCS payload bytes handed to the wire",
            pid=pid, transport=self.name)

    def set_delivery_handler(self, fn: Callable[[NcsMessage], None]) -> None:
        self._deliver = fn
        self._listen()

    def _listen(self) -> None:
        """Start handing arriving messages to ``self._deliver``."""
        raise NotImplementedError

    def start_send(self, msg: NcsMessage,
                   then: Optional[Callable[..., None]] = None) -> None:
        """Run :meth:`_send_path` in background simulated time; call
        ``then()`` when the user buffer is reusable, ``then(exc=exc)``
        if the path raised ``exc``."""
        self._m_messages.inc()
        self._m_bytes.inc(msg.size)
        path = self._send_path(msg)

        def runner():
            try:
                yield from path
            except Exception as exc:
                if then is None:
                    raise
                then(exc=exc)
                return
            if then is not None:
                then()
        self.sim.spawn(runner(), name=f"{self.tx_label}:{self.pid}")

    def _send_path(self, msg: NcsMessage):
        """Generator: the send, up to the instant the buffer is free."""
        raise NotImplementedError

    def recv_cost(self, nbytes: int) -> float:
        """CPU seconds to move a received message kernel -> user."""
        raise NotImplementedError

    def recv_cost_for(self, msg: NcsMessage) -> float:
        """Per-message receive cost.  The MPS receive thread charges this
        so multi-path transports (failover) can price each message by
        the path that actually delivered it."""
        return self.recv_cost(msg.size)

    # ------------------------------------------------ resilience feedback
    # Error control reports delivery outcomes back to the transport so a
    # path-aware transport (repro.resilience.FailoverTransport) can trip
    # and reset per-peer circuit breakers.  Plain transports ignore them.

    def on_path_suspect(self, msg: NcsMessage) -> None:
        """EC is about to retransmit ``msg``: its last transmission is
        presumed lost on whatever path carried it."""

    def on_delivery_confirmed(self, msg: NcsMessage) -> None:
        """The receiver acknowledged ``msg``."""


class SocketTransport(NcsTransport):
    """NSM: NCS messages as framed TCP messages (Fig 3a datapath)."""

    name = "socket"
    tx_label = "ncs-sock-tx"
    datapath: DatapathModel = SOCKET_DATAPATH

    def _conn(self, peer_pid: int):
        return self.stack.tcp.connection(self.cluster.host(peer_pid).name)

    def _listen(self) -> None:
        self.stack.tcp.serve_messages(self._on_tcp_message)

    def _unwrap(self, payload) -> Optional[NcsMessage]:
        """The NCS message a received TCP message carries, if any."""
        return payload if isinstance(payload, NcsMessage) else None

    def _on_tcp_message(self, payload) -> None:
        msg = self._unwrap(payload)
        if msg is not None and self._deliver is not None:
            self._deliver(msg)

    def _send_path(self, msg: NcsMessage):
        host = self.host
        yield from host.cpu_busy(self.datapath.entry_cost(host.os),
                                 Activity.OVERHEAD, "ncs:syscall")
        yield from host.cpu_busy(
            self.datapath.comm_copy_time(host.cpu, msg.size),
            Activity.COMMUNICATE, "ncs:copy")
        conn = self._conn(msg.to_process)
        yield from conn.send_message(msg, msg.wire_bytes)

    def recv_cost(self, nbytes: int) -> float:
        host = self.host
        return (self.datapath.entry_cost(host.os)
                + self.datapath.comm_copy_time(host.cpu, nbytes))


@TRANSPORTS.register(
    "nsm", help="Normal Speed Mode: NCS over TCP/IP sockets (Fig 6)")
def _build_socket_transport(runtime, pid: int) -> "SocketTransport":
    return SocketTransport(runtime.cluster, pid)


class P4Transport(SocketTransport):
    """Approach 1: NCS over p4 (adds p4's library overheads + envelope).

    The receive side uses the moral equivalent of
    ``p4_messages_available()`` + ``p4_recv()``: messages are pumped off
    the sockets without charging the application, and the NCS receive
    thread pays the p4 receive overhead when it claims one — so a
    pending receive never parks the whole process (paper §4.2).
    """

    name = "p4"

    def __init__(self, cluster: Cluster, pid: int,
                 p4_params: Optional[P4Params] = None):
        super().__init__(cluster, pid)
        self.p4_params = p4_params or P4Params()
        self._streams: dict[int, LibraryStream] = {}

    def _stream(self, dest: int) -> LibraryStream:
        stream = self._streams.get(dest)
        if stream is None:
            stream = self._streams[dest] = LibraryStream(
                self.stack.socket, self._conn(dest))
        return stream

    def _unwrap(self, payload) -> Optional[NcsMessage]:
        if isinstance(payload, P4Message) and payload.type == NCS_P4_TYPE:
            return payload.data
        return None

    def _send_path(self, msg: NcsMessage):
        # p4's buffered send: marshal + library copy in the send thread's
        # context; the socket/TCP stream then proceeds asynchronously, so
        # NCS_send unblocks the moment the user buffer is free.
        p = self.p4_params
        yield from self.host.cpu_busy(
            p.send_overhead_s + msg.size * p.marshal_send_per_byte_s
            + self.host.cpu.copy_time(msg.size, 2),
            Activity.COMMUNICATE, "p4:send")
        wrapped = P4Message(NCS_P4_TYPE, self.pid, msg, msg.wire_bytes)
        self._stream(msg.to_process).submit(
            wrapped, msg.wire_bytes + p.envelope_bytes)

    def recv_cost(self, nbytes: int) -> float:
        return (self.p4_params.recv_overhead_s
                + nbytes * self.p4_params.marshal_recv_per_byte_s
                + super().recv_cost(nbytes))


@TRANSPORTS.register(
    "p4", help="Approach 1: NCS over the p4 library (Tables 1-3)")
def _build_p4_transport(runtime, pid: int) -> "P4Transport":
    return P4Transport(runtime.cluster, pid, runtime.p4_params)


class AtmTransport(NcsTransport):
    """Approach 2 / HSM: straight onto the ATM API.

    Uses the cluster's dedicated HSM PVCs, the Fig 2 buffer pipeline
    and the Fig 3b three-access datapath.  This is the implementation the
    paper describes in §4.2 as "not fully operational" at submission
    time — built out here as designed, and checked against Approach 1
    in ``tests/paper/test_fig12.py``.
    """

    name = "atm"
    tx_label = "ncs-atm-tx"
    datapath: DatapathModel = NCS_DATAPATH

    def __init__(self, cluster: Cluster, pid: int,
                 datapath: DatapathModel = NCS_DATAPATH):
        super().__init__(cluster, pid)
        if self.stack.atm_api is None:
            raise ValueError(
                f"host {self.host.name} has no ATM interface; "
                "AtmTransport needs an ATM or NYNET cluster")
        self.datapath = datapath
        self.atm_api = self.stack.atm_api
        self.pipeline = BufferPipeline(self.host, self.atm_api.adapter,
                                       datapath=datapath)

    def _listen(self) -> None:
        # every HSM circuit that terminates here: the adapter's delivery
        # calls us as the DMA into host memory completes
        self.atm_api.serve(Service.HSM, self._on_atm_message)

    def _on_atm_message(self, atm_msg) -> None:
        payload = atm_msg.payload
        if isinstance(payload, NcsMessage):
            self._deliver(payload)

    def _send_path(self, msg: NcsMessage):
        vc = self.cluster.hsm_vc(self.pid, msg.to_process)
        return self.pipeline.pipelined_send(vc, msg, msg.wire_bytes)

    def recv_cost(self, nbytes: int) -> float:
        host = self.host
        return (self.datapath.entry_cost(host.os)
                + self.datapath.comm_copy_time(host.cpu, nbytes))


@TRANSPORTS.register(
    "hsm", help="High Speed Mode: straight onto the ATM API (Approach 2)")
def _build_atm_transport(runtime, pid: int) -> "AtmTransport":
    return AtmTransport(runtime.cluster, pid)
