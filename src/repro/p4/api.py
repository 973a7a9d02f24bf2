"""The p4 message-passing library (Butler & Lusk, ANL) — the baseline.

Every benchmark table in the paper compares NCS_MTS/p4 against plain p4.
This module reproduces the p4 programming surface the paper's
pseudo-code uses (Figs 13, 19):

* ``p4_initenv`` / ``p4_create_procgroup``  — cluster bring-up (the
  builders in :mod:`repro.net` stand in for the procgroup file),
* ``p4_get_my_id()``,
* ``p4_send(type, dest, data, size)``,
* ``p4_recv(&type, &from, &data, &size)`` with ``-1`` wildcards,
* ``p4_messages_available()``,
* ``p4_broadcast`` and ``p4_global_barrier``.

p4 processes are **single threaded**: a blocking ``p4_recv`` parks the
whole OS process, leaving the CPU idle — the precise pathology the
paper's multithreading removes.  Send/receive ride the socket/TCP stack
with an extra per-message library overhead (message envelopes, queue
management, XDR-era marshalling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..net.topology import Cluster, NodeStack
from ..sim import Activity, Event, SimProcess, Store, check_size

__all__ = ["P4Params", "P4Message", "P4Process", "P4Runtime",
           "LibraryStream"]


class LibraryStream:
    """p4's buffered asynchronous send path to one destination.

    ``p4_send`` does not block on the wire: the library marshals the
    message into its own buffer and a background machinery trickles the
    bytes through the socket.  Streams to *different* destinations
    proceed in parallel (each stalling on its own TCP window / delayed
    ACKs); messages to the *same* destination stay ordered.
    """

    def __init__(self, socket_layer, conn):
        self.sim = conn.sim
        self.socket = socket_layer
        self.conn = conn
        self._q: Store = Store(self.sim,
                               name=f"p4lib:{conn.local}->{conn.remote}")
        self.sim.process(self._pump(),
                         name=f"p4lib:{conn.local}->{conn.remote}")

    def submit(self, payload: Any, nbytes: int) -> Event:
        """Queue one message; the returned event fires when the last
        byte has entered the TCP send window."""
        done = self.sim.event(name="p4lib-done")
        self._q.try_put((payload, nbytes, done))
        return done

    def _pump(self):
        while True:
            payload, nbytes, done = yield self._q.get()
            yield from self.socket.send(self.conn, payload, nbytes)
            done.succeed(None)

#: p4 message type used internally for barrier traffic
_BARRIER_TYPE = -999


@dataclass(frozen=True)
class P4Params:
    """Library-level constants (on top of socket/TCP costs).

    The per-byte marshalling costs dominate p4 bulk transfers on the
    paper's hardware.  They are calibrated from Table 1's single-node
    rows: a 1-node matmul moves 384 KB (B + A out, C back) and its
    execution time exceeds pure compute by ~3.4 s on the ELC/Ethernet
    platform and ~2.7 s on the IPX/NYNET platform — i.e. p4's effective
    end-system software path costs ~7-8 us/byte (XDR-era data
    conversion, mbuf copies, library buffering on 33-40 MHz SPARCs).
    This is the communication time the paper's threads overlap.
    """

    send_overhead_s: float = 400e-6     # envelope build, queue mgmt
    recv_overhead_s: float = 250e-6     # matching, unlink, hand-off
    envelope_bytes: int = 16
    marshal_send_per_byte_s: float = 0.3e-6
    marshal_recv_per_byte_s: float = 0.3e-6


@dataclass
class P4Message:
    """One p4 message as seen by ``p4_recv``."""

    type: int
    from_pid: int
    data: Any
    size: int


class P4Runtime:
    """A p4 'procgroup': one single-threaded process per cluster host."""

    def __init__(self, cluster: Cluster, params: Optional[P4Params] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.params = params or P4Params()
        self.processes = [P4Process(self, pid) for pid in range(cluster.n_hosts)]

    @property
    def num_procs(self) -> int:
        return len(self.processes)

    def spawn(self, pid: int, program, *args, name: str = "") -> SimProcess:
        """Run ``program(p4process, *args)`` as that pid's main()."""
        proc = self.processes[pid]
        return self.sim.process(program(proc, *args),
                                name=name or f"p4:{pid}")

    def run_all(self, program, *args) -> list[SimProcess]:
        """Spawn the same program on every process (SPMD style)."""
        return [self.spawn(pid, program, *args)
                for pid in range(self.num_procs)]


class P4Process:
    """The per-process p4 API.  All communication methods are generators
    to be driven with ``yield from`` inside the process's program."""

    def __init__(self, runtime: P4Runtime, pid: int):
        self.runtime = runtime
        self.cluster = runtime.cluster
        self.sim = runtime.sim
        self.pid = pid
        self.stack: NodeStack = self.cluster.stack(pid)
        self.host = self.stack.host
        self.mailbox = self.stack.process.mailbox
        self._streams: dict[int, LibraryStream] = {}
        # Completed TCP messages go straight into the process mailbox at
        # no CPU cost: kernel-side costs were charged by the TCP stack,
        # and the user-side copy is charged by ``recv`` in the
        # *receiver's* context (that is what makes a blocking recv
        # expensive for p4 and cheap for NCS threads).
        self.stack.tcp.serve_messages(self.mailbox.deliver)

    def _stream(self, dest: int) -> LibraryStream:
        stream = self._streams.get(dest)
        if stream is None:
            conn = self.stack.tcp.connection(self.cluster.host(dest).name)
            stream = self._streams[dest] = LibraryStream(self.stack.socket,
                                                         conn)
        return stream

    # ------------------------------------------------------------- identity
    def get_my_id(self) -> int:
        return self.pid

    def num_total_ids(self) -> int:
        return self.runtime.num_procs

    # ----------------------------------------------------------------- send
    def send(self, type_: int, dest: int, data: Any, size: int
             ) -> Generator[Event, Any, None]:
        """``p4_send``: marshal into the library buffer and return; the
        wire transfer proceeds asynchronously (p4's buffered sends)."""
        if dest == self.pid:
            raise ValueError("p4_send to self is not supported")
        check_size("size", size)
        params = self.runtime.params
        yield from self.host.cpu_busy(
            params.send_overhead_s + size * params.marshal_send_per_byte_s
            + self.host.cpu.copy_time(size, 2),
            Activity.COMMUNICATE, "p4:send")
        msg = P4Message(type_, self.pid, data, size)
        self._stream(dest).submit(msg, size + params.envelope_bytes)

    # -------------------------------------------------------------- receive
    def _match(self, type_: int, from_: int):
        def pred(msg) -> bool:
            return (isinstance(msg, P4Message)
                    and (type_ == -1 or msg.type == type_)
                    and (from_ == -1 or msg.from_pid == from_))
        return pred

    def recv(self, type_: int = -1, from_: int = -1
             ) -> Generator[Event, Any, P4Message]:
        """``p4_recv``: blocks the whole process until a match arrives,
        then charges the read syscall + kernel→user copy."""
        msg = yield self.mailbox.receive(self._match(type_, from_))
        host = self.host
        params = self.runtime.params
        cost = (params.recv_overhead_s + host.os.syscall_time
                + host.cpu.copy_time(msg.size, 3)
                + msg.size * params.marshal_recv_per_byte_s)
        yield from host.cpu_busy(cost, Activity.COMMUNICATE, "p4:recv")
        return msg

    def messages_available(self, type_: int = -1, from_: int = -1) -> bool:
        """``p4_messages_available``: non-blocking poll (this is the
        primitive NCS's receive thread uses to avoid parking the
        process — paper §4.2)."""
        return self.mailbox.poll(self._match(type_, from_))

    # ------------------------------------------------------------- convenience
    def compute(self, seconds: float, label: str = "compute"
                ) -> Generator[Event, Any, None]:
        """Model application compute in the process context."""
        yield from self.host.cpu_busy(seconds, Activity.COMPUTE, label)

    def broadcast(self, type_: int, data: Any, size: int
                  ) -> Generator[Event, Any, None]:
        """p4-style broadcast: a loop of point-to-point sends."""
        for dest in range(self.runtime.num_procs):
            if dest != self.pid:
                yield from self.send(type_, dest, data, size)

    def global_barrier(self) -> Generator[Event, Any, None]:
        """All-process barrier, coordinator at pid 0 (p4's scheme)."""
        n = self.runtime.num_procs
        if n == 1:
            return
        if self.pid == 0:
            for _ in range(n - 1):
                yield from self.recv(type_=_BARRIER_TYPE)
            for dest in range(1, n):
                yield from self.send(_BARRIER_TYPE, dest, None, 0)
        else:
            yield from self.send(_BARRIER_TYPE, 0, None, 0)
            yield from self.recv(type_=_BARRIER_TYPE, from_=0)
