"""Minimal UDP model: unreliable, unordered datagram delivery.

Used by the QoS examples (a VOD stream does not want TCP retransmission
stalls) and as a contrast case in the NSM/HSM benchmarks.
"""

from __future__ import annotations

from typing import Any

from ..sim import Activity, Event, Store
from .ip import IpLayer

__all__ = ["UdpStack", "UDP_HEADER_BYTES"]

UDP_HEADER_BYTES = 8


class UdpStack:
    """Per-host UDP with port-keyed receive queues."""

    def __init__(self, host, ip: IpLayer,
                 tx_proc_s: float = 60e-6, rx_proc_s: float = 60e-6):
        self.host = host
        self.sim = host.sim
        self.ip = ip
        self.tx_proc_s = tx_proc_s
        self.rx_proc_s = rx_proc_s
        self._ports: dict[int, Store] = {}
        self._rx_q: Store = Store(self.sim, name=f"udprx:{host.name}")
        ip.register_protocol("udp", lambda pkt: self._rx_q.try_put(pkt))
        self.sim.process(self._rx_loop(), name=f"udp-rx:{host.name}")

    def port(self, number: int) -> Store:
        q = self._ports.get(number)
        if q is None:
            q = self._ports[number] = Store(
                self.sim, name=f"udpport:{self.host.name}:{number}")
        return q

    def send(self, dst_host: str, port: int, payload: Any, nbytes: int):
        """Generator: charge send-side cost and emit one datagram
        (fragmented by IP if it exceeds the MTU)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        cost = self.tx_proc_s + self.host.cpu.touch_time(nbytes)
        yield from self.host.cpu_busy(cost, Activity.COMMUNICATE, "udp:tx")
        self.ip.send(dst_host, "udp", (port, payload, nbytes),
                     UDP_HEADER_BYTES + nbytes)

    def recv(self, port: int) -> Event:
        """Event firing with ``(payload, nbytes, src_host)``."""
        return self.port(port).get()

    def _rx_loop(self):
        while True:
            pkt = yield self._rx_q.get()
            yield from self.host.cpu_busy(
                self.host.os.interrupt_time + self.rx_proc_s,
                Activity.OVERHEAD, "udp:rx")
            if pkt.payload is None:
                continue  # fragment loss upstream
            port, payload, nbytes = pkt.payload
            self.port(port).try_put((payload, nbytes, pkt.src))
