"""NCS message format and addressing.

The Fig 7 primitives address endpoints as ``(thread, process)`` pairs;
``-1`` is the wildcard on the receive side.  A message whose
``to_thread`` is ``ANY_THREAD`` may be claimed by whichever thread in
the destination process posts a matching receive — the semantics the
p4/PVM/MPI filters rely on, since those libraries address processes,
not threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from ...sim import check_size

__all__ = ["ANY", "ANY_THREAD", "ControlKind", "NcsMessage",
           "NCS_HEADER_BYTES"]

#: receive-side wildcard (paper: NCS_recv(-1, -1, ...))
ANY = -1
#: send-side "any thread in the process may take this"
ANY_THREAD = -1

#: envelope bytes added to every NCS message on the wire
NCS_HEADER_BYTES = 32


class ControlKind(enum.Enum):
    """MPS-internal control traffic (never visible to applications)."""

    DATA = "data"
    BARRIER_ARRIVE = "barrier-arrive"
    BARRIER_RELEASE = "barrier-release"
    CREDIT = "credit"            # window flow control return path
    ACK = "ack"                  # error-control positive ack
    NACK = "nack"                # error-control: AAL5 CRC failure seen
    THROW = "throw"              # remote exception delivery
    HEARTBEAT = "heartbeat"      # failure-detector liveness beacon


@dataclass
class NcsMessage:
    """One NCS message (application data or MPS control)."""

    from_thread: int
    from_process: int
    to_thread: int
    to_process: int
    data: Any
    size: int
    tag: int = 0
    kind: ControlKind = ControlKind.DATA
    #: (src_pid, seq) — globally unique, used by error control / dedup
    msg_uid: tuple[int, int] = (0, 0)
    #: absolute simulated-time delivery deadline; error control stops
    #: retransmitting past it (None = deliver at any cost)
    deadline: "float | None" = None
    #: simulated time the originating NCS_send/bcast was issued; feeds
    #: the ``mps.delivery_latency_s`` histogram at recv delivery (None
    #: for MPS-internal control traffic, which is never latency-scored)
    sent_at: "float | None" = None

    def __post_init__(self) -> None:
        check_size("message size", self.size)

    @property
    def wire_bytes(self) -> int:
        return self.size + NCS_HEADER_BYTES

    def matches(self, from_thread: int, from_process: int,
                to_thread: int, to_process: int, tag: int = ANY) -> bool:
        """Receive-side matching with ``-1`` wildcards (Fig 7 / Fig 17)."""
        if self.kind is not ControlKind.DATA:
            return False
        if self.to_process != to_process:
            return False
        if self.to_thread not in (ANY_THREAD, to_thread):
            return False
        if from_thread != ANY and self.from_thread != from_thread:
            return False
        if from_process != ANY and self.from_process != from_process:
            return False
        if tag != ANY and self.tag != tag:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<NcsMessage {self.kind.value} "
                f"({self.from_thread},{self.from_process})->"
                f"({self.to_thread},{self.to_process}) {self.size}B "
                f"tag={self.tag}>")
