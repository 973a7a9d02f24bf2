"""Quality-of-service framework: service modes and traffic contracts.

The paper's two-tier architecture (Fig 6):

* **NSM (Normal Speed Mode)** — "emphasizes interoperability and uses
  traditional communication systems (e.g. TCP/IP)".
* **HSM (High Speed Mode)** — "uses NCS or other message passing tools
  ported to NCS, which in turn is built on ATM API".

plus **Approach 1** ("p4") as a third, historically primary, transport.

A :class:`QosContract` captures the per-application requirements of
Fig 5: a sustained rate and burst tolerance (mapped to rate-based flow
control — the VOD profile) or a window (bulk parallel/distributed
application profile).  ``flow_control_for`` turns a contract into the
strategy the FC thread runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ...sim import check_param, check_size
from .flow_control import (
    FlowControl, NoFlowControl, RateFlowControl, WindowFlowControl,
)

__all__ = ["ServiceMode", "QosContract", "VOD_PROFILE", "PDA_PROFILE",
           "flow_control_for"]


class ServiceMode(enum.Enum):
    """Which tier of the Fig 6 architecture carries the traffic."""

    #: Approach 1: NCS over p4 (the paper's benchmarked configuration)
    P4 = "p4"
    #: Normal Speed Mode: TCP/IP sockets
    NSM = "nsm"
    #: High Speed Mode: the ATM API (Approach 2)
    HSM = "hsm"


@dataclass(frozen=True)
class QosContract:
    """Per-application traffic requirements (Fig 5)."""

    name: str = "best-effort"
    #: sustained rate the application wants (bytes/s); None = unpaced
    rate_bytes_s: Optional[float] = None
    #: tolerated burst at that rate (bytes)
    burst_bytes: int = 64 * 1024
    #: credit window for bulk traffic (bytes); None = unlimited
    window_bytes: Optional[int] = None
    #: end-to-end latency target, used by benchmarks to score jitter
    latency_target_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate_bytes_s is not None:
            check_param("rate_bytes_s", self.rate_bytes_s, positive=True)
        if self.window_bytes is not None:
            check_size("window_bytes", self.window_bytes)
            if self.window_bytes < 1:
                raise ValueError("window_bytes must be >= 1")
        if self.rate_bytes_s is not None and self.window_bytes is not None:
            raise ValueError("choose rate-based or window-based, not both")


#: a Video-on-Demand stream: paced injection, small jitter target (Fig 5 FC1)
VOD_PROFILE = QosContract(name="vod", rate_bytes_s=1.5e6 / 8 * 8,
                          burst_bytes=32 * 1024, latency_target_s=0.05)

#: a parallel/distributed application: windowed bulk transfer (Fig 5 FC2)
PDA_PROFILE = QosContract(name="pda", window_bytes=128 * 1024)


def flow_control_for(contract: Optional[QosContract]) -> FlowControl:
    """Instantiate the FC strategy a contract calls for."""
    if contract is None:
        return NoFlowControl()
    if contract.rate_bytes_s is not None:
        return RateFlowControl(contract.rate_bytes_s, contract.burst_bytes)
    if contract.window_bytes is not None:
        return WindowFlowControl(contract.window_bytes)
    return NoFlowControl()
