"""Self-healing NCS: failure detection, degradation, adaptive recovery.

The paper's NCS assumes a healthy NYNET; this package is the layer that
keeps an application running when the network or a host is not:

* :mod:`~repro.resilience.detector` — heartbeat failure detector per
  node (one more Fig 8 system thread), timestamped membership views,
  partition-aware quorum, EC abandon on confirmed death;
* :mod:`~repro.resilience.breaker` — per-peer circuit breaker state
  machine (CLOSED/OPEN/HALF_OPEN), driven entirely by simulated time;
* :mod:`~repro.resilience.failover` — the ``hsm-failover`` transport:
  HSM (ATM) protected by breakers, degrading to NSM (TCP) and probing
  its way back.

The ``adaptive`` error control (Jacobson SRTT/RTTVAR retransmission
timers, Karn's rule, per-message retry budgets) is ``ack`` with its
estimator on, so it lives beside ``ack`` in
:mod:`repro.core.mps.error_control`.

Importing this package registers ``hsm-failover`` with ``TRANSPORTS``.
Everything is opt-in: a
runtime without a :class:`ClusterResilience` attached behaves
bit-identically to one built before this package existed (the
perf-lock walls in ``tests/walls/perf_lock.py`` hold).
"""

from .breaker import BreakerState, CircuitBreaker
from .detector import ClusterResilience, HeartbeatDetector, PeerState
from .failover import FailoverTransport

__all__ = [
    "BreakerState", "CircuitBreaker",
    "ClusterResilience", "FailoverTransport", "HeartbeatDetector",
    "PeerState",
]
