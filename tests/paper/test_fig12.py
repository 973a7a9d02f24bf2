"""Figs 11/12 — Approach 1 (NCS over p4) vs Approach 2 (NCS over the
ATM API).

The paper finished only Approach 1 and predicted that "NCS applications
would run at much higher speed" once Approach 2 was complete (§6).  We
built Approach 2 as designed — mmap'ed kernel buffers, traps, the Fig 2
pipeline, AAL5 straight to the adapter — and this module checks the
comparison the paper promised.
"""

from repro.bench.figures import _one_way, fig12_approaches
from repro.core.mps import ServiceMode


def test_fig12_approach2_beats_approach1():
    data = fig12_approaches()
    assert data["both_correct"]
    # the paper's prediction: Approach 2 is faster
    assert data["approach2_atm_s"] < data["approach1_p4_s"]


def test_fig12_transport_level_gap():
    """At the transport level the gap is larger than at application
    level (compute dilutes it) — measure a pure bulk transfer."""
    p4_t = _one_way(ServiceMode.P4, 128 * 1024)
    hsm_t = _one_way(ServiceMode.HSM, 128 * 1024)
    assert hsm_t < 0.5 * p4_t
