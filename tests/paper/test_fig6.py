"""Fig 6 — the two-tier NSM/HSM architecture.

Measures one-way NCS message time over each tier (NSM = TCP/IP sockets,
HSM = ATM API, plus Approach-1 p4 for reference) across message sizes.
The HSM must win at every size, increasingly so for bulk messages —
the price of NSM's interoperability.
"""

from repro.bench.figures import fig6_nsm_vs_hsm


def test_fig6_tier_latency():
    data = fig6_nsm_vs_hsm()
    for size, nsm, hsm, p4 in zip(data["sizes"], data["nsm_s"],
                                  data["hsm_s"], data["p4_s"]):
        # the HSM is decisively faster at every size (trap vs syscall,
        # 3 vs 5 accesses/word, no TCP segments, pipelined buffers)
        assert hsm < nsm / 1.3, f"HSM must beat NSM clearly at {size}B"
        # Approach 1 adds p4 overheads on top of the socket path
        assert p4 >= nsm * 0.95, f"p4 tier should not beat raw NSM at {size}B"
