"""Fig 1 — the NYNET testbed topology.

Builds the Fig 1 wide-area testbed and measures path properties: the
intra-site path is TAXI-bound with microsecond propagation; the
upstate-downstate path crosses the OC-3 site links and the DS-3
bottleneck with millisecond propagation.
"""

from repro.bench.figures import fig1_nynet_paths


def test_fig1_nynet_paths():
    paths = fig1_nynet_paths()
    intra, cross = paths["intra-site"], paths["cross-region"]
    # paper §2: sites connect via OC-3, upstate-downstate via DS-3 45 Mbps
    assert cross["bottleneck_bps"] == 45e6
    assert intra["bottleneck_bps"] == 140e6
    assert cross["goodput_bps"] < 45e6
    assert intra["goodput_bps"] > cross["goodput_bps"]
    # WAN propagation is orders of magnitude above the LAN's
    assert cross["propagation_s"] > 100 * intra["propagation_s"]


def test_fig1_kleinrock_latency_bandwidth():
    """§3's Kleinrock point: across the WAN, propagation dwarfs the
    serialization of a small message."""
    cross = fig1_nynet_paths(1024)["cross-region"]
    serialization = 1024 * 8 / cross["bottleneck_bps"]
    assert cross["propagation_s"] > 5 * serialization
