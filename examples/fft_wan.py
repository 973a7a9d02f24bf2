#!/usr/bin/env python
"""DIF FFT across the NYNET wide-area testbed (paper §5.3 + Fig 1).

First reruns Table 3's LAN experiment (each cell a scenario spec over
the registered ``fft-p4`` / ``fft-ncs`` drivers), then builds the Fig 1
WAN from a declarative :class:`~repro.config.ClusterSpec` (one upstate
host, one downstate host, the DS-3 in between) to show the §3 point the
paper opens with: across a WAN the propagation delay dominates, and
overlapping computation with communication is "the only viable
approach".

Run:  python examples/fft_wan.py
"""

import numpy as np

from repro.apps.fft import dif_fft_reference, make_samples
from repro.config import (
    AppSpec, ClusterSpec, ScenarioSpec, build_cluster, run_scenario,
)

WAN_CLUSTER = ClusterSpec(
    topology="nynet-testbed",
    options={"n_upstate": 1, "n_downstate": 1},
)


def lan_table() -> None:
    print("Table 3 (NYNET LAN): DIF FFT, M=512, 8 sample sets")
    for nodes in (1, 2, 4):
        cluster = ClusterSpec(topology="platform-nynet", n_hosts=nodes + 1)
        rp = run_scenario(ScenarioSpec(
            name=f"fft-p4-{nodes}n", cluster=cluster,
            app=AppSpec("fft-p4"))).value
        rn = run_scenario(ScenarioSpec(
            name=f"fft-ncs-{nodes}n", cluster=cluster,
            app=AppSpec("fft-ncs"))).value
        assert rp.correct and rn.correct
        print(f"  {nodes} nodes: p4 {rp.makespan_s:.2f}s, "
              f"NCS {rn.makespan_s:.2f}s")
    print()


def wan_latency() -> None:
    print("WAN reality check (paper §3, citing Kleinrock):")
    cluster = build_cluster(WAN_CLUSTER)
    vc = cluster.hsm_vc(0, 1)
    prop = sum(ch.spec.prop_delay_s for ch in vc.hops)
    bottleneck = min(ch.spec.bandwidth_bps for ch in vc.hops)
    nbytes = 1024
    serialization = nbytes * 8 / bottleneck
    print(f"  upstate->downstate path: {len(vc.hops)} hops, "
          f"bottleneck {bottleneck / 1e6:.0f} Mbps")
    print(f"  1 KiB message: serialization {serialization * 1e6:.0f} us "
          f"vs propagation {prop * 1e3:.2f} ms "
          f"({prop / serialization:.0f}x)")
    print("  -> transmission time is insignificant next to propagation; "
          "only overlap helps.\n")


def algorithm_check() -> None:
    s = make_samples(512, 1)[0]
    ours = dif_fft_reference(s, 8)
    ref = np.fft.fft(s)
    print(f"distributed DIF FFT vs numpy.fft: max |error| = "
          f"{np.abs(ours - ref).max():.2e}")


def main() -> None:
    lan_table()
    wan_latency()
    algorithm_check()


if __name__ == "__main__":
    main()
