#!/usr/bin/env python
"""Table 1 in miniature: distributed matmul, p4 vs NCS, both platforms.

Runs the paper's matrix-multiplication experiment (Figs 13/14) on the
SUN/Ethernet and SUN/ATM(NYNET) clusters, printing execution times and
the % improvement column of Table 1.

Each cell is one scenario: a base :class:`~repro.config.ScenarioSpec`
per variant (the ``matmul-p4`` / ``matmul-ncs`` registered app
drivers), swept across the table with ``with_cluster`` (the
``platform-ethernet`` / ``platform-nynet`` topology, a host plus the
row's nodes) and sized with ``with_app_params`` — the same specs
``scenarios/table1_matmul.toml`` holds in TOML form.

Run:  python examples/matmul_cluster.py [n]
"""

import sys

from repro.config import AppSpec, ScenarioSpec, run_scenario

P4_BASE = ScenarioSpec(name="table1-p4", app=AppSpec("matmul-p4"))
NCS_BASE = ScenarioSpec(name="table1-ncs", app=AppSpec("matmul-ncs"))


def main(n: int = 128) -> None:
    print(f"Distributed matrix multiplication, {n}x{n} doubles "
          f"(paper Table 1)\n")
    header = (f"{'platform':<10}{'nodes':>6}{'p4 (s)':>10}"
              f"{'NCS_MTS/p4 (s)':>16}{'improvement':>13}")
    print(header)
    print("-" * len(header))
    for platform, node_counts in (("ethernet", (1, 2, 4)),
                                  ("nynet", (1, 2, 4))):
        for nodes in node_counts:
            cell = dict(topology=f"platform-{platform}", n_hosts=nodes + 1)
            rp = run_scenario(
                P4_BASE.with_cluster(**cell).with_app_params(n=n)).value
            rn = run_scenario(
                NCS_BASE.with_cluster(**cell).with_app_params(n=n)).value
            assert rp.correct and rn.correct, "wrong product!"
            imp = (rp.makespan_s - rn.makespan_s) / rp.makespan_s * 100
            print(f"{platform:<10}{nodes:>6}{rp.makespan_s:>10.2f}"
                  f"{rn.makespan_s:>16.2f}{imp:>12.1f}%")
    print("\nBoth variants compute the numerically identical product; the "
          "NCS runs overlap\ncommunication with computation via two "
          "threads per process (paper Fig 4).")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 128)
