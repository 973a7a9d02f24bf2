#!/usr/bin/env python
"""The five-stage distributed JPEG pipeline (paper §5.2, Figs 15-18).

Compresses and reconstructs the 600 KB benchmark image across a cluster
where half the workers compress and half decompress, comparing the
single-threaded p4 pipeline against the two-thread NCS pipeline and
reporting the reconstruction quality.

Both variants are declared as scenario specs over the registered
``jpeg-p4`` / ``jpeg-ncs`` app drivers, with tracing switched on
through the spec's ``[obs]`` table so the Fig 16 idle-share analysis
can read the span timelines afterwards.

Run:  python examples/jpeg_pipeline.py
"""

from repro.apps.jpeg import benchmark_image, compress, decompress, psnr
from repro.config import (AppSpec, ClusterSpec, ObsSpec, ScenarioSpec,
                          run_scenario)
from repro.sim import Activity

TRACED = ObsSpec(trace=True)


def main() -> None:
    image = benchmark_image()
    comp = compress(image)
    print(f"benchmark image: {image.shape[1]}x{image.shape[0]} "
          f"({image.nbytes // 1024} KiB); codec alone: "
          f"{comp.nbytes // 1024} KiB compressed "
          f"({image.nbytes / comp.nbytes:.1f}:1), "
          f"PSNR {psnr(image, decompress(comp)):.1f} dB\n")

    for nodes in (2, 4):
        cluster = ClusterSpec(topology="platform-nynet", n_hosts=nodes + 1)
        rp = run_scenario(ScenarioSpec(
            name=f"jpeg-p4-{nodes}n", cluster=cluster, obs=TRACED,
            app=AppSpec("jpeg-p4")))
        rn = run_scenario(ScenarioSpec(
            name=f"jpeg-ncs-{nodes}n", cluster=cluster, obs=TRACED,
            app=AppSpec("jpeg-ncs")))
        imp = ((rp.value.makespan_s - rn.value.makespan_s)
               / rp.value.makespan_s * 100)
        print(f"{nodes} nodes (NYNET): p4 {rp.value.makespan_s:.2f}s  "
              f"NCS {rn.value.makespan_s:.2f}s  -> {imp:.1f}% improvement "
              f"(paper band: 22.6-59.9%)")
        # Fig 16: where the time went, per host
        for label, result in (("p4 ", rp), ("NCS", rn)):
            tracer = result.cluster.tracer
            tracer.close_all()
            idle = []
            for i in range(1, nodes + 1):
                tl = tracer.timelines.get(f"n{i}")
                busy = sum(tl.total(a) for a in Activity) if tl else 0.0
                idle.append(1 - busy / result.value.makespan_s)
            worst = max(idle) * 100
            print(f"   [{label}] worst worker idle share: {worst:.0f}% "
                  f"of the makespan")
        print()


if __name__ == "__main__":
    main()
