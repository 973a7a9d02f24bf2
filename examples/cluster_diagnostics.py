#!/usr/bin/env python
"""A tour of the observability surface: one workload, every signal.

Runs the same NCS workload over the Approach-1 (p4/TCP) tier on Ethernet
and over the HSM (ATM API) tier on the ATM LAN — each declared as a
scenario spec with tracing enabled through its ``[obs]`` table — then
shows the three telemetry outputs the repo produces:

* the cluster diagnostics report (every layer's counters, generated
  from the metrics registry, stamped with the scenario's name and
  content digest);
* a raw registry snapshot excerpt (the same numbers, queryable);
* a Chrome trace (open it at https://ui.perfetto.dev or in
  chrome://tracing) and a JSONL span stream, written to a temp dir.

Run:  python examples/cluster_diagnostics.py
"""

import tempfile
from pathlib import Path

from repro.config import ClusterSpec, ObsSpec, ScenarioSpec, build_runtime
from repro.diagnostics import cluster_report, render_report
from repro.obs import export_chrome_trace, export_jsonl, iter_records

SPECS = (
    ("ethernet-p4", "Approach 1 (p4 over TCP, shared Ethernet)",
     ScenarioSpec(name="diag-ethernet-p4",
                  cluster=ClusterSpec(topology="ethernet", n_hosts=2),
                  obs=ObsSpec(trace=True))),
    ("atm-hsm", "High Speed Mode (ATM API, FORE switch)",
     ScenarioSpec(name="diag-atm-hsm",
                  cluster=ClusterSpec(topology="atm-lan", n_hosts=2),
                  mode="hsm", obs=ObsSpec(trace=True))),
)


def run_workload(spec):
    cluster, rt = build_runtime(spec)

    def sender(ctx, rtid):
        for i in range(8):
            yield ctx.send(rtid, 1, {"seq": i}, 24 * 1024)

    def receiver(ctx):
        for _ in range(8):
            yield ctx.recv()

    rtid = rt.t_create(1, receiver, name="sink")
    rt.t_create(0, sender, (rtid,), name="source")
    makespan = rt.run()
    return cluster, rt, makespan


def show_snapshot_excerpt(cluster) -> None:
    snap = cluster.metrics.snapshot()
    print("--- registry snapshot (excerpt) ---")
    for name in ("sim.events_processed", "mps.data_sent",
                 "transport.bytes_sent", "mts.context_switches"):
        for label_str, value in snap.get(name, {}).items():
            shown = f"{name}{{{label_str}}}" if label_str else name
            print(f"  {shown} = {value}")


def export_traces(cluster, out_dir: Path, tag: str) -> None:
    chrome = out_dir / f"{tag}.trace.json"
    jsonl = out_dir / f"{tag}.trace.jsonl"
    export_chrome_trace(cluster.tracer, chrome, metrics=cluster.metrics)
    export_jsonl(cluster.tracer, jsonl)
    n_spans = sum(1 for r in iter_records(cluster.tracer)
                  if r["type"] == "span")
    print(f"--- traces ({n_spans} spans) ---")
    print(f"  chrome trace: {chrome}   (load in https://ui.perfetto.dev)")
    print(f"  span stream:  {jsonl}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-telemetry-") as tmp:
        for tag, title, spec in SPECS:
            cluster, rt, makespan = run_workload(spec)
            print(f"=== {title} — 8 x 24 KiB in {makespan * 1e3:.1f} ms ===")
            print(render_report(cluster_report(cluster, rt, scenario=spec)))
            show_snapshot_excerpt(cluster)
            export_traces(cluster, Path(tmp), tag)
            print()
        print(f"(the traces are removed with {tmp} when the example ends)")


if __name__ == "__main__":
    main()
