"""Same seed, same workload -> bit-identical telemetry.

The registry snapshot and both export formats are part of the repo's
determinism contract: two identical runs must produce identical metric
values *and* identical trace bytes, so telemetry artifacts can be
diffed across commits the way the chaos suite diffs trace signatures.
"""

import json

from repro.bench.tables import cell_spec
from repro.config import ObsSpec, run_scenario
from repro.obs import export_chrome_trace, export_jsonl


def _run():
    spec = cell_spec("matmul-ncs", "ethernet", 2, n=32)
    return run_scenario(spec.replace(obs=ObsSpec(trace=True)))


def test_metric_snapshots_are_reproducible():
    a, b = _run(), _run()
    assert a.cluster.metrics.snapshot() == b.cluster.metrics.snapshot()


def test_snapshot_has_every_layer(tmp_path):
    snap = _run().cluster.metrics.snapshot()
    for name in ("sim.events_processed", "mts.context_switches",
                 "mps.data_sent", "transport.messages_sent",
                 "tcp.segments_sent", "ip.packets_sent",
                 "ethernet.frames_delivered"):
        assert name in snap, f"layer metric {name} missing"


def test_chrome_traces_are_byte_identical(tmp_path):
    paths = []
    for i, res in enumerate((_run(), _run())):
        path = tmp_path / f"trace{i}.json"
        export_chrome_trace(res.cluster.tracer, path,
                            metrics=res.cluster.metrics)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_jsonl_streams_are_byte_identical(tmp_path):
    paths = []
    for i, res in enumerate((_run(), _run())):
        path = tmp_path / f"trace{i}.jsonl"
        export_jsonl(res.cluster.tracer, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_matmul_trace_has_compute_and_communicate_tracks(tmp_path):
    res = _run()
    path = tmp_path / "trace.json"
    export_chrome_trace(res.cluster.tracer, path)
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    cats = {e["cat"] for e in spans}
    assert "compute" in cats and "communicate" in cats
    hosts = {e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert len(hosts) >= 3  # host process + 2 nodes
