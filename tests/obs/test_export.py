"""Chrome-trace / JSONL export: track mapping, record ordering, and the
``chrome_export`` wall (``tests/walls/chrome_export.py``), which holds
the emitted file to what Perfetto/chrome://tracing already loads."""

import json

import pytest

from repro.obs import (
    MetricsRegistry, entity_track, export_chrome_trace, export_jsonl,
    iter_records, to_chrome_events,
)
from tests.walls import chrome_export
from tests.walls.chrome_export import golden_tracer


# ------------------------------------------------------------- track mapping
class TestEntityTrack:
    def test_bare_host_is_the_cpu_track(self):
        assert entity_track("n0") == ("n0", "cpu")

    def test_slash_names_a_thread_track(self):
        assert entity_track("n3/worker-2") == ("n3", "worker-2")

    def test_fault_entities_share_one_process(self):
        assert entity_track("fault:7") == ("faults", "fault:7")

    def test_namespaced_points_get_a_main_track(self):
        assert entity_track("ncs:0") == ("ncs:0", "main")
        assert entity_track("ec:1") == ("ec:1", "main")


# ------------------------------------------------------------------- records
class TestIterRecords:
    def test_time_sorted_spans_and_points(self):
        records = list(iter_records(golden_tracer()))
        assert [r["type"] for r in records] == [
            "span", "span", "point", "span", "span"]
        times = [r.get("t0", r.get("t")) for r in records]
        assert times == sorted(times)
        fault = [r for r in records if r["entity"] == "fault:0"][0]
        assert fault["activity"] == "fault"
        assert fault["t0"] == pytest.approx(0.0015)
        assert fault["t1"] == pytest.approx(0.002)

    def test_point_payload_preserved(self):
        point = [r for r in iter_records(golden_tracer())
                 if r["type"] == "point"][0]
        assert point == {"type": "point", "t": 0.0005, "entity": "ncs:0",
                         "kind": "send", "payload": {"to": 1, "bytes": 1024}}


# -------------------------------------------------------------- chrome trace
class TestChromeTrace:
    test_golden_file = staticmethod(
        chrome_export.test_the_exported_file_is_the_parent_file)

    def test_one_track_per_entity(self):
        events = to_chrome_events(golden_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        thread_names = {(e["pid"], e["args"]["name"]) for e in meta
                        if e["name"] == "thread_name"}
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert process_names == {"n0", "ncs:0", "faults"}
        pid_of = {e["args"]["name"]: e["pid"] for e in meta
                  if e["name"] == "process_name"}
        assert thread_names == {
            (pid_of["n0"], "cpu"), (pid_of["n0"], "worker-1"),
            (pid_of["ncs:0"], "main"), (pid_of["faults"], "fault:0")}

    def test_timestamps_are_sim_microseconds(self):
        events = to_chrome_events(golden_tracer())
        spans = [e for e in events if e["ph"] == "X"]
        dct = [e for e in spans if e["name"] == "dct"][0]
        assert dct["ts"] == pytest.approx(0.0)
        assert dct["dur"] == pytest.approx(1000.0)  # 1 ms = 1000 us

    def test_metrics_embedded_in_other_data(self, tmp_path):
        m = MetricsRegistry()
        m.counter("mps.data_sent", pid=0).inc(4)
        out = tmp_path / "trace.json"
        export_chrome_trace(golden_tracer(), out, metrics=m)
        doc = json.loads(out.read_text())
        assert doc["otherData"]["metrics"]["mps.data_sent"] == {"pid=0": 4}


# --------------------------------------------------------------------- jsonl
class TestJsonl:
    def test_round_trips_every_record(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        export_jsonl(golden_tracer(), out)
        lines = [json.loads(line)
                 for line in out.read_text().splitlines() if line]
        assert lines == list(iter_records(golden_tracer()))

    def test_lines_are_key_sorted(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        export_jsonl(golden_tracer(), out)
        first = out.read_text().splitlines()[0]
        keys = list(json.loads(first))
        assert keys == sorted(keys)
