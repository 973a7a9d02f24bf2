"""Smoke test of the benchmark harness: every workload at ~1/20 size,
one timed pass, one traced pass.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Lives outside ``testpaths = ["tests"]``, so the tier-1 suite does not
pay for it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(script, *args):
    return subprocess.run([sys.executable, str(HERE / script), *args],
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = _run("run.py", "--quick", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return out, proc.stdout


@pytest.fixture(scope="module")
def results(quick_set):
    return json.loads((quick_set[0] / "results.json").read_text())


def test_all_workloads_ran_and_said_how_long(quick_set, results):
    assert list(results["workloads"]) == WORKLOADS
    assert results["meta"]["quick"] and results["meta"]["elapsed_s"] > 0
    assert f"set of {len(WORKLOADS)} workload(s)" in quick_set[1]


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_named_metric_is_present_with_its_unit(results, name):
    res = results["workloads"][name]
    for kind in ("end_to_end", "per_layer"):
        got = res[kind]
        assert list(got) == [m["name"] for m in BENCH[kind]]
        for m in BENCH[kind]:
            assert got[m["name"]]["unit"] == m["unit"], m["name"]
    for m in BENCH["end_to_end"]:
        assert res["end_to_end"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_checked_and_none_failed(results, name):
    checks = results["workloads"][name]["checks"]
    assert checks["ops_attempted"] >= 1
    assert checks["fail_share"] == 0
    assert checks["sim_drift"] == 0, checks["drifted"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_shares_sum_to_one(quick_set, results, name):
    layer = results["workloads"][name]["per_layer"]
    shares = [v["value"] for k, v in layer.items()
              if k.endswith(".self_share")]
    assert "other.self_share" in layer
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert (quick_set[0] / f"{name}.prof").stat().st_size > 0


def test_sharded_pair_agrees_and_did_not_fall_back(results):
    single = results["workloads"]["a2a_wan"]["observed"]
    sharded = results["workloads"]["a2a_wan_s2"]
    assert sharded["observed"] == single
    assert sharded["per_layer"]["sim.sharded.fallbacks"]["value"] == 0
    assert sharded["per_layer"]["sim.sharded.speedup_x"]["value"] > 0


def test_unknown_workload_is_refused():
    proc = _run("run.py", "--quick", "--workload", "no_such_workload")
    assert proc.returncode != 0
    assert "no_such_workload" in proc.stderr


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_driver_style_run_ends_with_one_json_line(trace, kind):
    proc = _run("run.py", "--quick", "--workload", "coll_256", "--seed",
                "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[kind]}


def test_a_set_compared_with_itself_is_all_same(quick_set):
    path = str(quick_set[0] / "results.json")
    proc = _run("compare.py", path, path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 worse, 0 unresolved" in proc.stdout
