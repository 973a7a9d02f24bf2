"""Spec-built runs are bit-identical to hand-wired ones.

Each checked-in scenario file that mirrors a perf-lock scenario is run
through ``repro.config.run_scenario`` and held to the *same golden* the
hand-wired construction is locked to, read through its wall — every
simulated timestamp, payload, metric counter and trace signature.
Moving construction behind the declarative layer must not move a
single field.
"""

from pathlib import Path

import pytest

from repro.config import load_scenario, run_scenario
from repro.faults import trace_signature
from tests.walls.harness import assert_same, behavior_snapshot, wall

SCENARIOS_DIR = Path(__file__).resolve().parents[2] / "scenarios"


def test_quickstart_spec_matches_pingpong_golden():
    spec = load_scenario(SCENARIOS_DIR / "quickstart.toml")
    result = run_scenario(spec)
    snapshot = {
        "makespan_s": round(result.value["makespan_s"], 9),
        "replies": result.value["replies"],
        "metrics": behavior_snapshot(result.cluster.metrics),
    }
    assert_same(snapshot, wall("pingpong_ethernet").parent(),
                coarse=("makespan_s",))


@pytest.mark.parametrize("toml_name, golden_name", [
    ("ring_atm_hsm.toml", "ring_atm_hsm"),
    ("chaos_loss.toml", "chaos_loss"),
])
def test_ring_specs_match_goldens(toml_name, golden_name):
    spec = load_scenario(SCENARIOS_DIR / toml_name)
    result = run_scenario(spec)
    snapshot = {
        "makespan_s": round(result.value["makespan_s"], 9),
        "received": result.value["received"],
        "trace_signature": trace_signature(result.cluster.tracer),
        "metrics": behavior_snapshot(result.cluster.metrics),
    }
    assert_same(snapshot, wall(golden_name).parent(), coarse=("makespan_s",),
                where=toml_name)


def test_spec_runs_are_reproducible():
    """Two runs of the same spec are bit-identical to each other."""
    spec = load_scenario(SCENARIOS_DIR / "chaos_loss.toml")
    a, b = run_scenario(spec), run_scenario(spec)
    assert a.value == b.value
    assert behavior_snapshot(a.cluster.metrics) == \
        behavior_snapshot(b.cluster.metrics)
    assert trace_signature(a.cluster.tracer) == \
        trace_signature(b.cluster.tracer)
