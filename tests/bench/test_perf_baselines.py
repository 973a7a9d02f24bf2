"""Smoke tests on the committed perf baselines (BENCH_*.json).

The CI perf job compares a fresh run against these files, so a stale or
malformed baseline silently disables regression detection.  These tests
pin the contract: both files parse, carry the current schema, cover
every scenario the harness knows about (and no phantom ones), and every
record has a plausible wall time plus deterministic sim fields.
"""

import json
from pathlib import Path

import pytest

from repro.bench.perf import (APP_BENCHMARKS, APPS_BENCH_FILE,
                              KERNEL_BENCH_FILE, KERNEL_BENCHMARKS,
                              SCHEMA_VERSION, check_regression)

REPO_ROOT = Path(__file__).resolve().parents[2]

BASELINES = [
    (KERNEL_BENCH_FILE, KERNEL_BENCHMARKS),
    (APPS_BENCH_FILE, APP_BENCHMARKS),
]


def load(fname):
    path = REPO_ROOT / fname
    assert path.exists(), (
        f"missing {fname}; run PYTHONPATH=src python -m repro.bench --perf")
    return json.loads(path.read_text())


class TestPerfBaselines:
    @pytest.mark.parametrize("fname,suite", BASELINES)
    def test_baseline_parses_with_current_schema(self, fname, suite):
        doc = load(fname)
        assert doc["schema"] == SCHEMA_VERSION
        assert isinstance(doc["benchmarks"], dict)

    @pytest.mark.parametrize("fname,suite", BASELINES)
    def test_baseline_covers_every_harness_scenario(self, fname, suite):
        doc = load(fname)
        assert set(doc["benchmarks"]) == set(suite), (
            f"{fname} out of sync with the harness; regenerate it")

    @pytest.mark.parametrize("fname,suite", BASELINES)
    def test_records_have_wall_and_sim_fields(self, fname, suite):
        for name, entry in load(fname)["benchmarks"].items():
            assert entry["wall_s"] > 0, f"{name}: non-positive wall time"
            assert entry["wall_s"] < 60, f"{name}: implausible wall time"
            assert isinstance(entry["sim"], dict) and entry["sim"], (
                f"{name}: missing deterministic sim fields")

    def test_baseline_passes_self_check(self):
        """A baseline compared against itself is trivially regression-free
        (guards check_regression's schema/field handling)."""
        for fname, _ in BASELINES:
            doc = load(fname)
            failures = check_regression(doc, doc, tolerance=0.25)
            assert failures == []

    def test_check_gates_on_behaviour_not_on_the_odometers(self):
        """An event count that moved is not drift (the per-message
        ceilings in ``tests/perf_lock`` gate it); a makespan is."""
        import copy
        doc = load(KERNEL_BENCH_FILE)
        row = "kernel.sharded_events.s1"
        fewer = copy.deepcopy(doc)
        fewer["benchmarks"][row]["sim"]["events_processed"] -= 5000
        assert check_regression(fewer, doc) == []
        moved = copy.deepcopy(doc)
        moved["benchmarks"][row]["sim"]["makespan_s"] += 1e-9
        (failure,) = check_regression(moved, doc)
        assert row in failure and "makespan_s" in failure
        assert "events_processed" not in failure
