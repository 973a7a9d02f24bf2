"""The construction bench + the committed BENCH_construction.json.

Pins the acceptance bars of O(hosts) construction: the committed
1024-host wan-ring ladder must show the full build under
:data:`~repro.bench.construction.FULL_WALL_CEILING_S` and
:data:`~repro.bench.construction.FULL_RSS_CEILING_BYTES`, and every
shard of eight building for less than the full build — and the check
machinery CI relies on must actually flag violations.  The harness
itself is exercised at toy scale.
"""

import json
from pathlib import Path

import pytest

from repro.bench.construction import (CONSTRUCTION_BENCH_FILE,
                                      FULL_RSS_CEILING_BYTES,
                                      FULL_WALL_CEILING_S, SCENARIO,
                                      check_construction,
                                      render_construction,
                                      run_construction_bench)

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_baseline() -> dict:
    path = REPO_ROOT / CONSTRUCTION_BENCH_FILE
    assert path.exists(), (
        f"missing {CONSTRUCTION_BENCH_FILE}; run "
        "PYTHONPATH=src python -m repro.bench --construction")
    return json.loads(path.read_text())


class TestCommittedLadder:
    def test_scenario_and_schema(self):
        doc = load_baseline()
        assert doc["schema"] == 2
        assert doc["scenario"] == SCENARIO
        assert doc["full"]["n_hosts"] == 1024
        assert len(doc["per_shard"]) == SCENARIO["shards"]

    def test_memory_proportional_ceiling_holds(self):
        """The acceptance bars: the full 1024-host build under 10 s and
        1 GB, and every shard of 8 cheaper than the full build."""
        doc = load_baseline()
        full = doc["full"]
        assert full["wall_s"] < FULL_WALL_CEILING_S
        assert full["rss_peak_bytes"] < FULL_RSS_CEILING_BYTES
        for row in doc["per_shard"]:
            assert row["wall_s"] < full["wall_s"]
            assert row["rss_peak_bytes"] < full["rss_peak_bytes"]
        assert (doc["per_shard"][0]["traced_peak_bytes"]
                < full["traced_peak_bytes"])

    def test_every_shard_row_has_rss_and_wall(self):
        doc = load_baseline()
        for row in doc["per_shard"]:
            assert row["wall_s"] > 0
            assert row["rss_peak_bytes"] > 0
            assert row["owned_switches"], f"shard {row['shard']} owns nothing"

    def test_meta_stamps_host_context(self):
        doc = load_baseline()
        assert doc["meta"]["cpu_count"] >= 1
        assert doc["meta"]["sharded_transport"] in ("process", "thread")

    def test_baseline_passes_self_check(self):
        doc = load_baseline()
        assert check_construction(doc, fresh=doc) == []


class TestCheckMachinery:
    BASE = {
        "schema": 2,
        "scenario": dict(SCENARIO),
        "full": {"traced_peak_bytes": 1000, "rss_peak_bytes": 2000,
                 "wall_s": 1.0, "n_hosts": 1024},
        "per_shard": [{"shard": 0, "traced_peak_bytes": 200,
                       "rss_peak_bytes": 500, "wall_s": 0.2,
                       "owned_switches": ["sw-r0"]}],
    }

    @staticmethod
    def _fresh(**full_overrides):
        base = TestCheckMachinery.BASE
        return {"full": dict(base["full"], **full_overrides),
                "per_shard": base["per_shard"]}

    def test_fresh_peak_within_tolerance_passes(self):
        fresh = self._fresh(wall_s=FULL_WALL_CEILING_S * 0.9,
                            rss_peak_bytes=FULL_RSS_CEILING_BYTES - 1)
        assert check_construction(self.BASE, fresh=fresh) == []

    def test_blown_ceiling_fails(self):
        fresh = self._fresh(rss_peak_bytes=FULL_RSS_CEILING_BYTES * 2)
        failures = check_construction(self.BASE, fresh=fresh)
        assert len(failures) == 1 and \
            "fresh full build rss_peak_bytes" in failures[0]
        fresh = self._fresh(wall_s=FULL_WALL_CEILING_S + 1)
        failures = check_construction(self.BASE, fresh=fresh)
        assert len(failures) == 1 and "fresh full build wall_s" in failures[0]

    def test_committed_build_over_target_fails(self):
        doc = dict(self.BASE, full=dict(self.BASE["full"], wall_s=132.7))
        failures = check_construction(doc, fresh=self.BASE)
        assert any("committed full build wall_s = 132.7 misses" in f
                   for f in failures)

    def test_shard_not_below_full_build_fails(self):
        row = dict(self.BASE["per_shard"][0], rss_peak_bytes=2000)
        doc = dict(self.BASE, per_shard=[row])
        failures = check_construction(doc, fresh=self.BASE)
        assert any("no longer proportional" in f for f in failures)


class TestHarnessAtToyScale:
    def test_measures_full_and_every_shard(self):
        doc = run_construction_bench(
            {"n_sites": 3, "hosts_per_site": 2, "shards": 3})
        assert doc["full"]["n_hosts"] == 6
        assert [r["shard"] for r in doc["per_shard"]] == [0, 1, 2]
        assert doc["full"]["traced_peak_bytes"] > 0
        assert doc["per_shard"][0]["traced_peak_bytes"] > 0
        # at toy scale fixed costs dominate — the shard-below-full bar
        # only means something at the committed 1024-host scenario
        assert "wan-ring 3x2" in render_construction(doc)


class TestPerfMeta:
    def test_run_suite_stamps_host_context(self):
        from repro.bench.perf import run_suite
        doc = run_suite({"noop": lambda: {"ok": 1}}, repeats=1)
        assert doc["meta"]["cpu_count"] >= 1
        assert doc["meta"]["sharded_transport"] in ("process", "thread")

    @pytest.mark.parametrize("fname", ["BENCH_kernel.json",
                                       "BENCH_apps.json"])
    def test_committed_baselines_carry_meta(self, fname):
        doc = json.loads((REPO_ROOT / fname).read_text())
        assert doc["meta"]["cpu_count"] >= 1
        assert doc["meta"]["sharded_transport"] in ("process", "thread")
