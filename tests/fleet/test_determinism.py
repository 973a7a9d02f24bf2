"""The fleet determinism wall.

Two independent executions of the full checked-in fleet — and a
process-pool execution against an inline one — must produce
byte-identical ``KPIS_*.json`` documents.  This is the property the
whole regression scheme stands on: if same-seed fleets could drift, a
KPI diff would mean nothing.
"""

import json
from pathlib import Path

import pytest

from repro.config.fleet import FleetSpec, load_fleet
from repro.fleet import run_fleet, write_kpi_doc

REPO = Path(__file__).resolve().parents[2]


def _kpi_bytes(fleet, jobs, tmp_path, tag):
    result = run_fleet(fleet, jobs=jobs)
    path = write_kpi_doc(result.kpi_doc(), tmp_path / f"KPIS_{tag}.json")
    return path.read_bytes()


def _resharded(fleet, shards):
    """The same fleet with every run forced onto ``shards`` kernels."""
    return FleetSpec(name=fleet.name,
                     runs=tuple((run_id, spec.replace(shards=shards))
                                for run_id, spec in fleet.runs))


def _behavior_rows(doc):
    """KPI rows minus the spec digest (which legitimately stamps the
    shard count: a resharded run is a distinct experiment *identity*
    with identical *behavior*)."""
    return {run_id: {k: v for k, v in row.items() if k != "digest"}
            for run_id, row in doc["rows"].items()}


@pytest.mark.parametrize("source", ["scenarios",
                                    "scenarios/matrix/small_sweep.toml"])
def test_double_run_is_byte_identical(source, tmp_path):
    fleet = load_fleet(REPO / source)
    first = _kpi_bytes(fleet, 1, tmp_path, "first")
    second = _kpi_bytes(fleet, 1, tmp_path, "second")
    assert first == second


def test_pool_matches_inline(tmp_path):
    """jobs=1 (inline, no pool) and jobs=4 (process pool) agree to the
    byte — each run is a pure function of its spec document."""
    fleet = load_fleet(REPO / "scenarios")
    inline = _kpi_bytes(fleet, 1, tmp_path, "inline")
    pooled = _kpi_bytes(fleet, 4, tmp_path, "pooled")
    assert inline == pooled


@pytest.mark.parametrize("shards", [2, 4])
def test_kernels_axis_is_behavior_invariant(shards, tmp_path):
    """The whole checked-in fleet, re-run on the sharded kernel: every
    KPI row (makespans, message counts, retransmissions, resilience
    counters, latency quantiles) is identical to the single kernel's.
    Scenarios whose topology has no shardable seam (single-switch LANs)
    exercise the clamp-to-single path and must be unaffected too."""
    fleet = load_fleet(REPO / "scenarios")
    single = run_fleet(fleet, jobs=1).kpi_doc()
    sharded = run_fleet(_resharded(fleet, shards), jobs=1).kpi_doc()
    assert _behavior_rows(single) == _behavior_rows(sharded)


def test_sharded_fleet_double_run_is_byte_identical(tmp_path):
    """The byte-identity wall holds on the sharded kernel itself."""
    fleet = _resharded(load_fleet(REPO / "scenarios"), 2)
    first = _kpi_bytes(fleet, 1, tmp_path, "sharded-first")
    second = _kpi_bytes(fleet, 1, tmp_path, "sharded-second")
    assert first == second


def test_kpi_document_has_no_timestamps(tmp_path):
    """Nothing time- or machine-dependent may leak into the document."""
    fleet = load_fleet(REPO / "scenarios/matrix/small_sweep.toml")
    doc = run_fleet(fleet, jobs=1).kpi_doc()
    text = json.dumps(doc)
    assert "time\"" not in text and "timestamp" not in text
    assert doc["schema"] == 2
    assert set(doc) == {"schema", "fleet", "rows"}
