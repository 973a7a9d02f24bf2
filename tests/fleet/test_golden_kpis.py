"""The golden-KPI wall: fresh fleets vs the committed baselines.

``KPIS_scenarios.json``, ``KPIS_small-sweep.json`` and
``KPIS_collectives.json`` at the repo root are the behavioral contract
for every checked-in scenario and matrix cell: a fresh fleet reproduces
each KPI exactly — counts, digests, makespans and quantiles alike.
Regenerate deliberately, after an intended behavior change, with one
call per key of :data:`FLEETS`::

    PYTHONPATH=src python -m repro.run --fleet SOURCE --jobs 4 --write

The perturbation test drives the other edge: one ulp of makespan drift
in one scenario must fail the check and name the offending KPI.
"""

import copy
import math
from pathlib import Path

import pytest

from repro.config.fleet import load_fleet
from repro.fleet import diff_kpis, load_kpi_doc, run_fleet

REPO = Path(__file__).resolve().parents[2]

FLEETS = {
    "scenarios": "KPIS_scenarios.json",
    "scenarios/matrix/small_sweep.toml": "KPIS_small-sweep.json",
    "scenarios/matrix/collectives.toml": "KPIS_collectives.json",
}


@pytest.fixture(scope="module")
def fresh_docs():
    """One fleet execution per module, shared by the tests below."""
    return {source: run_fleet(load_fleet(REPO / source), jobs=2).kpi_doc()
            for source in FLEETS}


@pytest.mark.parametrize("source", sorted(FLEETS))
def test_fleet_matches_committed_golden(source, fresh_docs):
    """Same platform, same seeds: a fresh run reproduces every committed
    KPI bit for bit."""
    baseline = load_kpi_doc(REPO / FLEETS[source])
    failures = diff_kpis(baseline, fresh_docs[source])
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("source", sorted(FLEETS))
def test_golden_rows_are_exact_not_just_within_tolerance(source,
                                                         fresh_docs):
    """Beyond the per-KPI diff, the whole fresh document — schema, run
    names and every field — equals the committed one."""
    baseline = load_kpi_doc(REPO / FLEETS[source])
    assert fresh_docs[source] == baseline


def test_perturbed_makespan_fails_naming_the_kpi(fresh_docs):
    """One ulp of makespan drift in one scenario must be caught and
    attributed to run + KPI."""
    baseline = load_kpi_doc(REPO / FLEETS["scenarios"])
    perturbed = copy.deepcopy(fresh_docs["scenarios"])
    row = perturbed["rows"]["quickstart"]
    row["makespan_s"] = math.nextafter(row["makespan_s"], math.inf)
    failures = diff_kpis(baseline, perturbed)
    assert failures
    # ...and only that KPI of that run is implicated
    assert all(f.startswith("quickstart: makespan_s:") for f in failures)
