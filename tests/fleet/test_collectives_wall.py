"""Determinism wall for the collectives matrix.

The checked-in ``KPIS_collectives.json`` baseline only means something
if same-seed collective runs cannot drift — including the NIC cells,
whose firmware timers and multicast replication add a whole new event
population to the simulation.  The 256-host cells are exercised by the
nightly fleet job; here the 16-host slice (both modes, both
strategies) must be byte-identical across two independent executions.
"""

import dataclasses
from pathlib import Path

from repro.config.fleet import FleetSpec, load_fleet
from repro.fleet import run_fleet, write_kpi_doc

REPO = Path(__file__).resolve().parents[2]


def _small_slice() -> FleetSpec:
    fleet = load_fleet(REPO / "scenarios/matrix/collectives.toml")
    runs = tuple((run_id, spec) for run_id, spec in fleet.runs
                 if spec.cluster.n_hosts == 16)
    return dataclasses.replace(fleet, runs=runs)


def test_collectives_slice_is_byte_identical(tmp_path):
    fleet = _small_slice()
    assert len(fleet.runs) == 4   # {nsm,hsm} x {host,nic}
    docs = []
    for tag in ("first", "second"):
        result = run_fleet(fleet, jobs=1)
        path = write_kpi_doc(result.kpi_doc(),
                             tmp_path / f"KPIS_{tag}.json")
        docs.append(path.read_bytes())
    assert docs[0] == docs[1]


def test_nic_beats_host_in_committed_baseline():
    """The acceptance gate of the offload work, held against the
    checked-in golden: at 64+ hosts the NIC cells must show fewer host
    events and a lower makespan than the matching host-tree cells."""
    import json
    rows = json.loads(
        (REPO / "KPIS_collectives.json").read_text())["rows"]
    for n in (64, 256):
        for mode in ("nsm", "hsm"):
            host = rows[f"n_hosts={n},mode={mode},collectives=host"]
            nic = rows[f"n_hosts={n},mode={mode},collectives=nic"]
            assert nic["host_events"] < host["host_events"] / 2, (n, mode)
            assert nic["makespan_s"] < host["makespan_s"], (n, mode)
            assert nic["collective_ops"] > 0
            assert nic["collective_lost"] == 0
