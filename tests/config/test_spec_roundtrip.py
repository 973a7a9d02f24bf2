"""Serialization round-trips: TOML/JSON stability, digests, fault plans."""

from pathlib import Path

import pytest

from repro.config import (
    AppSpec, ClusterSpec, FaultSpec, ObsSpec, ResilienceSpec, ScenarioSpec,
    SpecError, SupervisionSpec, dump_scenario, dumps_json, dumps_toml,
    load_scenario, loads_scenario,
)
from repro.faults import FaultPlan
from repro.faults.plan import BerSpike, LinkOutage, Partition

SCENARIOS_DIR = Path(__file__).resolve().parents[2] / "scenarios"

FULL = ScenarioSpec(
    name="full",
    description="every table populated",
    cluster=ClusterSpec(topology="atm-lan", n_hosts=3, seed=7,
                        options={"train_cells": 128}),
    mode="hsm",
    flow="rate",
    flow_kwargs={"rate_bytes_s": 2e6, "bucket_bytes": 32768},
    error="ack",
    error_kwargs={"timeout_s": 0.05},
    barriers={0: 3, 7: 2},
    app=AppSpec("ring", {"rounds": 2, "nbytes": 4096}),
    faults=FaultSpec(events=(
        {"kind": "link-outage", "at": 0.01, "duration": 0.02, "host": 1},
        {"kind": "partition", "at": 0.05,
         "groups": [[0], [1, 2]]},
    )),
    obs=ObsSpec(trace=True, chrome_trace="out.json"),
)


def test_toml_roundtrip_identity():
    text = dumps_toml(FULL.to_dict())
    again = loads_scenario(text, format="toml")
    assert again == FULL
    # and the re-serialization is byte-stable
    assert dumps_toml(again.to_dict()) == text


def test_json_roundtrip_identity():
    text = dumps_json(FULL.to_dict())
    assert loads_scenario(text, format="json") == FULL


def test_digest_is_content_addressed():
    assert FULL.digest() == FULL.replace().digest()
    assert FULL.digest() != FULL.replace(name="other").digest()
    assert len(FULL.digest()) == 12


def test_canonical_form_prunes_defaults():
    minimal = ScenarioSpec(name="min")
    doc = minimal.to_dict()
    assert doc == {"name": "min"}
    # explicitly writing a default is the same spec, same digest
    verbose = ScenarioSpec(name="min", mode="p4",
                           cluster=ClusterSpec(topology="ethernet"),
                           obs=ObsSpec(metrics=True))
    assert verbose == minimal
    assert verbose.digest() == minimal.digest()


def test_sorted_tables_write_in_canonical_order():
    """The text the per-table writers produced (captured before one
    writer replaced them): barrier ids sorted by key,
    ``[runtime.supervision]`` and ``[resilience]`` keys by name, and
    ``enabled`` written even at its default."""
    spec = ScenarioSpec(
        name="x", barriers={10: 2, 2: 3}, shards=2,
        supervision=SupervisionSpec(
            worker_grace_s=2.0, liveness_poll_s=0.01, max_retries=2,
            policy="raise"),
        resilience=ResilienceSpec(suspect_after_s=0.08, probe_successes=3,
                                  heartbeat_interval_s=0.01))
    assert dumps_toml(spec) == (
        'name = "x"\n\n[runtime]\nkernel = "sharded"\nshards = 2\n\n'
        '[runtime.barriers]\n2 = 3\n10 = 2\n\n'
        '[runtime.supervision]\nliveness_poll_s = 0.01\nmax_retries = 2\n'
        'policy = "raise"\nworker_grace_s = 2.0\n\n'
        '[resilience]\nenabled = true\nheartbeat_interval_s = 0.01\n'
        'probe_successes = 3\nsuspect_after_s = 0.08\n')


def test_nested_tables_accept_plain_mappings():
    """Python callers can write the nested tables inline as dicts."""
    spec = ScenarioSpec(
        name="inline",
        cluster={"topology": "atm-lan", "n_hosts": 3},
        app={"driver": "ring", "params": {"rounds": 1}},
        faults={"random": {"seed": 1, "n_hosts": 3}},
        obs={"trace": True},
    )
    assert spec == ScenarioSpec(
        name="inline",
        cluster=ClusterSpec(topology="atm-lan", n_hosts=3),
        app=AppSpec("ring", {"rounds": 1}),
        faults=FaultSpec(random={"seed": 1, "n_hosts": 3}),
        obs=ObsSpec(trace=True),
    )
    with pytest.raises(SpecError):
        ScenarioSpec(name="bad", cluster="ethernet")


def test_dump_load_file_roundtrip(tmp_path):
    for suffix in (".toml", ".json"):
        path = tmp_path / f"spec{suffix}"
        dump_scenario(FULL, path)
        assert load_scenario(path) == FULL


def test_unknown_suffix_rejected(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text("name = 'x'\n")
    with pytest.raises(SpecError):
        load_scenario(path)


def test_fault_spec_plan_roundtrip():
    plan = FaultPlan((
        LinkOutage(0.01, 0.02, host=1),
        BerSpike(0.02, 0.01, host=0, ber=1e-6),
        Partition(0.05, groups=((0,), (1, 2))),
    ))
    spec = FaultSpec.from_plan(plan)
    rebuilt = spec.to_plan()
    assert rebuilt.events == plan.events
    # and the declarative form survives TOML
    scenario = ScenarioSpec(name="faulty", faults=spec)
    again = loads_scenario(dumps_toml(scenario.to_dict()), format="toml")
    assert again.faults.to_plan().events == plan.events


def test_random_fault_spec_materializes_seeded_plan():
    spec = FaultSpec(random={"seed": 202, "n_hosts": 3, "t_max": 0.05,
                             "n_events": 3})
    assert spec.to_plan().events == FaultPlan.random(
        202, n_hosts=3, t_max=0.05, n_events=3).events


@pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("*.toml")),
                         ids=lambda p: p.stem)
def test_checked_in_scenarios_load_and_roundtrip(path):
    spec = load_scenario(path)
    assert spec.name
    text = dumps_toml(spec.to_dict())
    assert loads_scenario(text, format="toml") == spec


def test_checked_in_scenarios_exist():
    assert len(sorted(SCENARIOS_DIR.glob("*.toml"))) >= 5
