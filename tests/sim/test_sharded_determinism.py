"""The cross-shard determinism wall.

The sharded kernel's contract is absolute: splitting a scenario across
worker kernels must not move a single simulated timestamp, payload,
metric counter or trace span relative to the default single kernel.
Every test here holds ``shards > 1`` runs to *byte identity* against
``shards = 1`` — the same bar the perf-lock goldens hold optimizations
to — plus a canary that a deliberately perturbed run is caught and
named by the same comparison (``tests.walls.harness.assert_same``).

Two comparison details matter:

* the single kernel only closes its tracer at export time, while shard
  workers close theirs before shipping the trace home — so the single
  result's tracer gets an explicit ``close_all()`` before comparing;
* the kernel's own odometers (``sim.events_processed`` /
  ``sim.processes_started``) are implementation meters, not behaviour,
  and are stripped by ``behavior_snapshot`` exactly as the perf lock
  does — a sharded run legitimately burns different Python-level event
  counts to realize the identical model.
"""

import json
from pathlib import Path

import pytest

from repro.config import load_scenario
from repro.config.build import run_scenario
from repro.config.spec import AppSpec, ClusterSpec, ObsSpec, ScenarioSpec
from repro.core.mps import core
from repro.obs.export import to_chrome_events
from repro.sim.sharded import plan_shards
from tests.walls.harness import assert_same, behavior_snapshot

REPO = Path(__file__).resolve().parents[2]


def _wan_spec(shards=1, **param_overrides):
    """``scenarios/nynet_wan.toml`` with tracing on and ``shards`` set."""
    spec = load_scenario(str(REPO / "scenarios" / "nynet_wan.toml"))
    spec = spec.replace(obs=ObsSpec(trace=True, metrics=True),
                        shards=shards)
    if param_overrides:
        spec = spec.replace(app=AppSpec(
            driver=spec.app.driver,
            params={**dict(spec.app.params), **param_overrides}))
    return spec


def _ring_spec(shards=1):
    """A 4-site WAN ring running the dense all-to-all workload."""
    return ScenarioSpec(
        name="wall-wan-ring",
        cluster=ClusterSpec(topology="wan-ring", seed=11,
                            options={"n_sites": 4, "hosts_per_site": 2}),
        mode="hsm",
        app=AppSpec(driver="alltoall",
                    params={"rounds": 2, "nbytes": 1024}),
        obs=ObsSpec(trace=True, metrics=True),
        shards=shards,
    )


def _doc(result) -> dict:
    """Everything behavioural a run produced, as one JSON document."""
    result.cluster.tracer.close_all()
    return {"value": result.value,
            "metrics": behavior_snapshot(result.cluster.metrics),
            "chrome": to_chrome_events(result.cluster.tracer)}


def _doc_bytes(result) -> bytes:
    return json.dumps(_doc(result), sort_keys=True).encode()


# ------------------------------------------------------------------ the wall
def test_sharded_double_run_is_byte_identical():
    """Same seed, same shards => byte-identical documents, run to run."""
    first = _doc_bytes(run_scenario(_wan_spec(shards=2)))
    second = _doc_bytes(run_scenario(_wan_spec(shards=2)))
    assert first == second


@pytest.mark.parametrize("shards", [2, 4])
def test_nynet_shards_match_single_kernel(shards):
    """The checked-in WAN scenario: value, metric snapshot and the full
    Chrome-trace event list survive sharding untouched (shards=4 clamps
    to the topology's two site groups — clamping must not drift
    either)."""
    single = _doc(run_scenario(_wan_spec(shards=1)))
    sharded = _doc(run_scenario(_wan_spec(shards=shards)))
    assert_same(sharded, single, coarse=("value", "metrics"),
                where=f"shards={shards}")


def test_wan_ring_four_shards_match_single_kernel():
    """Four genuinely parallel shards (one per ring site) under the
    all-to-all load — the maximally concurrent case, byte-identical."""
    single = _doc(run_scenario(_ring_spec(shards=1)))
    sharded = _doc(run_scenario(_ring_spec(shards=4)))
    assert_same(sharded, single, coarse=("value", "metrics"),
                where="shards=4")
    assert single["chrome"], "trace comparison must not be vacuous"


def test_sharded_report_matches_single_kernel():
    """``ScenarioResult.report()`` used to raise ``AttributeError`` on
    any sharded result (the merged view had no ``medium``).  A sharded
    and a single-kernel run of one spec return the same report, up to
    the provenance stamp (``shards`` is part of the spec digest)."""
    single = run_scenario(_ring_spec(shards=1)).report()
    sharded = run_scenario(_ring_spec(shards=2)).report()
    assert single.pop("scenario")["name"] == sharded.pop("scenario")["name"]
    assert sharded == single
    assert sharded["medium"] == "wan-ring"
    assert sharded["ncs"]["pid0"]["data_sent"] > 0
    assert list(sharded["atm_switches"]) == list(single["atm_switches"])


def test_a_raise_in_a_delivery_is_raised_on_both_kernels(monkeypatch):
    """A consumer that raises in the adapter's delivery surfaces as
    itself on both kernels: a shard worker's ``rt.run()`` ends in the
    single kernel's checks.  (The worker used to skip the delivery
    check and report ``deadlock: schedulers never finished``.)"""
    plain = core.NcsMps._on_arrival

    def broken(self, msg):
        if self.pid == 0:
            raise RuntimeError("probe: the arrival broke")
        plain(self, msg)
    monkeypatch.setattr(core.NcsMps, "_on_arrival", broken)
    for shards in (1, 4):
        with pytest.raises(RuntimeError, match="the arrival broke"):
            run_scenario(_ring_spec(shards=shards))


def test_perturbed_run_is_detected_and_named():
    """The wall actually has teeth: nudge one app parameter by one byte
    and the comparison must flag it and name the part that moved."""
    baseline = _doc(run_scenario(_wan_spec(shards=1)))
    perturbed = _doc(run_scenario(_wan_spec(shards=2, nbytes=2049)))
    with pytest.raises(AssertionError) as caught:
        assert_same(perturbed, baseline,
                    coarse=("value", "metrics", "chrome"))
    assert str(caught.value).startswith(("value", "metrics", "chrome"))


# ------------------------------------------------------------ plan structure
def test_nynet_plan_cuts_the_ds3_bottleneck():
    """On the Fig 1 WAN the shardable seam is exactly the DS-3: the two
    site groups land in different shards and both DS-3 directions are
    cut channels, giving the 2 ms propagation delay as lookahead."""
    from repro.config.build import build_cluster
    spec = _wan_spec()
    cluster = build_cluster(spec.cluster, spec.obs)
    plan = plan_shards(cluster, 2)
    assert plan.n_shards == 2
    assert plan.pid_shard[0] == plan.pid_shard[1] != plan.pid_shard[2]
    assert plan.lookahead == pytest.approx(2e-3)
    assert sorted(plan.cut_dest) == ["bb-upstate--bb-downstate<",
                                     "bb-upstate--bb-downstate>"]


def test_shards_field_selects_the_sharded_kernel():
    """``shards > 1`` auto-upgrades the kernel; ``shards = 1`` keeps
    the default single kernel (and its perf-locked code path)."""
    spec = _wan_spec()
    assert spec.kernel == "single"
    assert spec.replace(shards=2).kernel == "sharded"
