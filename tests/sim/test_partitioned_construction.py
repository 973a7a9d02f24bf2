"""How the sharded kernel builds and splits a run.

The coordinator builds the whole cluster once, plans on it and forks
every worker off it; a worker starts only the pids its shard owns.  The
determinism and chaos walls (test_sharded_determinism,
tests/faults/test_sharded_chaos) lock the bytes; this file locks the
*mechanism*: that the plan is stamped, that a worker leaves the other
shards' pids idle, that the cost model shapes the plan, and that
degraded runs — a trivial plan, a driver whose value no merge can
rebuild — are loud and still return the single kernel's answer.
"""

import pytest

from repro.config import ensure_components
from repro.config.spec import ScenarioSpec
from repro.net.nynet import build_wan_ring
from repro.registry import KERNELS
from repro.sim.sharded import ShardFallbackWarning, plan_shards
from repro.sim.sharded.plan import pid_weights

ensure_components()

WAN_RING_DOC = {
    "name": "wr-partial",
    "cluster": {"topology": "wan-ring", "seed": 7,
                "options": {"n_sites": 4, "hosts_per_site": 2}},
    "runtime": {"mode": "hsm", "shards": 4, "kernel": "sharded"},
    "app": {"driver": "alltoall", "params": {"nbytes": 512}},
    "obs": {"metrics": True},
}


def _sharded(doc: dict):
    spec = ScenarioSpec.from_dict(doc)
    return KERNELS.get("sharded")(spec)


def test_plan_stamps_on_wan_ring():
    """A wan-ring run stamps its plan: shard count, lookahead and
    per-shard loads."""
    result = _sharded(WAN_RING_DOC)
    snap = result.cluster.metrics.snapshot()
    assert snap["kernel.shards"] == {"": 4}
    assert snap["kernel.lookahead_s"][""] == pytest.approx(0.002)
    loads = snap["kernel.shard_load"]
    assert set(loads) == {f"shard={s}" for s in range(4)}
    assert all(w == pytest.approx(2.0) for w in loads.values())


def _worker_payloads(monkeypatch, doc: dict):
    """Run ``doc`` on the sharded kernel; return its plan and the
    payload each worker sent home."""
    import repro.sim.sharded as sharded
    seen = {}
    plain = sharded.merged_result

    def capture(run, plan, payloads, *args, **kwargs):
        seen.update(plan=plan, payloads=payloads)
        return plain(run, plan, payloads, *args, **kwargs)
    monkeypatch.setattr(sharded, "merged_result", capture)
    _sharded(doc)
    return seen["plan"], seen["payloads"]


def test_foreign_pids_stay_idle_in_every_worker(monkeypatch):
    """Every worker holds the whole cluster but runs only its own pids:
    no context switch and no trace record of another shard's pid."""
    doc = {**WAN_RING_DOC,
           "cluster": {**WAN_RING_DOC["cluster"],
                       "options": {"n_sites": 2, "hosts_per_site": 2}},
           "runtime": {"mode": "hsm", "shards": 2, "kernel": "sharded"},
           "obs": {"metrics": True, "trace": True}}
    plan, payloads = _worker_payloads(monkeypatch, doc)
    assert len(payloads) == 2
    for shard, payload in enumerate(payloads):
        owned = set(plan.owned_pids(shard))
        foreign = set(range(4)) - owned
        assert owned and foreign
        switches = payload["metrics"].snapshot()["mts.context_switches"]
        assert all(switches[f"pid={p}"] > 0 for p in owned)
        assert all(switches.get(f"pid={p}", 0) == 0 for p in foreign)
        # every record is on a host's track (``host`` or ``host/thread``)
        timelines, events = payload["trace"]
        hosts = {entity.split("/", 1)[0] for entity in
                 [*timelines, *(ev[1] for ev in events)]}
        assert {plan.host_shard[h] for h in hosts} == {shard}


def test_cost_model_isolates_point_to_point_hotspot():
    """pingpong loads only pids 0/1: the cost model gives their site a
    shard of its own and packs the bystander sites together, instead of
    splitting them evenly."""
    spec = ScenarioSpec.from_dict({
        "name": "wr-pingpong",
        "cluster": {"topology": "wan-ring",
                    "options": {"n_sites": 4, "hosts_per_site": 2}},
        "app": {"driver": "pingpong"}})
    cluster = build_wan_ring(n_sites=4, hosts_per_site=2)
    weights = pid_weights(spec, cluster.n_hosts)
    assert weights[0] == 1.0 and weights[2] < 1.0
    plan = plan_shards(cluster, 2, pid_weights=weights)
    assert plan.n_shards == 2
    # the hot site (pids 0/1) sits alone; all three cold sites share
    assert {plan.pid_shard[0], plan.pid_shard[1]} == {0}
    assert {plan.pid_shard[p] for p in range(2, 8)} == {1}
    assert plan.shard_loads[0] == pytest.approx(2.0)


def test_trivial_plan_falls_back_loudly():
    """atm-dual shares an Ethernet LAN, so the plan collapses: the run
    must warn and count the degradation (satellite: shard fallback)."""
    doc = {
        "name": "dual-fallback",
        "cluster": {"topology": "atm-dual", "n_hosts": 2},
        "runtime": {"shards": 2, "kernel": "sharded"},
        "app": {"driver": "pingpong"},
        "obs": {"metrics": True},
    }
    spec = ScenarioSpec.from_dict(doc)
    with pytest.warns(ShardFallbackWarning, match="falls back to the "
                      "single kernel"):
        result = KERNELS.get("sharded")(spec)
    snap = result.cluster.metrics.snapshot()
    assert snap["kernel.shard_fallback"] == {"reason=trivial-plan": 1}


def _ring_doc(driver: str, params: dict, **runtime) -> dict:
    return {"name": f"wr-{driver}",
            "cluster": {"topology": "wan-ring",
                        "options": {"n_sites": 2, "hosts_per_site": 2}},
            "runtime": {"mode": "hsm", "shards": 2, **runtime},
            "app": {"driver": driver, "params": params},
            "obs": {"metrics": True}}


@pytest.mark.parametrize("driver,params,runtime", [
    ("collective", {}, {}),
    ("collective", {}, {"collectives": "nic"}),
    ("stream", {"frames": 5}, {}),
], ids=["collective", "collective-nic", "stream"])
def test_unmergeable_driver_falls_back_to_the_single_answer(
        driver, params, runtime):
    """``collective`` and ``stream`` fold cross-pid state into their
    value, so the sharded kernel once returned ``bcast_ok: False``, died
    pickling the NIC reduce op, or divided by zero in a worker.  It now
    runs them on the single kernel, loudly, before forking."""
    doc = _ring_doc(driver, params, **runtime)
    single = KERNELS.get("single")(ScenarioSpec.from_dict(doc))
    with pytest.warns(ShardFallbackWarning, match="unmergeable-driver"):
        result = _sharded(doc)
    assert result.value == single.value
    if driver == "collective":
        assert result.value["bcast_ok"] is True
    snap = result.cluster.metrics.snapshot()
    assert snap["kernel.shard_fallback"] == {"reason=unmergeable-driver": 1}


#: problems small enough to run fast, and split over a 5-site ring's
#: four nodes
TABLE_APP_PARAMS = {"matmul": {"n": 16}, "jpeg": {},
                    "fft": {"m": 16, "n_sets": 1}}


@pytest.mark.parametrize("driver", ["matmul-p4", "matmul-ncs", "jpeg-p4",
                                    "jpeg-ncs", "fft-p4", "fft-ncs"])
def test_a_table_driver_falls_back_to_the_single_answer(driver):
    """A Tables 1-3 app runs on the spec-built cluster, so a wan-ring
    the plan cuts in two reaches the sharded kernel; but a p4 program
    never calls ``rt.advance`` and an ``AppResult`` checks arrays that
    live in one process, so it runs on the single kernel, loudly."""
    doc = {"name": f"wr-{driver}",
           "cluster": {"topology": "wan-ring", "options": {"n_sites": 5}},
           "runtime": {"shards": 2},
           "app": {"driver": driver,
                   "params": TABLE_APP_PARAMS[driver.split("-")[0]]}}
    single = KERNELS.get("single")(ScenarioSpec.from_dict(doc))
    with pytest.warns(ShardFallbackWarning, match="unmergeable-driver"):
        result = _sharded(doc)
    assert result.value.correct and result.value.n_nodes == 4
    assert result.value.makespan_s == single.value.makespan_s
    snap = result.cluster.metrics.snapshot()
    assert snap["kernel.shard_fallback"] == {"reason=unmergeable-driver": 1}


def test_cli_rejects_nonpositive_shards(capsys):
    """--shards 0 dies immediately with the kernel options spelled out
    (satellite: CLI validation)."""
    from repro.run import main

    with pytest.raises(SystemExit) as exc:
        main(["--shards", "0", "nonexistent.toml"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "positive shard count" in err
    assert "single" in err and "sharded" in err
