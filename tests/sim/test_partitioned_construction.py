"""Blueprint-partitioned construction under the sharded kernel.

Every sharded run materializes only its own shard per worker (ghost
rows + boundary stubs for the rest) and still produces results
byte-identical to the single kernel — the determinism and chaos walls
(test_sharded_determinism, tests/faults/test_sharded_chaos) lock the
bytes, this file locks the *mechanism*: that every worker of a run with
faults, resilience and NIC collectives builds ghost rows, that failure
detectors and collective engines exist only for owned pids, that ghost
nodes mirror tids, that a fault aimed at a ghost touches nothing but
its ``frozen`` flag, that the cost model shapes the plan, and that
degraded runs are loud.
"""

import pytest

from repro.config import ensure_components
from repro.config.spec import ScenarioSpec
from repro.core.api import NcsRuntime
from repro.faults import FaultInjector, FaultPlan
from repro.faults.plan import BerSpike, HostCrash, LinkOutage, SwitchPortStall
from repro.net.blueprint import blueprint_wan_ring, materialize
from repro.registry import KERNELS
from repro.resilience import ClusterResilience
from repro.sim.sharded import ShardFallbackWarning, plan_shards
from repro.sim.sharded.plan import pid_weights
from repro.sim.sharded.worker import ShardWorker

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


def _ghost_pids(cluster) -> set:
    return {pid for pid, stack in enumerate(cluster.stacks)
            if getattr(stack, "ghost", False)}


def test_every_worker_builds_only_its_shard():
    """Faults, resilience and NIC collectives no longer make a worker
    build the whole cluster: each holds ghost rows for the pids it does
    not own, and detectors and collective engines for those it does."""
    doc = {**WAN_RING_DOC, "resilience": {},
           "runtime": {"mode": "hsm", "shards": 2, "error": "ack",
                       "collectives": "nic"},
           "faults": {"events": [{"kind": "link-outage", "at": 0.004,
                                  "duration": 0.002, "host": 3}]}}
    spec = ScenarioSpec.from_dict(doc)
    workers = [ShardWorker(spec, shard) for shard in range(2)]
    owned = [set(w.plan.owned_pids(w.shard_id)) for w in workers]
    assert [len(pids) for pids in owned] == [4, 4]
    for pids, w in zip(owned, workers):
        assert _ghost_pids(w.cluster) == set(range(8)) - pids
        assert set(w.rt.resilience.detectors) == pids
        assert set(w.rt._nic_collective_fabric.engines) == pids
    _sharded(doc)               # and the forked workers run to the end


def _partial():
    """The universe of the shard that owns pids 0/1 of a 2 x 2 ring."""
    bp = blueprint_wan_ring(n_sites=2, hosts_per_site=2)
    return bp, materialize(bp, owned_switches={"sw-r0"})


def test_detectors_exist_only_for_owned_pids():
    _bp, part = _partial()
    rt = NcsRuntime(part, mode="hsm", resilience=ClusterResilience())
    assert set(rt.resilience.detectors) == {0, 1}
    assert _ghost_pids(part) == {2, 3}


def test_ghost_nodes_mirror_real_tid_allocation():
    """t_create on a ghost pid hands out the tid the real node would —
    with resilience attached, its heartbeat system thread counted — so
    cross-shard tid-based identities agree; only a sharded worker
    can run a universe with ghosts."""
    def fn(_arg=None):
        yield

    for resilience in (None, ClusterResilience):
        bp, part = _partial()
        rt_full, rt_part = (
            NcsRuntime(cluster, mode="hsm",
                       resilience=resilience and resilience())
            for cluster in (materialize(bp), part))
        for pid in range(bp.n_hosts):
            assert rt_part.t_create(pid, fn) == rt_full.t_create(pid, fn)
        with pytest.raises(RuntimeError, match="only runs under the "
                           "sharded kernel"):
            rt_part.run()


def _arm_on_ghosts(*events):
    """Arm ``events`` (aimed at pids 2/3, which this universe does not
    own) and run into their windows."""
    _bp, part = _partial()
    rt = NcsRuntime(part, mode="hsm")
    injector = FaultInjector(part, FaultPlan(events), runtime=rt).arm()
    part.sim.run(until=0.0015)
    return part, injector


def test_host_crash_on_a_ghost_sets_only_frozen():
    part, injector = _arm_on_ghosts(HostCrash(at=0.001, duration=0.002,
                                              host=2))
    assert [part.host(pid).frozen for pid in range(4)] == [0, 0, 1, 0]
    # the one hook held down is the ghost's flag: it has no interfaces
    assert dict(injector._depth) == {id(part.host(2)): 1}
    part.sim.run(until=0.004)
    assert not part.host(2).frozen


def test_physical_faults_on_a_ghost_touch_no_object():
    """A link outage, a switch-port stall and a BER spike aimed at hosts
    another shard owns are recorded like any other and change no
    channel of this universe."""
    part, injector = _arm_on_ghosts(
        LinkOutage(at=0.001, duration=0.002, host=3),
        SwitchPortStall(at=0.001, duration=0.002, host=2),
        BerSpike(at=0.001, duration=0.002, host=3, ber=1e-3))
    assert [edge for _t, edge, _d in injector.log] == ["begin"] * 3
    assert not +injector._depth
    for link in part.fabric.links:
        for ch in (link.fwd, link.rev):
            assert ch._flips == [(0.0, True, None)] and ch._held is None


def test_cost_model_isolates_point_to_point_hotspot():
    """pingpong loads only pids 0/1: the cost model gives their site a
    shard of its own and packs the bystander sites together, instead of
    splitting them evenly."""
    from repro.net.blueprint import PlanView

    spec = ScenarioSpec.from_dict({
        "name": "wr-pingpong",
        "cluster": {"topology": "wan-ring",
                    "options": {"n_sites": 4, "hosts_per_site": 2}},
        "app": {"driver": "pingpong"}})
    bp = blueprint_wan_ring(n_sites=4, hosts_per_site=2)
    weights = pid_weights(spec, bp.n_hosts)
    assert weights[0] == 1.0 and weights[2] < 1.0
    plan = plan_shards(PlanView(bp), 2, pid_weights=weights)
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
