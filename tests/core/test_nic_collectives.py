"""NIC-offloaded collectives: correctness vs the host strategy, host
bypass (fewer context switches), and the strategy/registry seam."""

import pytest

from repro import NcsRuntime, build_atm_cluster, build_ethernet_cluster
from repro.config import ObsSpec, ScenarioSpec, SpecError, run_scenario
from repro.core.mps import group
from repro.obs import merge_histograms
from repro.registry import COLLECTIVES

N = 4


def _spec(strategy, n_hosts=N, mode="nsm", rounds=2, **params):
    return ScenarioSpec.from_dict({
        "name": f"nic-coll-{strategy}",
        "cluster": {"topology": "atm-lan", "n_hosts": n_hosts},
        "runtime": {"mode": mode, "collectives": strategy},
        "app": {"driver": "collective",
                "params": {"rounds": rounds, **params}},
    })


class TestRegistry:
    def test_both_strategies_registered(self):
        from repro.config.build import ensure_components
        ensure_components()
        assert "host" in COLLECTIVES
        assert "nic" in COLLECTIVES

    def test_unknown_strategy_lists_alternatives(self):
        cluster = build_atm_cluster(2)
        with pytest.raises(ValueError, match="collective strategy"):
            NcsRuntime(cluster, mode="nsm", collectives="fpga")

    def test_nic_requires_atm_fabric(self):
        cluster = build_ethernet_cluster(2)
        with pytest.raises(ValueError, match="ethernet"):
            NcsRuntime(cluster, mode="nsm", collectives="nic")


@pytest.mark.parametrize("mode", ["nsm", "hsm"])
class TestCorrectness:
    def test_nic_matches_host_results(self, mode):
        results = {}
        for strategy in ("host", "nic"):
            value = run_scenario(_spec(strategy, mode=mode)).value
            assert value["bcast_ok"], strategy
            assert value["reduce_ok"], strategy
            results[strategy] = value
        # both strategies observe identical application-level results;
        # only the timing differs
        assert results["host"]["rounds"] == results["nic"]["rounds"]

    def test_nic_barrier_releases_everyone(self, mode):
        cluster = build_atm_cluster(N)
        rt = NcsRuntime(cluster, mode=mode, collectives="nic")
        rt.register_barrier(0, parties=N)
        after = []

        def party(ctx, pid):
            yield ctx.barrier(0)
            after.append(pid)

        for pid in range(N):
            rt.t_create(pid, party, (pid,), name=f"party-{pid}")
        rt.run()
        assert sorted(after) == list(range(N))


class TestScale:
    """Each engine labels ``collective.ops`` and ``collective.latency_s``
    by pid and kind, so the registry's 1 024 label sets per metric hold
    341 hosts; a larger cell is refused before any engine is built."""

    def test_342_hosts_with_metrics_is_a_spec_error(self):
        with pytest.raises(SpecError) as info:
            run_scenario(_spec("nic", n_hosts=342))
        msg = str(info.value)
        for part in ("runtime.collectives", "cluster.n_hosts = 342",
                     "341 hosts", "obs.metrics = false"):
            assert part in msg

    def test_512_hosts_run_with_metrics_off(self):
        spec = _spec("nic", n_hosts=512).replace(obs=ObsSpec(metrics=False))
        value = run_scenario(spec).value
        assert value["n_hosts"] == 512
        assert value["bcast_ok"] and value["reduce_ok"]


class TestHostBypass:
    def test_nic_uses_fewer_host_events(self):
        switches = {}
        for strategy in ("host", "nic"):
            res = run_scenario(_spec(strategy, n_hosts=8))
            snap = res.cluster.metrics.snapshot()
            switches[strategy] = sum(
                snap.get("mts.context_switches", {}).values())
        # the whole point of the offload: collectives complete without
        # waking MTS threads for protocol traffic
        assert switches["nic"] < switches["host"] / 2

    def test_nic_is_faster_at_scale(self):
        makespans = {}
        for strategy in ("host", "nic"):
            makespans[strategy] = run_scenario(
                _spec(strategy, n_hosts=8)).value["makespan_s"]
        assert makespans["nic"] < makespans["host"]

    def test_collective_metrics_populate(self):
        res = run_scenario(_spec("nic"))
        snap = res.cluster.metrics.snapshot()
        ops = snap["collective.ops"]
        assert ops["kind=barrier,pid=0"] == 2
        assert ops["kind=bcast,pid=0"] == 2
        assert ops["kind=reduce,pid=1"] == 2
        # one latency series per (kind, pid), folded over the pids
        latency = snap["collective.latency_s"]
        barrier = merge_histograms({labels: hist for labels, hist
                                    in latency.items()
                                    if labels.startswith("kind=barrier,")})
        assert barrier["count"] == N * 2
        assert sum(snap["collective.lost"].values()) == 0

    def test_host_runs_create_no_collective_metrics(self):
        res = run_scenario(_spec("host"))
        snap = res.cluster.metrics.snapshot()
        assert not any(name.startswith("collective.") for name in snap)


class TestSemantics:
    def test_reduce_fold_order_is_sorted_by_member(self):
        # non-commutative fold: NIC folds in (pid, tid) order
        cluster = build_atm_cluster(3)
        rt = NcsRuntime(cluster, mode="nsm", collectives="nic")
        tids = []
        out = []

        def body(ctx, pid):
            members = [(tids[i], i) for i in range(3)]
            root = (tids[0], 0)
            total = yield from group.reduce(ctx, root, members,
                                            f"p{pid}", 64,
                                            lambda a, b: a + b)
            if pid == 0:
                out.append(total)

        for pid in range(3):
            tids.append(rt.t_create(pid, body, (pid,), name=f"m{pid}"))
        rt.run()
        assert out == ["p0p1p2"]

    def test_bcast_with_same_pid_target_falls_back_to_host_path(self):
        # NIC multicast reaches processes; a same-process sibling forces
        # the Send-composed path, which still delivers correctly
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode="nsm", collectives="nic")
        got = []

        def sibling(ctx):
            m = yield ctx.recv(tag=5)
            got.append(("sib", m.data))

        def remote(ctx):
            m = yield ctx.recv(tag=5)
            got.append(("rem", m.data))

        def root(ctx, members):
            yield from group.bcast(ctx, members, "x", 256, tag=5)

        sib = rt.t_create(0, sibling, name="sib")
        rem = rt.t_create(1, remote, name="rem")
        members = [(sib, 0), (rem, 1)]
        root_tid = rt.t_create(0, root, (members,), name="root")
        members.append((root_tid, 0))
        rt.run()
        assert sorted(got) == [("rem", "x"), ("sib", "x")]

    def test_engine_adapter_hook_is_exclusive(self):
        from repro.atm.collective import NicCollectiveFabric
        cluster = build_atm_cluster(2)
        NicCollectiveFabric(cluster)
        with pytest.raises(RuntimeError, match="collective_rx"):
            NicCollectiveFabric(cluster)

    def test_nic_needs_two_hosts(self):
        cluster = build_atm_cluster(1)
        from repro.atm.collective import NicCollectiveFabric
        with pytest.raises(ValueError, match="host"):
            NicCollectiveFabric(cluster)
