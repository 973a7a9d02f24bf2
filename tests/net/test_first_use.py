"""Per-pair state comes into being on first use — at no simulated cost.

Nothing is provisioned per host *pair* when a cluster or a runtime is
built: a pair's virtual circuits, its TCP connection and the receive
pumps behind them appear when the pair first talks.  These tests pin,
per transport, that

* asking for a pair's circuit or connection schedules nothing and moves
  neither the clock nor any host's CPU-busy time;
* the pair's first delivery lands at exactly the simulated instant (and
  the hosts burn exactly the CPU seconds) it did when every circuit,
  connection and pump was pre-provisioned — the numbers below were
  captured from the last commit that built the O(n²) mesh;
* a pair that never talks leaves no VC, connection or queue behind —
  and so no pump, since a pump is only ever started by a queue's first
  message;

and that what a build leaves behind grows with the host count, not its
square — up to the 1024-host scale scenario, whose full build meets
absolute time and memory targets and whose shard builds cost less.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.atm import Service
from repro.atm.signaling import circuit_key
from repro.config import ClusterSpec, ScenarioSpec, build_runtime
from repro.core import NcsRuntime
from repro.net import build_atm_cluster
from repro.p4 import P4Runtime

#: transport -> (instant pid 1 has the first message, CPU-busy seconds
#: per host), from the pre-provisioned mesh at commit 4bb44e4
PINNED = {
    "nsm": (0.0029540285714285716,
            {"n0": 0.0010742, "n1": 0.0010341999999999999, "n2": 1.2e-05}),
    "hsm": (0.0016525714285714288,
            {"n0": 0.0003776, "n1": 0.0003752000000000001, "n2": 1.2e-05}),
    "p4": (0.005994571428571428,
           {"n0": 0.0027978, "n1": 0.0022988, "n2": 0}),
}


def _cpu_busy(cluster) -> dict:
    cluster.tracer.close_all()
    return {s.host.name: sum(iv.end - iv.start for iv in
                             cluster.tracer.timeline(s.host.name).intervals)
            for s in cluster.stacks}


def _first_message_ncs(cluster, mode):
    """pid 0 sends pid 1 one 4 KiB message; when does pid 1 have it?"""
    rt = NcsRuntime(cluster, mode=mode)

    def receiver(ctx):
        yield ctx.recv()
        return cluster.sim.now
    rtid = rt.t_create(1, receiver)

    def sender(ctx):
        yield ctx.send(to_thread=rtid, to_process=1, data="x", size=4096)
    rt.t_create(0, sender)
    rt.run(max_events=1_000_000)
    return rt.thread_result(1, rtid)


def _first_message_p4(cluster, _mode):
    rt = P4Runtime(cluster)

    def sender(p4):
        yield from p4.send(7, 1, "x", 4096)

    def receiver(p4):
        yield from p4.recv()
        return cluster.sim.now
    rt.spawn(0, sender)
    proc = rt.spawn(1, receiver)
    cluster.sim.run(max_events=1_000_000)
    return proc.value


@pytest.mark.parametrize("mode,drive", [
    ("nsm", _first_message_ncs), ("hsm", _first_message_ncs),
    ("p4", _first_message_p4)])
def test_first_use_is_free_and_idle_pairs_leave_nothing(mode, drive):
    cluster = build_atm_cluster(3, trace=True)
    sig = cluster.signaling
    assert not sig.open_vcs
    assert not any(s.tcp.connections() for s in cluster.stacks)

    first_delivery = drive(cluster, mode)
    pinned_t, pinned_busy = PINNED[mode]
    assert first_delivery == pinned_t
    assert _cpu_busy(cluster) == pinned_busy

    # only the pair that talked has anything to show for it
    talked = {0, 1}
    assert sig.open_vcs, "the run established nothing?"
    for vc_id in sig.open_vcs:
        src, dst, _service = circuit_key(vc_id)
        assert {src, dst} == talked
    for pid, stack in enumerate(cluster.stacks):
        peers = {conn.remote for conn in stack.tcp.connections()}
        assert peers <= ({"n0", "n1"} - {stack.host.name} if pid in talked
                         else set())
        queues = {circuit_key(vc_id)[0] for vc_id in stack.atm_api._rx}
        assert queues <= (talked - {pid} if pid in talked else set())


def test_establishing_schedules_nothing():
    """Asking for a circuit or a connection is pure bookkeeping."""
    cluster = build_atm_cluster(3, trace=True)
    sim = cluster.sim
    calendar = len(sim._heap)
    started = cluster.metrics.value("sim.processes_started")
    vc = cluster.hsm_vc(0, 1)
    ip_vc = cluster.signaling.circuit("n0", "n1", Service.IP)
    conn = cluster.stack(0).tcp.connection("n1")
    assert conn.established                     # preconnect: born established
    assert vc is cluster.hsm_vc(0, 1) and vc is not ip_vc
    assert sim.now == 0.0 and len(sim._heap) == calendar
    assert cluster.metrics.value("sim.processes_started") == started
    assert not any(_cpu_busy(cluster).values())


def _built(n_hosts: int, mode: str, collectives: str) -> dict:
    """What ``build_cluster`` + ``build_runtime`` leave behind."""
    cluster, _rt = build_runtime(ScenarioSpec(
        name="scale", mode=mode, collectives=collectives,
        cluster=ClusterSpec(topology="atm-lan", n_hosts=n_hosts)))
    return {
        "open_vcs": len(cluster.signaling.open_vcs),
        "connections": sum(len(s.tcp.connections())
                           for s in cluster.stacks),
        "processes": cluster.metrics.value("sim.processes_started"),
        "calendar": len(cluster.sim._heap),
    }


@pytest.mark.parametrize("mode,collectives", [
    ("nsm", "host"), ("hsm", "host"), ("p4", "host"), ("nsm", "nic")])
def test_construction_is_linear_in_hosts(mode, collectives):
    """64 -> 128 hosts at most doubles (+10 %) everything a build
    leaves behind; per-pair state is exactly zero before the first
    send."""
    small = _built(64, mode, collectives)
    big = _built(128, mode, collectives)
    assert small["open_vcs"] == big["open_vcs"] == 0
    assert small["connections"] == big["connections"] == 0
    for key in ("processes", "calendar"):
        assert 0 < big[key] <= 2.2 * small[key], (key, small, big)
        assert big[key] <= 8 * 128


SCALE_SCENARIO = (Path(__file__).resolve().parents[2]
                  / "scenarios" / "scale" / "wan_ring_1024.toml")

#: builds the scenario's cluster and plans its shards on it; prints one
#: JSON line
_BUILD_1024 = """
import json, resource, sys, time
from repro.config import build_cluster, load_scenario
from repro.sim.sharded.plan import plan_for

spec = load_scenario(sys.argv[1])
t0 = time.perf_counter()
cluster = build_cluster(spec.cluster, spec.obs)
wall_s = time.perf_counter() - t0
rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
print(json.dumps({"n_hosts": cluster.n_hosts,
                  "shards": plan_for(spec, cluster).n_shards,
                  "wall_s": wall_s, "rss_bytes": rss_bytes}))
"""


def test_1024_host_build_meets_its_targets():
    """In a fresh process, the build of the 1024-host wan-ring takes
    under 10 s and stays under 1 GB resident, and its plan is 8-way."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_1024, str(SCALE_SCENARIO)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert (got["n_hosts"], got["shards"]) == (1024, 8)
    assert got["wall_s"] < 10.0, got
    assert got["rss_bytes"] < 1_000_000_000, got
