"""Bounded waits on shard workers: a failure is detected, named, raised.

The coordinator never waits unboundedly on a worker: a crashed worker
is detected within one liveness poll, a wedged one at the barrier
deadline, and either surfaces as a structured
:class:`~repro.sim.sharded.ShardWorkerError` (shard, window, reason)
once every worker is torn down.  Nothing retries it: a run is a pure
function of (spec, seed), so a second try would fail the same way.

The failures are made by a test-only driver, registered below, whose
thread on one pid kills or stalls the worker process that runs it.
"""

import multiprocessing
import os
import time

import pytest

from repro.config import build_cluster
from repro.config.build import run_scenario
from repro.config.spec import ScenarioSpec, SpecError
from repro.obs.export import to_chrome_events
from repro.registry import APP_DRIVERS
from repro.sim.sharded import ShardWorkerError, run_scenario_sharded
from repro.sim.sharded import supervise
from repro.sim.sharded.plan import plan_for
from repro.sim.sharded.supervise import Supervisor
from tests.walls.harness import assert_same, behavior_snapshot

#: the pid whose thread misbehaves: the last host of the ring
FAULT_PID = 3

#: a 2 x 2 ``wan-ring`` on two shards, split at a WAN trunk — small
#: enough to run in well under a second, sharded enough to have a real
#: window protocol
BASE_DOC = {
    "name": "supervised-ring",
    "cluster": {"topology": "wan-ring",
                "options": {"n_sites": 2, "hosts_per_site": 2}},
    "obs": {"trace": True, "metrics": True},
}


def _register_fault_driver():
    """``test-shard-fault``: a ring exchange over every host, while the
    thread of pid :data:`FAULT_PID` calls ``os._exit`` (``exit = true``)
    or sleeps ``sleep_s`` wall-clock seconds after its first compute.
    Registered once per interpreter; a forked worker inherits it."""
    if "test-shard-fault" in APP_DRIVERS.names():
        return

    @APP_DRIVERS.register("test-shard-fault",
                          help="ring; one pid dies or stalls (tests only)")
    def _shard_fault(run):
        params = run.params
        rt = run.runtime
        n = run.cluster.n_hosts
        rt.register_barrier(0, n)

        def body(ctx, pid):
            nxt, prev = (pid + 1) % n, (pid - 1) % n
            for r in range(2):
                yield ctx.send(-1, nxt, (pid, r), 2048, tag=r + 10)
                yield ctx.recv(from_process=prev, tag=r + 10)
            yield ctx.barrier(0)

        def fault(ctx):
            yield ctx.compute(0.002)
            if params.get("exit"):
                os._exit(66)
            time.sleep(params.get("sleep_s", 0.0))

        for pid in range(n):
            rt.t_create(pid, body, (pid,), name=f"ring{pid}")
        rt.t_create(FAULT_PID, fault, name="fault")
        return {"makespan_s": rt.run()}


def _spec(shards=2, **params) -> ScenarioSpec:
    _register_fault_driver()
    return ScenarioSpec.from_dict({
        **BASE_DOC, "runtime": {"mode": "hsm", "shards": shards},
        "app": {"driver": "test-shard-fault", "params": params}})


def _fault_shard() -> int:
    spec = _spec()
    return plan_for(spec, build_cluster(spec.cluster, spec.obs)
                    ).pid_shard[FAULT_PID]


def _behavior(result) -> dict:
    """The behaviour wall: strip substrate telemetry (``kernel.*``
    metric names) exactly as the perf-lock walls do, then compare
    everything else bit for bit."""
    result.cluster.tracer.close_all()
    return {"value": result.value,
            "metrics": behavior_snapshot(result.cluster.metrics),
            "chrome": to_chrome_events(result.cluster.tracer)}


@pytest.fixture
def low_deadline(monkeypatch):
    """A 0.3 s barrier deadline, so a stalled worker is hung quickly."""
    monkeypatch.setattr(supervise, "BARRIER_DEADLINE_S", 0.3)


class TestSupervisionSpec:
    """``[runtime.supervision]`` held the removed ``SupervisionSpec``.
    Every table a spec gives it — each of these once-invalid ones
    included — is refused, naming the table, never silently dropped."""

    @pytest.mark.parametrize("bad", [
        {"barrier_deadline_s": 0}, {"worker_grace_s": -1},
        {"liveness_poll_s": 0}, {"policy": "pray"}, {"max_retries": -1},
        {"max_retries": 1.5},
        {"barrier_deadline_s": 0.01, "liveness_poll_s": 1.0},
        {"barrier_deadline_s": float("nan")},
        {"worker_grace_s": float("nan")}, {"liveness_poll_s": float("nan")},
    ])
    def test_validation(self, bad):
        doc = {**BASE_DOC, "runtime": {"shards": 2, "supervision": bad}}
        with pytest.raises(SpecError, match=r"unknown key\(s\) "
                           r"runtime\.supervision"):
            ScenarioSpec.from_dict(doc)

    def test_cli_rejects_nan_barrier_deadline(self, tmp_path, capsys):
        """The flag that set the deadline is gone: argparse refuses it
        with its usage exit code, whatever its value."""
        from repro.config import dump_scenario
        from repro.run import main
        path = tmp_path / "ring.toml"
        dump_scenario(_spec(), path)
        with pytest.raises(SystemExit) as exc:
            main(["--barrier-deadline", "nan", str(path)])
        assert exc.value.code == 2
        assert "--barrier-deadline" in capsys.readouterr().err


class TestCrashRecovery:
    """There is no recovery: a crashed worker is raised to the caller."""

    def test_raise_policy_surfaces_structured_error(self):
        """A worker that dies mid-window is ``crashed`` within a few
        seconds, the error names its shard, and every worker is reaped."""
        t0 = time.monotonic()
        with pytest.raises(ShardWorkerError) as exc:
            run_scenario_sharded(_spec(exit=True))
        assert time.monotonic() - t0 < 5.0
        err = exc.value
        shard = _fault_shard()
        assert (err.shard, err.reason) == (shard, "crashed")
        assert err.window >= 1 and err.last_good is not None
        assert f"shard {shard} worker crashed at window {err.window}" \
            in str(err)
        assert not multiprocessing.active_children()

    def test_clean_run_stamps_no_recovery(self):
        result = run_scenario_sharded(_spec())
        snap = result.cluster.metrics.snapshot()
        assert snap["kernel.shards"] == {"": 2}
        assert not any(name.startswith("kernel.recovery.")
                       for name in snap)
        assert not result.cluster.tracer.points(entity="supervisor")
        assert not multiprocessing.active_children()


class TestHangDetection:
    def test_stall_past_deadline_classified_hung(self, low_deadline):
        """A worker stalled past the barrier deadline is declared hung
        at the deadline, not at the end of its 1.2 s stall."""
        t0 = time.monotonic()
        with pytest.raises(ShardWorkerError) as exc:
            run_scenario_sharded(_spec(sleep_s=1.2))
        # detect at 0.3 s, then teardown joins the sleeper, which wakes
        # at 1.2 s and reads its abort: generous, still < stall x 2
        assert time.monotonic() - t0 < 2.4
        assert (exc.value.shard, exc.value.reason) == (_fault_shard(), "hung")
        assert "0.3s barrier deadline" in str(exc.value)
        assert not multiprocessing.active_children()

    def test_stall_below_deadline_is_invisible(self):
        single = run_scenario(_spec(shards=1, sleep_s=0.05))
        sharded = run_scenario_sharded(_spec(sleep_s=0.05))
        assert_same(_behavior(sharded), _behavior(single))


def _forked(target, *args):
    proc = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True)
    proc.start()
    return proc


class TestShutdownWorkers:
    def test_a_worker_that_ignores_its_abort_is_killed(self, monkeypatch):
        """A worker that ignores its abort past the grace period is
        terminated: teardown never leaves a process behind."""
        monkeypatch.setattr(supervise, "WORKER_GRACE_S", 0.05)
        ours, _theirs = multiprocessing.get_context("fork").Pipe()
        proc = _forked(time.sleep, 30.0)
        sup = Supervisor([ours], [proc])
        t0 = time.monotonic()
        sup.shutdown()
        assert time.monotonic() - t0 < 2.0
        assert not proc.is_alive() and proc.exitcode != 0

    def test_a_worker_that_reads_its_abort_exits_cleanly(self):
        ours, theirs = multiprocessing.get_context("fork").Pipe()
        proc = _forked(theirs.recv)     # the abort releases the worker
        Supervisor([ours], [proc]).shutdown()
        assert proc.exitcode == 0
