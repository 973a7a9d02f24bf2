"""Supervised sharded execution: watchdogs, deadlines, crash recovery.

The supervision layer must make shard-worker failures *bounded* (a
crashed or hung worker is detected within the spec's wall-clock
deadlines, never hanging the coordinator), *classified* (a structured
:class:`~repro.sim.sharded.ShardWorkerError` naming shard, window and
reason) and *recoverable* (retry the sharded launch, or degrade to the
single kernel) — with the recovered run's behaviour byte-identical to
an undisturbed one, because wall-clock deadlines never feed simulated
time.  The chaos seam (``worker-crash`` / ``worker-stall`` fault kinds)
is what puts all of this under deterministic test.
"""

import multiprocessing
import time

import pytest

from repro.config.build import build_fault_plan, run_scenario
from repro.config.spec import ScenarioSpec, SpecError, SupervisionSpec
from repro.faults import FaultPlan, WorkerCrash, WorkerStall
from repro.obs.export import to_chrome_events
from repro.sim.sharded import (ShardFallbackWarning, ShardWorkerError,
                               run_scenario_sharded)
from repro.sim.sharded.supervise import Supervisor
from tests.walls.harness import assert_same, behavior_snapshot

#: a 3-host NYNET ring split 2/1 across the WAN trunk — small enough to
#: run in milliseconds, sharded enough to have a real window protocol
BASE_DOC = {
    "name": "supervised-ring",
    "cluster": {"topology": "nynet", "options": {"sites": [
        {"name": "syr", "n_hosts": 2, "region": "upstate"},
        {"name": "nyc", "n_hosts": 1, "region": "downstate"}]}},
    "runtime": {"mode": "nsm", "error": "ack", "barriers": {"0": 3},
                "shards": 2,
                "supervision": {"barrier_deadline_s": 5.0,
                                "worker_grace_s": 2.0,
                                "liveness_poll_s": 0.01}},
    "app": {"driver": "ring", "params": {"rounds": 2, "nbytes": 2048}},
    "obs": {"trace": True, "metrics": True},
}


def _doc(base: dict, *, faults=None, supervision=None) -> dict:
    doc = json_roundtrip(base)
    if faults is not None:
        doc["faults"] = {"events": faults}
    if supervision is not None:
        doc["runtime"]["supervision"] = dict(
            base["runtime"]["supervision"], **supervision)
    return doc


def json_roundtrip(doc: dict) -> dict:
    import json
    return json.loads(json.dumps(doc))


def _behavior(result) -> dict:
    """The behaviour wall: strip substrate telemetry (``kernel.*``
    metric names and the ``supervisor`` trace entity) exactly as the
    perf-lock walls do, then compare everything else bit for bit."""
    tracer = result.cluster.tracer
    tracer.close_all()
    tracer.events = [e for e in tracer.events if e[1] != "supervisor"]
    return {"value": result.value,
            "metrics": behavior_snapshot(result.cluster.metrics),
            "chrome": to_chrome_events(tracer)}


def _run(doc: dict):
    return run_scenario_sharded(ScenarioSpec.from_dict(doc))


@pytest.fixture(scope="module")
def single_kernel_doc():
    """The undisturbed single-kernel behaviour every recovery must hit."""
    doc = json_roundtrip(BASE_DOC)
    doc["runtime"].pop("shards")
    doc["runtime"].pop("supervision")
    return _behavior(run_scenario(ScenarioSpec.from_dict(doc)))


class TestSupervisionSpec:
    def test_defaults_round_trip_empty(self):
        assert SupervisionSpec().to_dict() == {}
        assert SupervisionSpec.from_dict({}) == SupervisionSpec()

    def test_non_defaults_round_trip(self):
        spec = SupervisionSpec(barrier_deadline_s=1.5, policy="raise",
                               max_retries=3)
        assert SupervisionSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"barrier_deadline_s": 1.5,
                                  "max_retries": 3, "policy": "raise"}

    def test_default_supervision_is_digest_invariant(self):
        """Adding [runtime.supervision] with defaults must not change
        the spec digest — every checked-in golden predates the table."""
        doc = json_roundtrip(BASE_DOC)
        doc["runtime"].pop("supervision")
        bare = ScenarioSpec.from_dict(doc)
        doc["runtime"]["supervision"] = {}
        assert ScenarioSpec.from_dict(doc).digest() == bare.digest()
        assert "supervision" not in bare.to_dict().get("runtime", {})

    @pytest.mark.parametrize("bad", [
        {"barrier_deadline_s": 0}, {"worker_grace_s": -1},
        {"liveness_poll_s": 0}, {"policy": "pray"}, {"max_retries": -1},
        {"max_retries": 1.5},
        {"barrier_deadline_s": 0.01, "liveness_poll_s": 1.0},
        # NaN compares false with everything: a hung worker would never
        # run out of time
        {"barrier_deadline_s": float("nan")},
        {"worker_grace_s": float("nan")}, {"liveness_poll_s": float("nan")},
    ])
    def test_validation(self, bad):
        with pytest.raises(SpecError):
            SupervisionSpec.from_dict(bad)

    def test_cli_rejects_nan_barrier_deadline(self, tmp_path, capsys):
        from repro.config import dump_scenario
        from repro.run import main
        path = tmp_path / "ring.toml"
        dump_scenario(ScenarioSpec.from_dict(BASE_DOC), path)
        assert main(["--barrier-deadline", "nan", str(path)]) == 2
        assert "supervision.barrier_deadline_s" in capsys.readouterr().err

    def test_policy_ladder_properties(self):
        assert SupervisionSpec(policy="retry").retries_allowed == 1
        assert SupervisionSpec(policy="retry", max_retries=3
                               ).retries_allowed == 3
        assert SupervisionSpec(policy="fallback").retries_allowed == 0
        assert SupervisionSpec(policy="raise").retries_allowed == 0
        assert SupervisionSpec(policy="fallback").falls_back
        assert SupervisionSpec(policy="retry-then-fallback").falls_back
        assert not SupervisionSpec(policy="retry").falls_back


class TestWorkerFaultPlan:
    def test_round_trip_and_matching(self):
        plan = FaultPlan((
            WorkerCrash(shard=1, window=2),
            WorkerStall(shard=0, window=3, attempt=1, stall_s=0.5)))
        back = FaultPlan.from_dicts(ev.to_dict() for ev in plan.events)
        assert back.events == plan.events
        crash = plan.events[0]
        assert crash.matches(1, 2, 0)
        assert not crash.matches(1, 2, 1)       # attempt-gated
        assert not crash.matches(0, 2, 0)
        assert not crash.matches(1, 3, 0)

    def test_cluster_plan_strips_worker_faults(self):
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-crash", "shard": 1, "window": 2}])
        spec = ScenarioSpec.from_dict(doc)
        assert len(spec.faults.to_plan().worker_events) == 1
        # the injector never sees them: nothing to arm on the cluster
        assert build_fault_plan(spec) is None

    def test_a_fault_on_a_shard_the_plan_lacks_is_rejected(self):
        """The ring splits into two shards; a crash of shard 2 would
        never fire, and the run used to pass as if it had been tested."""
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-crash", "shard": 2, "window": 2}])
        with pytest.raises(SpecError, match=r"can never fire: the plan "
                           r"has 2 shard\(s\)"):
            _run(doc)

    def test_worker_faults_inert_on_single_kernel(self, single_kernel_doc):
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-crash", "shard": 1, "window": 2}])
        doc["runtime"].pop("shards")
        doc["runtime"].pop("supervision")
        result = run_scenario(ScenarioSpec.from_dict(doc))
        assert_same(_behavior(result), single_kernel_doc)


class TestCrashRecovery:
    def test_process_crash_retries_byte_identically(self, single_kernel_doc):
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-crash", "shard": 1, "window": 2}])
        result = _run(doc)
        snap = result.cluster.metrics.snapshot()
        assert snap["kernel.recovery.worker_failures"] == {
            "reason=crashed,shard=1": 1}
        assert snap["kernel.recovery.retries"] == {"": 1}
        assert "kernel.recovery.fallbacks" not in snap
        assert result.cluster.tracer.points(entity="supervisor")
        assert_same(_behavior(result), single_kernel_doc,
                    where="recovered run")

    def test_fallback_policy_degrades_byte_identically(self,
                                                       single_kernel_doc):
        doc = _doc(BASE_DOC,
                   faults=[{"kind": "worker-crash", "shard": 1,
                            "window": 2}],
                   supervision={"policy": "fallback"})
        with pytest.warns(ShardFallbackWarning,
                          match=r"\[worker-crashed\]"):
            result = _run(doc)
        snap = result.cluster.metrics.snapshot()
        assert snap["kernel.shard_fallback"] == {
            "reason=worker-crashed": 1}
        assert snap["kernel.recovery.fallbacks"] == {
            "reason=worker-crashed": 1}
        assert snap["kernel.recovery.worker_failures"] == {
            "reason=crashed,shard=1": 1}
        assert_same(_behavior(result), single_kernel_doc)

    def test_raise_policy_surfaces_structured_error(self):
        doc = _doc(BASE_DOC,
                   faults=[{"kind": "worker-crash", "shard": 1,
                            "window": 2}],
                   supervision={"policy": "raise"})
        with pytest.raises(ShardWorkerError) as exc:
            _run(doc)
        err = exc.value
        assert (err.shard, err.window, err.reason) == (1, 2, "crashed")
        assert err.last_good is not None
        assert "shard 1 worker crashed at window 2" in str(err)

    def test_attempt_gating_crashes_the_retry_too(self):
        """attempt=0 AND attempt=1 faults exhaust the retry budget, so
        the default ladder degrades — proving faults are re-armed per
        launch attempt, not replayed blindly."""
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-crash", "shard": 1, "window": 2},
            {"kind": "worker-crash", "shard": 1, "window": 2,
             "attempt": 1}])
        with pytest.warns(ShardFallbackWarning):
            result = _run(doc)
        snap = result.cluster.metrics.snapshot()
        assert snap["kernel.recovery.worker_failures"] == {
            "reason=crashed,shard=1": 2}
        assert snap["kernel.recovery.fallbacks"] == {
            "reason=worker-crashed": 1}

    def test_clean_run_stamps_no_recovery(self):
        result = _run(json_roundtrip(BASE_DOC))
        snap = result.cluster.metrics.snapshot()
        assert not any(name.startswith("kernel.recovery.")
                       for name in snap)
        assert not result.cluster.tracer.points(entity="supervisor")


class TestHangDetection:
    def test_stall_past_deadline_classified_hung(self, single_kernel_doc):
        """A worker stalled past the barrier deadline is declared hung
        within deadline + one poll (not stall_s), then recovery runs."""
        doc = _doc(BASE_DOC,
                   faults=[{"kind": "worker-stall", "shard": 0,
                            "window": 3, "stall_s": 1.2}],
                   supervision={"barrier_deadline_s": 0.3,
                                "worker_grace_s": 2.0})
        t0 = time.monotonic()
        result = _run(doc)
        # detection happened at the 0.3s deadline, not the 1.2s stall:
        # total = detect + teardown grace-join (bounded by the stall
        # remainder) + clean retry.  Generous bound, still < stall x2.
        assert time.monotonic() - t0 < 2.4
        snap = result.cluster.metrics.snapshot()
        assert snap["kernel.recovery.worker_failures"] == {
            "reason=hung,shard=0": 1}
        assert_same(_behavior(result), single_kernel_doc)
        # every worker of both launches was joined or reaped: no leak
        assert not multiprocessing.active_children()

    def test_stall_below_deadline_is_invisible(self, single_kernel_doc):
        doc = _doc(BASE_DOC, faults=[
            {"kind": "worker-stall", "shard": 0, "window": 3,
             "stall_s": 0.05}])
        result = _run(doc)
        snap = result.cluster.metrics.snapshot()
        assert not any(name.startswith("kernel.recovery.")
                       for name in snap)
        assert_same(_behavior(result), single_kernel_doc)


def _forked(target, *args):
    proc = multiprocessing.get_context("fork").Process(
        target=target, args=args, daemon=True)
    proc.start()
    return proc


class TestShutdownWorkers:
    def test_a_worker_that_ignores_its_abort_is_killed(self):
        """A worker that ignores its abort past the grace period is
        terminated: teardown never leaves a process behind."""
        ours, _theirs = multiprocessing.get_context("fork").Pipe()
        proc = _forked(time.sleep, 30.0)
        sup = Supervisor([ours], [proc],
                         SupervisionSpec(worker_grace_s=0.05))
        t0 = time.monotonic()
        sup.shutdown()
        assert time.monotonic() - t0 < 2.0
        assert not proc.is_alive() and proc.exitcode != 0

    def test_a_worker_that_reads_its_abort_exits_cleanly(self):
        ours, theirs = multiprocessing.get_context("fork").Pipe()
        proc = _forked(theirs.recv)     # the abort releases the worker
        Supervisor([ours], [proc], SupervisionSpec()).shutdown()
        assert proc.exitcode == 0
