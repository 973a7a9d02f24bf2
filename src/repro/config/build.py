"""Turn specs into running simulations.

The construction pipeline every example, benchmark and ``python -m
repro.run`` invocation now shares::

    ScenarioSpec
        -> build_cluster()     TOPOLOGIES[spec.cluster.topology](...)
        -> build_runtime()     NcsRuntime(mode/flow/error by name)
                               + declared barriers
        -> build_fault_plan()  FaultSpec -> FaultPlan, armed via
                               FaultInjector
        -> run_scenario()      APP_DRIVERS[spec.app.driver](run)
                               + ObsSpec exports

Everything resolves through :mod:`repro.registry`, and the composition
is *exactly* the calls the hand-wired experiments used to make — the
golden-equality tests in ``tests/config`` hold a spec-built run to
bit-identical timestamps, traces and metrics against the committed
perf-lock goldens (walls in ``tests/walls/perf_lock.py``).  The sharded kernel's coordinator builds
its cluster with the same :func:`build_cluster` and forks its workers
off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

from ..registry import (APP_DRIVERS, ERROR_CONTROLS, FLOW_CONTROLS, KERNELS,
                        TOPOLOGIES)
from .schema import read
from .spec import ClusterSpec, ObsSpec, ScenarioSpec, SpecError

__all__ = ["ensure_components", "build_cluster",
           "build_fault_plan", "build_runtime", "control_kwargs",
           "run_scenario", "ScenarioRun", "ScenarioResult"]

def ensure_components() -> None:
    """Import the stack every run builds: the NCS runtime over its
    substrates, the LAN topologies and the app drivers.

    Idempotent and cheap after the first call.  Everything else (the
    NYNET and platform topologies, fault kinds, ``hsm-failover``, the
    sharded kernel) its registry imports on the first lookup of its
    name; a third-party component only needs its own module imported
    before the spec that names it is built.
    """
    from ..apps import drivers  # noqa: F401
    from ..core import api  # noqa: F401
    from ..net import topology  # noqa: F401


def build_cluster(cluster: ClusterSpec, obs: ObsSpec = ObsSpec()):
    """Build the whole cluster a spec's cluster table describes, via the
    topology registry.

    Registered topologies must accept ``seed``/``trace``/``metrics``
    keyword arguments (and ``n_hosts`` where it applies); everything in
    ``cluster.options`` is read against the builder's keyword
    parameters and forwarded.  Arguments the topology does not take,
    and a plain-typed one of another type, are a :class:`SpecError`.
    """
    builder = TOPOLOGIES.get(cluster.topology)
    kw: dict[str, Any] = read(builder, cluster.options, "cluster.options",
                              partial=True)
    if cluster.n_hosts is not None:
        kw["n_hosts"] = cluster.n_hosts
    kw["seed"] = cluster.seed
    kw["trace"] = obs.trace
    kw["metrics"] = obs.metrics
    try:
        return builder(**kw)
    except TypeError as e:
        raise SpecError(
            f"cluster.topology {cluster.topology!r} rejected its "
            f"arguments: {e}") from None


def build_fault_plan(spec: ScenarioSpec):
    """The spec's :class:`~repro.faults.FaultPlan`, or None."""
    if spec.faults is None:
        return None
    plan = spec.faults.to_plan()
    return plan if len(plan) else None


def control_kwargs(spec: ScenarioSpec, which: str) -> dict:
    """``runtime.<which>_kwargs`` (``which`` is ``"flow"`` or
    ``"error"``) read against the named policy's constructor."""
    name = getattr(spec, which)
    if name is None:
        return {}
    policies = FLOW_CONTROLS if which == "flow" else ERROR_CONTROLS
    return read(policies.get(name), getattr(spec, f"{which}_kwargs"),
                f"runtime.{which}_kwargs")


def build_runtime(spec: ScenarioSpec, cluster=None):
    """Build ``(cluster, runtime)`` with faults armed, per the spec.

    The construction order matches the hand-wired experiments the spec
    layer replaced (runtime, then fault arming, then barriers), so a
    spec-built run schedules bit-identically.
    """
    from ..core.api import NcsRuntime
    if cluster is None:
        cluster = build_cluster(spec.cluster, spec.obs)
    if spec.collectives == "nic" and cluster.metrics.enabled:
        from ..atm.collective import OP_KINDS
        limit = cluster.metrics.max_label_sets // len(OP_KINDS)
        if cluster.n_hosts > limit:
            raise SpecError(
                f"runtime.collectives = 'nic' labels its series by pid and "
                f"kind, so with metrics on it runs at most {limit} hosts "
                f"(cluster.n_hosts = {cluster.n_hosts}); set obs.metrics = "
                f"false to run more")
    resilience = (spec.resilience.build()
                  if spec.resilience is not None else None)
    runtime = NcsRuntime(cluster, mode=spec.mode,
                         flow=spec.flow, error=spec.error,
                         flow_kwargs=control_kwargs(spec, "flow"),
                         error_kwargs=control_kwargs(spec, "error"),
                         resilience=resilience,
                         collectives=spec.collectives)
    plan = build_fault_plan(spec)
    if plan is not None:
        from ..faults.injector import FaultInjector
        FaultInjector(cluster, plan, runtime=runtime).arm()
    for barrier_id, parties in sorted(spec.barriers.items()):
        runtime.register_barrier(barrier_id, parties)
    return cluster, runtime


class ScenarioRun:
    """What an app driver receives: the spec, its params, and lazy
    access to the spec-built cluster and runtime.

    Every driver runs on them: an NCS program asks for :attr:`runtime`,
    creates threads on it and runs it; a p4 program builds its
    procgroup on :attr:`cluster`.  Both are built on first access;
    :attr:`cluster` may be set first (a caller that times the build, a
    shard worker), and :attr:`runtime` is then built on it.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.params: dict[str, Any] = (
            dict(spec.app.params) if spec.app is not None else {})

    @cached_property
    def cluster(self):
        """The spec-built cluster."""
        return build_cluster(self.spec.cluster, self.spec.obs)

    @cached_property
    def runtime(self):
        """The spec-built :class:`~repro.core.api.NcsRuntime` (faults
        armed, barriers registered) on :attr:`cluster`."""
        return build_runtime(self.spec, self.cluster)[1]


@dataclass
class ScenarioResult:
    """What :func:`run_scenario` returns."""

    spec: ScenarioSpec
    value: Any                       # whatever the driver returned
    cluster: Any = None
    runtime: Any = None
    exported: list = field(default_factory=list)   # files written per ObsSpec

    def report(self) -> dict:
        """The self-describing cluster diagnostics report."""
        from ..diagnostics import cluster_report
        if self.cluster is None:
            raise SpecError(
                f"scenario {self.spec.name!r}: driver "
                f"{self.spec.app.driver!r} exposed no cluster to report on")
        return cluster_report(self.cluster, self.runtime, scenario=self.spec)

    def summary(self) -> dict:
        """A small printable summary of the driver's return value."""
        value = self.value
        if isinstance(value, dict):
            return {k: v for k, v in value.items()
                    if isinstance(v, (int, float, str, bool))}
        for attrs in (("app", "variant", "platform", "n_nodes",
                       "makespan_s", "correct"),):
            if all(hasattr(value, a) for a in attrs):   # AppResult-shaped
                return {a: getattr(value, a) for a in attrs}
        return {"value": repr(value)}


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute a scenario on its selected kernel.

    ``runtime.kernel`` dispatches through :data:`repro.registry.KERNELS`
    — ``single`` (the default, below) drives the whole cluster on one
    in-process event loop; ``sharded`` partitions it across worker
    kernels (:mod:`repro.sim.sharded`).
    """
    if spec.kernel != "single":
        return KERNELS.get(spec.kernel)(spec)
    return _run_scenario_single(spec)


@KERNELS.register("single",
                  help="one in-process event loop for the whole cluster")
def _run_scenario_single(spec: ScenarioSpec) -> ScenarioResult:
    """Resolve the app driver, run it, export telemetry per the spec."""
    if spec.app is None:
        raise SpecError(
            f"scenario {spec.name!r} has no [app] table; nothing to run "
            "(specs without an app can still be built via build_runtime)")
    driver = APP_DRIVERS.get(spec.app.driver)
    run = ScenarioRun(spec)
    value = driver(run)
    built = vars(run)          # what the driver asked for (cached_property)
    result = ScenarioResult(spec, value, built.get("cluster"),
                            built.get("runtime"))
    _export_obs(result)
    return result


def _export_obs(result: ScenarioResult) -> None:
    obs = result.spec.obs
    if not (obs.chrome_trace or obs.jsonl):
        return
    if result.cluster is None:
        raise SpecError(
            f"scenario {result.spec.name!r}: obs export requested but the "
            "driver never asked for run.cluster or run.runtime")
    from ..obs import export_chrome_trace, export_jsonl
    tracer = result.cluster.tracer
    tracer.close_all()
    if obs.chrome_trace:
        export_chrome_trace(tracer, obs.chrome_trace,
                            metrics=result.cluster.metrics)
        result.exported.append(obs.chrome_trace)
    if obs.jsonl:
        export_jsonl(tracer, obs.jsonl)
        result.exported.append(obs.jsonl)
