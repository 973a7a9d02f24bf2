"""Declarative scenario layer: specs, serialization, builders.

A scenario is pure data — which cluster to build, which NCS service
mode and flow/error-control policies to bring up, which application
driver to run, which faults to arm and which telemetry to capture.
The same composition the paper describes in prose (Figs 5/6, §3) and
the repo used to hand-wire at 20+ call sites becomes one frozen
:class:`ScenarioSpec` that loads from (and dumps back to) TOML or JSON
deterministically::

    from repro.config import load_scenario, run_scenario
    result = run_scenario(load_scenario("scenarios/quickstart.toml"))

or, from the shell::

    python -m repro.run scenarios/quickstart.toml
    python -m repro.run --list          # every registered component

Every named component in a spec (topology, transport/service mode,
flow control, error control, app driver, fault kind) resolves through
:mod:`repro.registry`, so unknown names fail with the list of
registered alternatives and third-party components plug in without
touching this package.
"""

from .spec import (
    AppSpec, ClusterSpec, FaultSpec, ObsSpec, ResilienceSpec, ScenarioSpec,
    SpecError,
)
from .io import (
    dump_scenario, dumps_json, dumps_toml, load_scenario, loads_scenario,
)
from .build import (
    ScenarioResult, ScenarioRun, build_cluster, build_fault_plan,
    build_runtime, ensure_components, run_scenario,
)

__all__ = [
    "AppSpec", "ClusterSpec", "FaultSpec", "ObsSpec", "ResilienceSpec",
    "ScenarioSpec", "SpecError",
    "dump_scenario", "dumps_json", "dumps_toml", "load_scenario",
    "loads_scenario",
    "ScenarioResult", "ScenarioRun", "build_cluster", "build_fault_plan",
    "build_runtime", "ensure_components", "run_scenario",
]
