"""Frozen scenario specs: the declarative surface of the NCS stack.

Five dataclasses, mirroring the layers they configure:

* :class:`ClusterSpec` — which registered topology builder to call and
  with what arguments (``repro.net``);
* :class:`AppSpec` — which registered app driver to run and its
  parameters (``repro.apps``);
* :class:`FaultSpec` — the fault schedule to arm, explicit events or a
  seeded random plan (``repro.faults``);
* :class:`ObsSpec` — telemetry and trace toggles plus export targets
  (``repro.obs``);
* :class:`ScenarioSpec` — the whole experiment: cluster + runtime
  (service mode, flow/error control, barriers) + app + faults + obs.

Specs are immutable, validate on construction with actionable errors
(every message names the offending ``section.field``), and round-trip
deterministically: ``from_dict(to_dict(spec)) == spec`` and the TOML
emitted by :mod:`repro.config.io` is stable under reload.  ``to_dict``
is *canonical* — fields equal to their defaults are omitted — so two
specs compare equal iff their serialized forms are byte-identical,
which is what makes :meth:`ScenarioSpec.digest` a meaningful identity
for reports and experiment ledgers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = ["SpecError", "ClusterSpec", "AppSpec", "FaultSpec", "ObsSpec",
           "ResilienceSpec", "SupervisionSpec", "ScenarioSpec"]


class SpecError(ValueError):
    """A scenario spec failed validation; the message names the field."""


def _err(path: str, problem: str) -> SpecError:
    return SpecError(f"{path}: {problem}")


def _check_table(raw: Mapping, path: str, allowed: tuple[str, ...]) -> None:
    if not isinstance(raw, Mapping):
        raise _err(path, f"expected a table/mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise _err(path, f"unknown key(s) {', '.join(map(repr, unknown))}; "
                         f"allowed: {', '.join(allowed)}")


def _check_str(value: Any, path: str, optional: bool = False) -> None:
    if value is None and optional:
        return
    if not isinstance(value, str) or not value:
        raise _err(path, f"must be a non-empty string (got {value!r})")


def _plain_dict(value: Any, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise _err(path, f"expected a table/mapping, got {type(value).__name__}")
    return {str(k): v for k, v in value.items()}


def _prune(d: dict, defaults: Mapping[str, Any]) -> dict:
    """Canonical form: drop keys whose value equals the field default."""
    return {k: v for k, v in d.items() if v != defaults.get(k)}


# ---------------------------------------------------------------------------
# ClusterSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec:
    """Which topology builder to call, and with what.

    ``topology`` names a builder in :data:`repro.registry.TOPOLOGIES`
    (builders register themselves at import: ``ethernet``, ``atm-lan``,
    ``nynet``, ``nynet-testbed``, ``platform-ethernet``,
    ``platform-nynet``).  ``options`` are passed through as extra
    keyword arguments, so builder-specific knobs (``train_cells``,
    ``collisions``, ``sites`` ...) need no schema change here.
    Trace/metrics toggles live in :class:`ObsSpec`, not here — the
    observability layer owns them.
    """

    topology: str = "ethernet"
    #: None = the builder determines the host count (e.g. from sites)
    n_hosts: Optional[int] = None
    seed: int = 1995
    options: dict = field(default_factory=dict)

    _DEFAULTS = {"topology": "ethernet", "n_hosts": None, "seed": 1995,
                 "options": {}}

    def __post_init__(self) -> None:
        _check_str(self.topology, "cluster.topology")
        if self.n_hosts is not None and (
                not isinstance(self.n_hosts, int) or self.n_hosts < 1):
            raise _err("cluster.n_hosts",
                       f"must be a positive integer or omitted "
                       f"(got {self.n_hosts!r})")
        if not isinstance(self.seed, int):
            raise _err("cluster.seed", f"must be an integer (got {self.seed!r})")
        object.__setattr__(self, "options",
                           _plain_dict(self.options, "cluster.options"))
        for key, value in self.options.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise _err(f"cluster.options.{key}",
                           f"must be a finite number (got {value!r})")

    def to_dict(self) -> dict:
        return _prune({"topology": self.topology, "n_hosts": self.n_hosts,
                       "seed": self.seed, "options": dict(self.options)},
                      self._DEFAULTS)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ClusterSpec":
        _check_table(raw, "cluster", ("topology", "n_hosts", "seed", "options"))
        return cls(**dict(raw))


# ---------------------------------------------------------------------------
# AppSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppSpec:
    """Which registered app driver to run, and its parameters."""

    driver: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str(self.driver, "app.driver")
        object.__setattr__(self, "params",
                           _plain_dict(self.params, "app.params"))

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"driver": self.driver}
        if self.params:
            d["params"] = dict(self.params)
        return d

    @classmethod
    def from_dict(cls, raw: Mapping) -> "AppSpec":
        _check_table(raw, "app", ("driver", "params"))
        if "driver" not in raw:
            raise _err("app.driver", "is required when an [app] table is given")
        return cls(**dict(raw))


# ---------------------------------------------------------------------------
# FaultSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec:
    """A declarative fault schedule.

    Exactly one of:

    * ``events`` — a tuple of event tables, each ``{kind = "...", at =
      ..., duration = ..., <kind-specific fields>}`` with ``kind`` in
      :data:`repro.registry.FAULT_KINDS`;
    * ``random`` — ``{seed = ..., t_max = ..., n_events = ..., kinds =
      [...]}`` forwarded to :meth:`repro.faults.FaultPlan.random`.
    """

    events: tuple = ()
    random: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.random is not None and self.events:
            raise _err("faults", "give either explicit [[faults.events]] or "
                                 "a [faults.random] table, not both")
        if self.random is not None:
            rnd = _plain_dict(self.random, "faults.random")
            _check_table(rnd, "faults.random",
                         ("seed", "n_hosts", "t_max", "n_events", "kinds"))
            if "seed" not in rnd:
                raise _err("faults.random.seed", "is required (the plan must "
                           "be reproducible; pick any integer)")
            if "kinds" in rnd and not isinstance(rnd["kinds"], (list, tuple)):
                raise _err("faults.random.kinds",
                           f"must be a list of kind names "
                           f"(got {rnd['kinds']!r})")
            if isinstance(rnd.get("kinds"), list):
                rnd["kinds"] = tuple(rnd["kinds"])
            object.__setattr__(self, "random", rnd)
        events = []
        for i, ev in enumerate(self.events):
            ev = _plain_dict(ev, f"faults.events[{i}]")
            if "kind" not in ev:
                raise _err(f"faults.events[{i}].kind",
                           "is required (e.g. kind = \"link-outage\")")
            events.append(ev)
        object.__setattr__(self, "events", tuple(events))

    def to_dict(self) -> dict:
        d: dict[str, Any] = {}
        if self.events:
            d["events"] = [dict(ev) for ev in self.events]
        if self.random is not None:
            rnd = dict(self.random)
            if isinstance(rnd.get("kinds"), tuple):
                rnd["kinds"] = list(rnd["kinds"])
            d["random"] = rnd
        return d

    @classmethod
    def from_dict(cls, raw: Mapping) -> "FaultSpec":
        _check_table(raw, "faults", ("events", "random"))
        events = raw.get("events", ())
        if not isinstance(events, (list, tuple)):
            raise _err("faults.events",
                       f"must be an array of event tables (got {events!r})")
        return cls(events=tuple(events), random=raw.get("random"))

    def to_plan(self):
        """Materialize into a :class:`repro.faults.FaultPlan`."""
        from ..faults.plan import FaultPlan
        if self.random is not None:
            kw = dict(self.random)
            seed = kw.pop("seed")
            return FaultPlan.random(seed, **kw)
        return FaultPlan.from_dicts(self.events)

    @classmethod
    def from_plan(cls, plan) -> "FaultSpec":
        """The inverse: a spec whose events reproduce ``plan``."""
        return cls(events=tuple(plan.to_dicts()))


# ---------------------------------------------------------------------------
# ResilienceSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResilienceSpec:
    """Self-healing configuration (:mod:`repro.resilience`).

    When ``enabled``, every node gains a heartbeat failure-detector
    system thread; the timing triad must satisfy
    ``heartbeat_interval_s < suspect_after_s < dead_after_s``.  The
    breaker fields configure the per-peer HSM→NSM circuit breakers of
    the ``hsm-failover`` transport (they are inert under any other
    ``runtime.mode``).
    """

    enabled: bool = True
    heartbeat_interval_s: float = 0.02
    suspect_after_s: float = 0.06
    dead_after_s: float = 0.15
    failure_threshold: int = 3
    reset_timeout_s: float = 0.2
    probe_successes: int = 2

    _DEFAULTS = {"heartbeat_interval_s": 0.02, "suspect_after_s": 0.06,
                 "dead_after_s": 0.15, "failure_threshold": 3,
                 "reset_timeout_s": 0.2, "probe_successes": 2}

    def __post_init__(self) -> None:
        if not isinstance(self.enabled, bool):
            raise _err("resilience.enabled",
                       f"must be true or false (got {self.enabled!r})")
        for name in ("heartbeat_interval_s", "suspect_after_s",
                     "dead_after_s", "reset_timeout_s"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or v <= 0:
                raise _err(f"resilience.{name}",
                           f"must be a positive number (got {v!r})")
        if not (self.heartbeat_interval_s < self.suspect_after_s
                < self.dead_after_s):
            raise _err("resilience",
                       "need heartbeat_interval_s < suspect_after_s < "
                       f"dead_after_s (got {self.heartbeat_interval_s!r} / "
                       f"{self.suspect_after_s!r} / {self.dead_after_s!r})")
        for name in ("failure_threshold", "probe_successes"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise _err(f"resilience.{name}",
                           f"must be a positive integer (got {v!r})")

    def to_dict(self) -> dict:
        d = _prune(dataclasses.asdict(self), self._DEFAULTS)
        # 'enabled' is always emitted: an empty [resilience] table would
        # be ambiguous about whether the layer is on
        d["enabled"] = self.enabled
        return {k: d[k] for k in sorted(d)}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ResilienceSpec":
        _check_table(raw, "resilience",
                     ("enabled", "heartbeat_interval_s", "suspect_after_s",
                      "dead_after_s", "failure_threshold", "reset_timeout_s",
                      "probe_successes"))
        return cls(**dict(raw))

    def build(self):
        """Materialize a :class:`repro.resilience.ClusterResilience`
        (or ``None`` when disabled)."""
        if not self.enabled:
            return None
        from ..resilience import ClusterResilience
        return ClusterResilience(
            heartbeat_interval_s=self.heartbeat_interval_s,
            suspect_after_s=self.suspect_after_s,
            dead_after_s=self.dead_after_s,
            failure_threshold=self.failure_threshold,
            reset_timeout_s=self.reset_timeout_s,
            probe_successes=self.probe_successes)


# ---------------------------------------------------------------------------
# SupervisionSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisionSpec:
    """Watchdog deadlines and recovery policy for the sharded kernel.

    The sharded kernel's coordinator never waits unboundedly on a shard
    worker: every control-queue operation in the window protocol is
    bounded by ``barrier_deadline_s`` of *wall-clock* time (simulated
    time is irrelevant here — a hung worker makes no simulated
    progress at all), and worker liveness is polled every
    ``liveness_poll_s`` while waiting, so a crashed worker is detected
    long before the barrier deadline expires.  ``worker_grace_s``
    bounds teardown: how long an aborted worker process gets to
    acknowledge and join before it is terminated.

    ``policy`` is the recovery ladder applied after all workers are
    torn down:

    * ``"retry"`` — relaunch the sharded run up to ``max_retries``
      times (transient fork/OOM flakes), then re-raise;
    * ``"fallback"`` — degrade immediately to the single kernel, which
      is byte-identical by the determinism walls;
    * ``"retry-then-fallback"`` (default) — retry first, degrade if
      the retry fails too;
    * ``"raise"`` — no recovery: surface the structured
      :class:`~repro.sim.sharded.ShardWorkerError` to the caller.

    Wall-clock deadlines never feed back into the simulation, so
    supervision cannot perturb results — it only decides when to stop
    waiting for a worker that will never answer.
    """

    POLICIES = ("retry", "fallback", "retry-then-fallback", "raise")

    barrier_deadline_s: float = 60.0
    worker_grace_s: float = 5.0
    liveness_poll_s: float = 0.05
    policy: str = "retry-then-fallback"
    max_retries: int = 1

    _DEFAULTS = {"barrier_deadline_s": 60.0, "worker_grace_s": 5.0,
                 "liveness_poll_s": 0.05, "policy": "retry-then-fallback",
                 "max_retries": 1}

    def __post_init__(self) -> None:
        for name in ("barrier_deadline_s", "worker_grace_s",
                     "liveness_poll_s"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not v > 0:  # or NaN
                raise _err(f"supervision.{name}",
                           f"must be a positive number of wall-clock "
                           f"seconds (got {v!r})")
        if self.liveness_poll_s > self.barrier_deadline_s:
            raise _err("supervision.liveness_poll_s",
                       f"must not exceed barrier_deadline_s (got "
                       f"{self.liveness_poll_s!r} > "
                       f"{self.barrier_deadline_s!r})")
        if self.policy not in self.POLICIES:
            raise _err("supervision.policy",
                       f"must be one of {', '.join(self.POLICIES)} "
                       f"(got {self.policy!r})")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise _err("supervision.max_retries",
                       f"must be a non-negative integer (got "
                       f"{self.max_retries!r})")

    @property
    def retries_allowed(self) -> int:
        """Sharded relaunches the policy permits (0 when not retrying)."""
        if self.policy in ("retry", "retry-then-fallback"):
            return self.max_retries
        return 0

    @property
    def falls_back(self) -> bool:
        """Whether the ladder ends in single-kernel degradation."""
        return self.policy in ("fallback", "retry-then-fallback")

    def to_dict(self) -> dict:
        d = _prune(dataclasses.asdict(self), self._DEFAULTS)
        return {k: d[k] for k in sorted(d)}

    @classmethod
    def from_dict(cls, raw: Mapping) -> "SupervisionSpec":
        _check_table(raw, "runtime.supervision",
                     ("barrier_deadline_s", "worker_grace_s",
                      "liveness_poll_s", "policy", "max_retries"))
        return cls(**dict(raw))


# ---------------------------------------------------------------------------
# ObsSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObsSpec:
    """Telemetry and trace toggles, and where to export them.

    ``metrics``/``trace`` feed the cluster builder; ``chrome_trace`` /
    ``jsonl`` are file targets written after the run (both require
    ``trace = true`` — span export reads the tracer); ``report`` prints
    the :func:`repro.diagnostics.cluster_report` after the run (requires
    ``metrics = true``: the report reads the registry, and a disabled
    registry counts nothing).
    """

    metrics: bool = True
    trace: bool = False
    chrome_trace: Optional[str] = None
    jsonl: Optional[str] = None
    report: bool = False

    _DEFAULTS = {"metrics": True, "trace": False, "chrome_trace": None,
                 "jsonl": None, "report": False}

    def __post_init__(self) -> None:
        for name in ("metrics", "trace", "report"):
            if not isinstance(getattr(self, name), bool):
                raise _err(f"obs.{name}",
                           f"must be true or false (got {getattr(self, name)!r})")
        if self.report and not self.metrics:
            raise _err("obs.report",
                       "requires obs.metrics = true (the report reads the "
                       "metrics registry, which counts nothing when off)")
        _check_str(self.chrome_trace, "obs.chrome_trace", optional=True)
        _check_str(self.jsonl, "obs.jsonl", optional=True)
        for name in ("chrome_trace", "jsonl"):
            if getattr(self, name) is not None and not self.trace:
                raise _err(f"obs.{name}",
                           "requires obs.trace = true (span export reads "
                           "the tracer, which is off by default)")

    def to_dict(self) -> dict:
        return _prune(dataclasses.asdict(self), self._DEFAULTS)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ObsSpec":
        _check_table(raw, "obs", ("metrics", "trace", "chrome_trace",
                                  "jsonl", "report"))
        return cls(**dict(raw))


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, reproducible experiment.

    The runtime section mirrors ``NCS_init(flow, error)`` writ large:
    ``mode`` names a registered transport tier (``p4`` / ``nsm`` /
    ``hsm`` out of the box), ``flow``/``error`` name registered control
    policies with their keyword arguments alongside, ``collectives``
    names a registered collective strategy (``host`` trees by default,
    ``nic`` for SBA-200 firmware offload), and ``barriers`` declares
    cluster-wide barriers (id -> parties).

    ``kernel`` names a simulation kernel in
    :data:`repro.registry.KERNELS` (``single`` — the default in-process
    event loop — or ``sharded``); ``shards`` > 1 auto-selects the
    sharded kernel and sets its worker count, and ``shard_hints`` pins
    named host groups (a host's directly-attached switch, e.g.
    ``"sw-syr"``) to explicit shard indices instead of the default
    round-robin assignment.  ``supervision`` (a ``[runtime.supervision]``
    table) bounds every coordinator wait with wall-clock deadlines and
    selects the recovery policy applied when a shard worker crashes or
    hangs (:class:`SupervisionSpec`); it is inert on the single kernel.
    """

    name: str
    description: str = ""
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    mode: str = "p4"
    flow: Optional[str] = None
    flow_kwargs: dict = field(default_factory=dict)
    error: Optional[str] = None
    error_kwargs: dict = field(default_factory=dict)
    collectives: str = "host"
    barriers: dict = field(default_factory=dict)
    kernel: str = "single"
    shards: int = 1
    shard_hints: dict = field(default_factory=dict)
    supervision: SupervisionSpec = field(default_factory=SupervisionSpec)
    app: Optional[AppSpec] = None
    faults: Optional[FaultSpec] = None
    resilience: Optional[ResilienceSpec] = None
    obs: ObsSpec = field(default_factory=ObsSpec)

    def __post_init__(self) -> None:
        # accept plain mappings for the nested tables, same as from_dict,
        # so Python callers can write app={"driver": ...} inline
        for attr, spec_cls in (("cluster", ClusterSpec), ("app", AppSpec),
                               ("faults", FaultSpec),
                               ("resilience", ResilienceSpec),
                               ("supervision", SupervisionSpec),
                               ("obs", ObsSpec)):
            value = getattr(self, attr)
            if isinstance(value, Mapping):
                object.__setattr__(self, attr, spec_cls.from_dict(value))
            elif value is not None and not isinstance(value, spec_cls):
                raise _err(f"scenario.{attr}",
                           f"must be a {spec_cls.__name__} or a table "
                           f"(got {value!r})")
        _check_str(self.name, "scenario.name")
        if not isinstance(self.description, str):
            raise _err("scenario.description",
                       f"must be a string (got {self.description!r})")
        _check_str(self.mode, "runtime.mode")
        _check_str(self.flow, "runtime.flow", optional=True)
        _check_str(self.error, "runtime.error", optional=True)
        _check_str(self.collectives, "runtime.collectives")
        object.__setattr__(self, "flow_kwargs",
                           _plain_dict(self.flow_kwargs, "runtime.flow_kwargs"))
        object.__setattr__(self, "error_kwargs",
                           _plain_dict(self.error_kwargs,
                                       "runtime.error_kwargs"))
        barriers: dict[int, int] = {}
        for k, v in _plain_dict(self.barriers, "runtime.barriers").items():
            try:
                bid = int(k)
            except (TypeError, ValueError):
                raise _err("runtime.barriers",
                           f"barrier ids must be integers (got {k!r})") from None
            if not isinstance(v, int) or v < 1:
                raise _err(f"runtime.barriers[{bid}]",
                           f"parties must be a positive integer (got {v!r})")
            barriers[bid] = v
        object.__setattr__(self, "barriers", barriers)
        _check_str(self.kernel, "runtime.kernel")
        if not isinstance(self.shards, int) or self.shards < 1:
            raise _err("runtime.shards",
                       f"must be a positive integer (got {self.shards!r})")
        hints: dict[str, int] = {}
        for k, v in _plain_dict(self.shard_hints,
                                "runtime.shard_hints").items():
            if not isinstance(v, int) or v < 0:
                raise _err(f"runtime.shard_hints[{k!r}]",
                           f"shard index must be a non-negative integer "
                           f"(got {v!r})")
            hints[k] = v
        object.__setattr__(self, "shard_hints", hints)
        if self.shards > 1 and self.kernel == "single":
            # shards > 1 is meaningless on the single kernel: selecting
            # the shard count selects the sharded kernel
            object.__setattr__(self, "kernel", "sharded")
        if self.flow_kwargs and self.flow is None:
            raise _err("runtime.flow_kwargs",
                       "given without runtime.flow; name the flow-control "
                       "policy these arguments configure")
        if self.error_kwargs and self.error is None:
            raise _err("runtime.error_kwargs",
                       "given without runtime.error; name the error-control "
                       "policy these arguments configure")

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        """Canonical nested document (stable key order, defaults omitted)."""
        doc: dict[str, Any] = {"name": self.name}
        if self.description:
            doc["description"] = self.description
        cluster = self.cluster.to_dict()
        if cluster:
            doc["cluster"] = cluster
        runtime: dict[str, Any] = {}
        if self.mode != "p4":
            runtime["mode"] = self.mode
        for key in ("flow", "error"):
            if getattr(self, key) is not None:
                runtime[key] = getattr(self, key)
                kwargs = getattr(self, f"{key}_kwargs")
                if kwargs:
                    runtime[f"{key}_kwargs"] = dict(kwargs)
        if self.collectives != "host":
            runtime["collectives"] = self.collectives
        if self.barriers:
            runtime["barriers"] = {str(k): v
                                   for k, v in sorted(self.barriers.items())}
        if self.kernel != "single":
            runtime["kernel"] = self.kernel
        if self.shards != 1:
            runtime["shards"] = self.shards
        if self.shard_hints:
            runtime["shard_hints"] = dict(sorted(self.shard_hints.items()))
        supervision = self.supervision.to_dict()
        if supervision:
            runtime["supervision"] = supervision
        if runtime:
            doc["runtime"] = runtime
        if self.app is not None:
            doc["app"] = self.app.to_dict()
        if self.faults is not None:
            faults = self.faults.to_dict()
            if faults:
                doc["faults"] = faults
        if self.resilience is not None:
            doc["resilience"] = self.resilience.to_dict()
        obs = self.obs.to_dict()
        if obs:
            doc["obs"] = obs
        return doc

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioSpec":
        _check_table(raw, "scenario",
                     ("name", "description", "cluster", "runtime", "app",
                      "faults", "resilience", "obs"))
        if "name" not in raw:
            raise _err("scenario.name", "is required (the scenario's identity "
                       "in reports, digests and the experiment ledger)")
        runtime = raw.get("runtime", {})
        _check_table(runtime, "runtime",
                     ("mode", "flow", "flow_kwargs", "error", "error_kwargs",
                      "collectives", "barriers", "kernel", "shards",
                      "shard_hints", "supervision"))
        kw: dict[str, Any] = {
            "name": raw["name"],
            "description": raw.get("description", ""),
            "mode": runtime.get("mode", "p4"),
            "flow": runtime.get("flow"),
            "flow_kwargs": runtime.get("flow_kwargs", {}),
            "error": runtime.get("error"),
            "error_kwargs": runtime.get("error_kwargs", {}),
            "collectives": runtime.get("collectives", "host"),
            "barriers": runtime.get("barriers", {}),
            "kernel": runtime.get("kernel", "single"),
            "shards": runtime.get("shards", 1),
            "shard_hints": runtime.get("shard_hints", {}),
        }
        if "supervision" in runtime:
            kw["supervision"] = SupervisionSpec.from_dict(
                runtime["supervision"])
        if "cluster" in raw:
            kw["cluster"] = ClusterSpec.from_dict(raw["cluster"])
        if "app" in raw:
            kw["app"] = AppSpec.from_dict(raw["app"])
        if "faults" in raw:
            kw["faults"] = FaultSpec.from_dict(raw["faults"])
        if "resilience" in raw:
            kw["resilience"] = ResilienceSpec.from_dict(raw["resilience"])
        if "obs" in raw:
            kw["obs"] = ObsSpec.from_dict(raw["obs"])
        return cls(**kw)

    # ------------------------------------------------------------- identity
    def canonical_json(self) -> str:
        """The byte-stable form the digest is computed over."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """A short, stable content digest: same spec -> same digest."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]

    # ------------------------------------------------------- derived specs
    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with top-level fields replaced (frozen-safe)."""
        return dataclasses.replace(self, **changes)

    def with_app_params(self, **params) -> "ScenarioSpec":
        """A copy with app params overlaid — how benchmarks sweep one
        checked-in scenario across table cells."""
        if self.app is None:
            raise SpecError(f"scenario {self.name!r} has no [app] table to "
                            "parameterize")
        merged = dict(self.app.params)
        merged.update(params)
        return self.replace(app=AppSpec(self.app.driver, merged))

    def with_cluster(self, **changes) -> "ScenarioSpec":
        """A copy with cluster fields replaced."""
        return self.replace(cluster=dataclasses.replace(self.cluster,
                                                        **changes))
