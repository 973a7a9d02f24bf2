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

Each field is declared once, in its dataclass: :mod:`repro.config.schema`
derives from it the table's keys, defaults and types, reads the table
(``from_dict``) and writes it (``to_dict``).  Specs are immutable,
type-checked on construction with actionable errors (every message
names the offending dotted key), and round-trip deterministically:
``from_dict(to_dict(spec)) == spec`` and the TOML emitted by
:mod:`repro.config.io` is stable under reload.  ``to_dict`` is
*canonical* — fields equal to their defaults are omitted — so two specs
compare equal iff their serialized forms are byte-identical, which is
what makes :meth:`ScenarioSpec.digest` a meaningful identity for
reports and experiment ledgers.  What a type cannot say (``> 0``,
orderings, one-of choices) is each class's ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .schema import SpecError, Table, join, read, settle

__all__ = ["SpecError", "ClusterSpec", "AppSpec", "FaultSpec", "ObsSpec",
           "ResilienceSpec", "ScenarioSpec"]

#: a :class:`ScenarioSpec` field written in the ``[runtime]`` table
RUNTIME = {"table": "runtime"}


def _err(path: str, problem: str) -> SpecError:
    return SpecError(f"{path}: {problem}")


def _named(path: str, value: Optional[str]) -> None:
    if value == "":
        raise _err(path, "must be a non-empty string")


# ---------------------------------------------------------------------------
# ClusterSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSpec(Table):
    """Which topology builder to call, and with what.

    ``topology`` names a builder in :data:`repro.registry.TOPOLOGIES`
    that returns the built cluster in one call (builders register
    themselves at import: ``ethernet``, ``atm-lan``, ``atm-dual``,
    ``nynet``, ``nynet-testbed``, ``wan-ring``, ``platform-ethernet``,
    ``platform-nynet``).  ``options`` are passed through as extra
    keyword arguments, read against the builder's signature when the
    cluster is built, so builder-specific knobs (``train_cells``,
    ``collisions``, ``sites`` ...) need no schema change here.
    Trace/metrics toggles live in :class:`ObsSpec`, not here — the
    observability layer owns them.
    """

    _where = "cluster"

    topology: str = "ethernet"
    #: None = the builder determines the host count (e.g. from sites)
    n_hosts: Optional[int] = None
    seed: int = 1995
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        settle(self)
        _named("cluster.topology", self.topology)
        if self.n_hosts is not None and self.n_hosts < 1:
            raise _err("cluster.n_hosts",
                       f"must be a positive integer or omitted "
                       f"(got {self.n_hosts!r})")


# ---------------------------------------------------------------------------
# AppSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AppSpec(Table):
    """Which registered app driver to run, and its parameters."""

    _where = "app"

    driver: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        settle(self)
        _named("app.driver", self.driver)


# ---------------------------------------------------------------------------
# FaultSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSpec(Table):
    """A declarative fault schedule.

    Exactly one of:

    * ``events`` — a tuple of event tables, each ``{kind = "...", at =
      ..., duration = ..., <kind-specific fields>}`` with ``kind`` in
      :data:`repro.registry.FAULT_KINDS`, read against the kind's
      dataclass when the spec is;
    * ``random`` — ``{seed = ..., n_hosts = ..., t_max = ..., n_events =
      ..., kinds = [...]}``, read against the signature of
      :meth:`repro.faults.FaultPlan.random`.
    """

    _where = "faults"

    events: tuple[dict, ...] = ()
    random: Optional[dict] = None

    def __post_init__(self) -> None:
        settle(self)
        if self.random is not None and self.events:
            raise _err("faults", "give either explicit [[faults.events]] or "
                                 "a [faults.random] table, not both")
        if self.random is not None:
            from ..faults.plan import FaultPlan
            random = read(FaultPlan.random, self.random, "faults.random")
            try:
                FaultPlan.check_random(**random)
            except ValueError as e:
                raise SpecError(join("faults.random", e)) from None
            object.__setattr__(self, "random", random)
        if self.events:
            from ..faults.plan import FaultPlan
            FaultPlan.from_dicts(self.events)

    def to_plan(self):
        """Materialize into a :class:`repro.faults.FaultPlan`."""
        from ..faults.plan import FaultPlan
        if self.random is not None:
            return FaultPlan.random(**self.random)
        return FaultPlan.from_dicts(self.events)

    @classmethod
    def from_plan(cls, plan) -> "FaultSpec":
        """The inverse: a spec whose events reproduce ``plan``."""
        return cls(events=tuple(plan.to_dicts()))


# ---------------------------------------------------------------------------
# ResilienceSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResilienceSpec(Table):
    """Self-healing configuration (:mod:`repro.resilience`).

    When ``enabled``, every node gains a heartbeat failure-detector
    system thread; the timing triad must satisfy
    ``heartbeat_interval_s < suspect_after_s < dead_after_s``.  The
    breaker fields configure the per-peer HSM→NSM circuit breakers of
    the ``hsm-failover`` transport (they are inert under any other
    ``runtime.mode``).  ``enabled`` is always written: an empty
    ``[resilience]`` table would be ambiguous about whether the layer
    is on.
    """

    _where = "resilience"
    _sorted = True

    enabled: bool = field(default=True, metadata={"always": True})
    heartbeat_interval_s: float = 0.02
    suspect_after_s: float = 0.06
    dead_after_s: float = 0.15
    failure_threshold: int = 3
    reset_timeout_s: float = 0.2
    probe_successes: int = 2

    def __post_init__(self) -> None:
        settle(self)
        for name in ("heartbeat_interval_s", "suspect_after_s",
                     "dead_after_s", "reset_timeout_s"):
            if not getattr(self, name) > 0:
                raise _err(f"resilience.{name}", f"must be a positive "
                           f"number (got {getattr(self, name)!r})")
        if not (self.heartbeat_interval_s < self.suspect_after_s
                < self.dead_after_s):
            raise _err("resilience",
                       "need heartbeat_interval_s < suspect_after_s < "
                       f"dead_after_s (got {self.heartbeat_interval_s!r} / "
                       f"{self.suspect_after_s!r} / {self.dead_after_s!r})")
        for name in ("failure_threshold", "probe_successes"):
            if getattr(self, name) < 1:
                raise _err(f"resilience.{name}", f"must be a positive "
                           f"integer (got {getattr(self, name)!r})")

    def build(self):
        """Materialize a :class:`repro.resilience.ClusterResilience`
        (or ``None`` when disabled)."""
        if not self.enabled:
            return None
        from ..resilience import ClusterResilience
        kwargs = dataclasses.asdict(self)
        del kwargs["enabled"]
        return ClusterResilience(**kwargs)


# ---------------------------------------------------------------------------
# ObsSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObsSpec(Table):
    """Telemetry and trace toggles, and where to export them.

    ``metrics``/``trace`` feed the cluster builder; ``chrome_trace`` /
    ``jsonl`` are file targets written after the run (both require
    ``trace = true`` — span export reads the tracer); ``report`` prints
    the :func:`repro.diagnostics.cluster_report` after the run (requires
    ``metrics = true``: the report reads the registry, and a disabled
    registry counts nothing).
    """

    _where = "obs"

    metrics: bool = True
    trace: bool = False
    chrome_trace: Optional[str] = None
    jsonl: Optional[str] = None
    report: bool = False

    def __post_init__(self) -> None:
        settle(self)
        if self.report and not self.metrics:
            raise _err("obs.report",
                       "requires obs.metrics = true (the report reads the "
                       "metrics registry, which counts nothing when off)")
        for name in ("chrome_trace", "jsonl"):
            _named(f"obs.{name}", getattr(self, name))
            if getattr(self, name) is not None and not self.trace:
                raise _err(f"obs.{name}",
                           "requires obs.trace = true (span export reads "
                           "the tracer, which is off by default)")


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec(Table):
    """One complete, reproducible experiment.

    The runtime section mirrors ``NCS_init(flow, error)`` writ large:
    ``mode`` names a registered transport tier (``p4`` / ``nsm`` /
    ``hsm`` out of the box), ``flow``/``error`` name registered control
    policies with their keyword arguments alongside (read against the
    policy's constructor when the runtime is built), ``collectives``
    names a registered collective strategy (``host`` trees by default,
    ``nic`` for SBA-200 firmware offload), and ``barriers`` declares
    cluster-wide barriers (id -> parties).  Every field marked
    :data:`RUNTIME` is a key of the ``[runtime]`` table.

    ``kernel`` names a simulation kernel in
    :data:`repro.registry.KERNELS` (``single`` — the default in-process
    event loop — or ``sharded``); ``shards`` > 1 auto-selects the
    sharded kernel and sets its worker count.
    """

    name: str
    description: str = ""
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    mode: str = field(default="p4", metadata=RUNTIME)
    flow: Optional[str] = field(default=None, metadata=RUNTIME)
    flow_kwargs: dict = field(default_factory=dict, metadata=RUNTIME)
    error: Optional[str] = field(default=None, metadata=RUNTIME)
    error_kwargs: dict = field(default_factory=dict, metadata=RUNTIME)
    collectives: str = field(default="host", metadata=RUNTIME)
    barriers: dict[int, int] = field(default_factory=dict, metadata=RUNTIME)
    kernel: str = field(default="single", metadata=RUNTIME)
    shards: int = field(default=1, metadata=RUNTIME)
    app: Optional[AppSpec] = None
    faults: Optional[FaultSpec] = None
    resilience: Optional[ResilienceSpec] = None
    obs: ObsSpec = field(default_factory=ObsSpec)

    def __post_init__(self) -> None:
        settle(self)
        _named("name", self.name)
        for key in ("mode", "flow", "error", "collectives", "kernel"):
            _named(f"runtime.{key}", getattr(self, key))
        for bid, parties in self.barriers.items():
            if parties < 1:
                raise _err(f"runtime.barriers.{bid}", f"parties must be a "
                           f"positive integer (got {parties!r})")
        if self.shards < 1:
            raise _err("runtime.shards",
                       f"must be a positive integer (got {self.shards!r})")
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
