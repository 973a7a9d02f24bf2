"""Named component registries — the pluggable seams of the NCS stack.

The paper's architecture is explicitly compositional: two service tiers
(NSM/HSM, Fig 6), swappable message-passing filters, and per-application
flow/error control "invoked dynamically at runtime" (§3).  This module
is the machinery that makes each of those seams a *named*, extensible
plug point instead of an ``if/elif`` chain — eight registries, one per
concept:

* :data:`TRANSPORTS` — service-mode name -> transport factory
  (``repro.core.mps.transports``);
* :data:`TOPOLOGIES` — topology name -> cluster builder
  (``repro.net.topology``, ``repro.net.nynet``, ``repro.apps.common``):
  one call builds and returns the whole
  :class:`~repro.net.topology.Cluster`;
* :data:`FLOW_CONTROLS` / :data:`ERROR_CONTROLS` — policy name ->
  strategy class (``repro.core.mps.flow_control`` / ``error_control``);
* :data:`APP_DRIVERS` — driver name -> scenario app driver
  (``repro.apps.drivers``);
* :data:`FAULT_KINDS` — fault-event kind -> event dataclass
  (``repro.faults.plan``);
* :data:`COLLECTIVES` — collective-strategy name -> per-node strategy
  factory (``repro.core.mps.collectives``): host-side trees vs
  NIC-offloaded barrier/bcast/reduce;
* :data:`KERNELS` — simulation-kernel name -> scenario executor
  (``repro.config.build`` / ``repro.sim.sharded``): the ``single``
  in-process event loop vs the ``sharded`` multi-worker kernel.

Components register themselves at import time, and each registry names
the stock modules that hold its own components.  A registry imports
them in order, one at a time, on the first lookup of a name it does not
hold yet; listing it (:meth:`Registry.names`, ``len``, iteration,
``--list``, an unknown name's alternatives) imports them all.  So a run
loads only the components its spec names::

    @FLOW_CONTROLS.register("window")
    class WindowFlowControl(FlowControl): ...

and are resolved by name::

    FLOW_CONTROLS.get("window")          # -> the class
    FLOW_CONTROLS.get("window")          # -> UnknownNameError listing
                                         #    the registered alternatives

Unknown names always fail with the sorted list of registered
alternatives, so a typo in a scenario file is a one-line fix, not an
archaeology session.  Duplicate registrations fail loudly too — two
plugins silently fighting over one name is how heisenbugs are born.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Iterator

__all__ = [
    "Registry", "UnknownNameError", "DuplicateNameError",
    "TRANSPORTS", "TOPOLOGIES", "FLOW_CONTROLS", "ERROR_CONTROLS",
    "APP_DRIVERS", "FAULT_KINDS", "COLLECTIVES", "KERNELS", "all_registries",
]


class UnknownNameError(ValueError, KeyError):
    """Lookup of a name nobody registered.

    Subclasses both :class:`ValueError` (callers validating user input)
    and :class:`KeyError` (callers treating the registry as a mapping).
    """

    # KeyError.__str__ would repr-quote the whole message; keep it plain
    __str__ = Exception.__str__


class DuplicateNameError(ValueError):
    """Two components tried to claim the same name."""


class Registry:
    """A named map of pluggable components of one ``kind``.

    ``kind`` is a human-readable noun phrase ("transport", "topology
    builder") used in error messages and ``--list`` output; ``modules``
    are the stock modules that register into it, not imported yet.
    """

    def __init__(self, kind: str, *modules: str):
        self.kind = kind
        self._modules = list(modules)
        self._items: dict[str, Any] = {}
        self._help: dict[str, str] = {}

    def _load(self, name: Any = None) -> None:
        """Import stock modules in order until ``name`` is registered
        (every one of them for ``None``)."""
        while self._modules and (name is None or name not in self._items):
            module = self._modules.pop(0)     # popped first: no re-entry
            try:
                import_module(module)
            except BaseException:
                self._modules.insert(0, module)   # the next lookup re-raises
                raise

    # ------------------------------------------------------------ mutation
    def register(self, name: str, obj: Any = None, *,
                 help: str = "") -> Any:
        """Register ``obj`` under ``name``; usable as a decorator.

        ``help`` (or the object's first docstring line) is shown by
        ``python -m repro.run --list``.  A third-party name must not
        match a stock one: a clash raises only once the stock module is
        imported, and until then the third-party component is the one
        found.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, "
                             f"got {name!r}")
        if obj is None:
            def decorator(obj: Any) -> Any:
                self.register(name, obj, help=help)
                return obj
            return decorator
        if name in self._items:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered "
                f"(to {self._items[name]!r}); pick another name or "
                f"unregister the existing component first")
        self._items[name] = obj
        doc = help or (getattr(obj, "__doc__", None) or "")
        self._help[name] = doc.strip().splitlines()[0] if doc.strip() else ""
        return obj

    def unregister(self, name: str) -> Any:
        """Remove and return a registration (test seam)."""
        if name not in self:
            raise UnknownNameError(self._unknown_message(name))
        self._help.pop(name, None)
        return self._items.pop(name)

    # ------------------------------------------------------------- lookup
    def get(self, name: str) -> Any:
        if name not in self:
            raise UnknownNameError(self._unknown_message(name))
        return self._items[name]

    def _unknown_message(self, name: Any) -> str:
        known = ", ".join(repr(n) for n in self.names()) or "<none>"
        return (f"unknown {self.kind} {name!r}; registered: {known}")

    def help_for(self, name: str) -> str:
        self._load(name)
        return self._help.get(name, "")

    def names(self) -> list[str]:
        self._load()
        return sorted(self._items)

    def items(self) -> list[tuple[str, Any]]:
        self._load()
        return sorted(self._items.items())

    def __contains__(self, name: object) -> bool:
        self._load(name)
        return name in self._items

    def __len__(self) -> int:
        return len(self.names())

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


#: service-mode name -> transport factory ``(runtime, pid) -> NcsTransport``
TRANSPORTS = Registry("transport", "repro.core.mps.transports",
                      "repro.resilience.failover")

#: topology name -> cluster builder ``(**kwargs) -> Cluster``
TOPOLOGIES = Registry("topology builder", "repro.net.topology",
                      "repro.net.nynet", "repro.apps.common")

#: policy name -> :class:`~repro.core.mps.flow_control.FlowControl` class
FLOW_CONTROLS = Registry("flow-control policy",
                         "repro.core.mps.flow_control")

#: policy name -> :class:`~repro.core.mps.error_control.ErrorControl` class
ERROR_CONTROLS = Registry("error-control policy",
                          "repro.core.mps.error_control")

#: driver name -> scenario app driver ``(run: ScenarioRun) -> Any``
APP_DRIVERS = Registry("app driver", "repro.apps.drivers")

#: fault kind -> :class:`~repro.faults.plan.FaultEvent` dataclass
FAULT_KINDS = Registry("fault kind", "repro.faults.plan")

#: strategy name -> :class:`~repro.core.mps.collectives.CollectiveStrategy`
#: factory ``(runtime, pid) -> CollectiveStrategy``
COLLECTIVES = Registry("collective strategy",
                       "repro.core.mps.collectives")

#: kernel name -> scenario executor ``(spec) -> ScenarioResult``
KERNELS = Registry("simulation kernel", "repro.config.build",
                   "repro.sim.sharded")


def all_registries() -> dict[str, Registry]:
    """Every registry, keyed by a stable section name (``--list`` order).

    Each registry imports its own stock modules when it is listed.
    """
    return {
        "transports": TRANSPORTS,
        "topologies": TOPOLOGIES,
        "flow-controls": FLOW_CONTROLS,
        "error-controls": ERROR_CONTROLS,
        "app-drivers": APP_DRIVERS,
        "fault-kinds": FAULT_KINDS,
        "collectives": COLLECTIVES,
        "kernels": KERNELS,
    }
