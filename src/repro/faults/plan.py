"""Fault plans: declarative, seed-reproducible failure schedules.

A :class:`FaultPlan` is an immutable, time-sorted list of fault events —
link outages, BER spikes, host crashes, switch-port stalls, network
partitions, message-level loss — that a
:class:`~repro.faults.injector.FaultInjector` arms against a built
cluster.  Plans are pure data: the same plan armed against the same
seeded cluster produces a bit-identical simulation, which is what lets
the chaos suite assert determinism across service modes and repeats.

Every event has an absolute start time ``at`` (simulated seconds) and a
``duration``; ``duration=None`` means the fault is permanent (never
heals), which is how the partition-raises-``MessageLost`` scenarios are
written.

:meth:`FaultPlan.random` draws a reproducible random plan from a seed —
the generator behind the chaos sweep tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..config.schema import SpecError, build, write
from ..registry import FAULT_KINDS, UnknownNameError

__all__ = [
    "FaultEvent", "LinkOutage", "BerSpike", "HostCrash", "SwitchPortStall",
    "Partition", "MessageLoss", "FaultPlan",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scheduled fault.

    ``at`` is the injection time; ``duration`` the healing delay after
    ``at`` (``None`` = permanent).  A kind's fields are its whole
    declarative form: :meth:`from_dict` reads an event table against
    them and :meth:`to_dict` writes them back.  A rule that rejects a
    field names it first (``"at: ..."``), so a reader can say which key
    of which table was wrong.
    """

    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        # written so that NaN, which compares false, fails them too
        if not self.at >= 0:
            raise ValueError(f"at: fault time must be non-negative "
                             f"(got {self.at!r})")
        if self.duration is not None and not self.duration > 0:
            raise ValueError(f"duration: fault duration must be positive "
                             f"or omitted (got {self.duration!r})")

    @property
    def ends_at(self) -> Optional[float]:
        return None if self.duration is None else self.at + self.duration

    @property
    def permanent(self) -> bool:
        return self.duration is None

    #: registered kind name, filled in by ``@FAULT_KINDS.register``
    kind = "fault"

    def _span(self) -> str:
        if self.permanent:
            return f"@{self.at:g}s permanent"
        return f"@{self.at:g}s for {self.duration:g}s"

    def describe(self) -> str:  # pragma: no cover - overridden
        return f"fault {self._span()}"

    def to_dict(self) -> dict:
        """Declarative form: ``{"kind": ..., "at": ..., ...}``, fields
        at their defaults left out and tuples as lists, so the result
        serializes to TOML/JSON as-is and round-trips through
        :meth:`from_dict`."""
        return {"kind": self.kind, **write(self)}

    @staticmethod
    def from_dict(raw: dict, path: str = "fault") -> "FaultEvent":
        """Build the registered event class from its declarative form;
        a bad table is a :class:`~repro.config.SpecError` naming
        ``path.<key>``."""
        raw = dict(raw)
        if "kind" not in raw:
            raise SpecError(f"{path}.kind is required; registered kinds: "
                            f"{', '.join(FAULT_KINDS.names())}")
        try:
            cls = FAULT_KINDS.get(raw.pop("kind"))
        except (UnknownNameError, TypeError) as e:   # TypeError: unhashable
            raise SpecError(f"{path}.kind: {e}") from None
        return build(cls, raw, path)


def _register_kind(name: str):
    """Register a fault-event class and stamp its ``kind`` name."""
    def decorator(cls):
        cls.kind = name
        return FAULT_KINDS.register(name, cls)
    return decorator


@_register_kind("link-outage")
@dataclass(frozen=True)
class LinkOutage(FaultEvent):
    """The host's physical link goes dark in both directions.

    On an ATM cluster this fails the host↔switch duplex TAXI link (every
    burst in the window reassembles corrupted, like a pulled fiber); on
    an Ethernet cluster it fails the host's NIC.

    ``scope`` narrows which rail dies on a dual-rail (``atm-dual``)
    host: ``"all"`` (default) fails both the ATM uplink and the
    Ethernet NIC, ``"atm"`` pulls only the fiber to the switch,
    ``"nic"`` only the Ethernet drop.  ``scope="atm"`` is the scenario
    behind HSM→NSM failover — the fast path dies while TCP survives.
    """

    host: int = 0
    scope: str = "all"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scope not in ("all", "atm", "nic"):
            raise ValueError(
                f"scope: link-outage scope must be 'all', 'atm' or 'nic' "
                f"(got {self.scope!r})")

    def describe(self) -> str:
        which = "" if self.scope == "all" else f", scope={self.scope}"
        return f"link-outage(host={self.host}{which}) {self._span()}"


@_register_kind("ber-spike")
@dataclass(frozen=True)
class BerSpike(FaultEvent):
    """Transient bit-error-rate spike.

    On an ATM cluster the spike applies to ``host``'s TAXI link (both
    directions); on an Ethernet cluster it applies to the shared segment
    (``host`` is ignored — there is only one medium).
    """

    host: int = 0
    ber: float = 1e-6

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.ber < 1.0):
            raise ValueError(f"ber: bit error rate must be in [0, 1) "
                             f"(got {self.ber!r})")

    def describe(self) -> str:
        return f"ber-spike(host={self.host}, ber={self.ber:g}) {self._span()}"


@_register_kind("host-crash")
@dataclass(frozen=True)
class HostCrash(FaultEvent):
    """Fail-stop host crash with later restart.

    The host's CPU freezes at the next quantum boundary and its network
    interfaces go deaf; on restart everything resumes where it stalled
    (state survives — the paper-era 'reboot and rejoin' model, which is
    what lets applications recover without an application-level
    checkpoint protocol).
    """

    host: int = 0

    def describe(self) -> str:
        return f"host-crash(host={self.host}) {self._span()}"


@_register_kind("switch-port-stall")
@dataclass(frozen=True)
class SwitchPortStall(FaultEvent):
    """The switch output port feeding ``host`` wedges: cells queue but
    none drain until the stall clears (head-of-line blocking, not loss).
    ATM clusters only."""

    host: int = 0

    def describe(self) -> str:
        return f"switch-port-stall(host={self.host}) {self._span()}"


@_register_kind("partition")
@dataclass(frozen=True)
class Partition(FaultEvent):
    """Network partition: processes in different groups cannot exchange
    NCS messages until the partition heals.

    ``groups`` are disjoint tuples of process indices.  Hosts absent
    from every group are unaffected.  The filter sits at the NCS message
    arrival point, so the behaviour is identical — and bounded — under
    all three service modes: error control retransmits across the
    outage and, for a permanent partition, gives up and raises
    :class:`~repro.core.mps.error_control.MessageLost` instead of
    letting the application hang.
    """

    groups: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.groups) < 2:
            raise ValueError("groups: a partition needs at least two "
                             "groups")
        seen: set[int] = set()
        for g in self.groups:
            for pid in g:
                if pid in seen:
                    raise ValueError(f"groups: process {pid} appears in "
                                     "two partition groups")
                seen.add(pid)

    def describe(self) -> str:
        groups = "|".join(",".join(str(p) for p in g) for g in self.groups)
        return f"partition({groups}) {self._span()}"


@_register_kind("message-loss")
@dataclass(frozen=True)
class MessageLoss(FaultEvent):
    """Message-level loss: each NCS message arriving at an affected
    process is independently discarded with probability ``p`` (drawn
    from a dedicated per-process RNG stream, so arming the fault never
    perturbs any other random draw in the simulation).

    ``pids=None`` affects every process.  This is the workhorse of the
    error-control tests: with ``error='ack'`` the EC thread retransmits
    through the loss; with ``p=1.0`` and a permanent window the loss is
    unrecoverable and surfaces as ``MessageLost``.
    """

    p: float = 0.1
    pids: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p: loss probability must be in (0, 1] "
                             f"(got {self.p!r})")

    def describe(self) -> str:
        who = "all" if self.pids is None else ",".join(map(str, self.pids))
        return f"message-loss(p={self.p:g}, pids={who}) {self._span()}"


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events, sorted by injection time."""

    events: tuple[FaultEvent, ...] = ()
    #: free-form provenance (e.g. the seed that generated a random plan)
    label: str = ""
    #: the kinds :meth:`random` draws from, by their short names
    RANDOM_KINDS = ("link", "ber", "crash", "stall", "msgloss")

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def permanent_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.permanent)

    def describe(self) -> str:
        """One line per event — stable text used in logs and EXPERIMENTS."""
        head = f"FaultPlan({self.label or 'unnamed'}, {len(self.events)} events)"
        return "\n".join([head] + [f"  {e.describe()}" for e in self.events])

    # ------------------------------------------------- declarative form
    def to_dicts(self) -> list[dict]:
        """The plan as plain event tables (the scenario-file form)."""
        return [e.to_dict() for e in self.events]

    @staticmethod
    def from_dicts(events: Sequence[dict], label: str = "") -> "FaultPlan":
        """Rebuild a plan from event tables; inverse of :meth:`to_dicts`.

        Each table names its registered ``kind`` plus the event's
        fields — unknown kinds and unknown fields fail with the list
        of alternatives, and every error names ``faults.events[i]``.
        """
        return FaultPlan(tuple(FaultEvent.from_dict(e, f"faults.events[{i}]")
                               for i, e in enumerate(events)), label=label)

    @staticmethod
    def random(seed: int, n_hosts: int, t_max: float = 0.5,
               n_events: int = 4,
               kinds: Sequence[str] = RANDOM_KINDS) -> "FaultPlan":
        """Draw a reproducible transient-fault plan.

        All generated faults are transient (bounded duration), so a
        run under error control is expected to *recover*; permanent
        scenarios are written explicitly.  The same ``(seed, n_hosts,
        t_max, n_events, kinds)`` always yields the same plan.
        """
        FaultPlan.check_random(seed, n_hosts, t_max, n_events, kinds)
        import numpy as np
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        for _ in range(n_events):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            at = float(rng.uniform(0.0, t_max * 0.6))
            duration = float(rng.uniform(t_max * 0.02, t_max * 0.25))
            host = int(rng.integers(0, n_hosts))
            if kind == "link":
                events.append(LinkOutage(at, duration, host=host))
            elif kind == "ber":
                ber = float(10.0 ** rng.uniform(-7.0, -4.5))
                events.append(BerSpike(at, duration, host=host, ber=ber))
            elif kind == "crash":
                events.append(HostCrash(at, duration, host=host))
            elif kind == "stall":
                events.append(SwitchPortStall(at, duration, host=host))
            else:
                p = float(rng.uniform(0.05, 0.4))
                events.append(MessageLoss(at, duration, p=p))
        return FaultPlan(tuple(events), label=f"random(seed={seed})")

    @staticmethod
    def check_random(seed=0, n_hosts=1, t_max=0.5, n_events=0,
                     kinds=RANDOM_KINDS) -> None:
        """A ValueError naming the first bad argument of :meth:`random`."""
        if n_hosts < 1:
            raise ValueError(f"n_hosts: need at least one host, not {n_hosts}")
        if not (math.isfinite(t_max) and t_max > 0):
            raise ValueError(f"t_max: must be finite and > 0, not {t_max}")
        if n_events < 0:
            raise ValueError(f"n_events: must be >= 0, not {n_events}")
        known = FaultPlan.RANDOM_KINDS
        if not kinds or any(k not in known for k in kinds):
            raise ValueError(f"kinds: must be some of {known}, not {kinds}")
