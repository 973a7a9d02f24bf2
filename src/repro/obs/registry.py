"""The metrics registry: typed counters, gauges and histograms.

Every layer of the reproduction — simulation kernel, MTS scheduler, MPS
(with its error/flow-control strategies), ATM adapter/link/switch,
Ethernet LAN, TCP/IP, the fault injector — publishes its statistics
through one :class:`MetricsRegistry` instead of keeping private integer
attributes that a report generator must know how to scrape.  The
registry lives on the :class:`~repro.sim.Simulator` (one universe, one
registry), so any component holding a ``sim`` reference can create an
instrument without constructor plumbing::

    self._m_frames = sim.metrics.counter(
        "ethernet.frames_delivered", help="frames carried end to end")
    ...
    self._m_frames.inc()

The registry is the only copy of every count it publishes: a layer
keeps no integer twin next to its handle, so reports, benchmarks and
tests read the count here.  A disabled registry therefore counts
nothing (``repro.diagnostics.cluster_report`` refuses one).

Design rules, in order of importance:

1. **Hot paths must stay hot.**  An instrument handle is created once at
   construction time; recording is one bound-method call.  A disabled
   registry (:data:`NULL_REGISTRY`) hands out shared no-op singletons,
   so the instrumented layers never branch on "is telemetry on?".
2. **Determinism.**  Metrics never feed back into the simulation: no
   wall-clock, no randomness, and :meth:`MetricsRegistry.snapshot`
   returns a deterministically-ordered structure, so two same-seed runs
   produce byte-identical snapshots.
3. **Bounded cardinality.**  Labelled instruments (``host="n3"``,
   ``pid=2``) are capped per metric name; runaway label sets raise
   :class:`CardinalityError` at creation time rather than silently
   eating memory.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Iterable, Optional, Tuple

__all__ = [
    "CardinalityError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (seconds-flavoured but generic);
#: an implicit +inf bucket always terminates the list.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

#: per-metric-name cap on distinct label sets
DEFAULT_MAX_LABEL_SETS = 1024


class CardinalityError(RuntimeError):
    """A metric name accumulated more label sets than the registry allows."""


def _label_key(labels: dict[str, Any]) -> LabelKey:
    """Canonical, hashable, deterministically-ordered label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _label_str(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0

    @property
    def value(self) -> int | float:
        return self._value

    def inc(self, n: int | float = 1) -> None:
        if not n >= 0:                  # NaN too
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self._value += n

    def _snapshot(self) -> int | float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, live threads...)."""

    __slots__ = ("name", "labels", "_value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value: int | float = 0

    @property
    def value(self) -> int | float:
        return self._value

    def set(self, v: int | float) -> None:
        self._value = v

    def inc(self, n: int | float = 1) -> None:
        self._value += n

    def dec(self, n: int | float = 1) -> None:
        self._value -= n

    def _snapshot(self) -> int | float:
        return self._value


class Histogram:
    """A distribution recorded into fixed buckets.

    Buckets are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or in the implicit ``+inf`` bucket.
    ``sum``/``count``/``min``/``max`` are tracked exactly.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "sum", "count",
                 "min", "max")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # + the +inf bucket
        self.sum: float = 0.0
        self.count: int = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def value(self) -> float:
        """Mean observation (0.0 when empty) — the scalar summary."""
        return self.sum / self.count if self.count else 0.0

    def observe(self, v: int | float) -> None:
        if v - v != 0:                  # NaN or +-inf
            raise ValueError(f"histogram {self.name!r} cannot observe {v}")
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    def _snapshot(self) -> dict[str, Any]:
        buckets = {f"{b:.9g}": c for b, c in zip(self.bounds, self.counts)}
        buckets["+inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max, "buckets": buckets}


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()

    name = "<null>"
    labels: LabelKey = ()
    kind = "null"
    value = 0
    count = 0
    sum = 0.0

    def inc(self, n: int | float = 1) -> None:
        pass

    def dec(self, n: int | float = 1) -> None:
        pass

    def set(self, v: int | float) -> None:
        pass

    def observe(self, v: int | float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create instrument factory plus deterministic snapshots.

    ``enabled=False`` turns every factory into a constant returning the
    shared no-op instrument — the zero-overhead configuration benchmarks
    use (see :data:`NULL_REGISTRY`).
    """

    def __init__(self, enabled: bool = True,
                 max_label_sets: int = DEFAULT_MAX_LABEL_SETS):
        self.enabled = enabled
        self.max_label_sets = max_label_sets
        #: name -> label-key -> instrument
        self._metrics: dict[str, dict[LabelKey, Any]] = {}
        #: name -> declared kind + help (first registration wins)
        self._meta: dict[str, tuple[str, str]] = {}
        #: the one copy of each label set's key, shared by every family
        #: that has it, and of each histogram's bounds (a series costs
        #: its instrument, not its labels)
        self._keys: dict[tuple, tuple] = {}

    # ------------------------------------------------------------ factories
    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    def _get_or_create(self, cls, name: str, help: str,
                       labels: dict[str, Any], **kw) -> Any:
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = _label_key(labels)
        key = self._keys.setdefault(key, key)
        family = self._metrics.get(name)
        if family is None:
            family = self._metrics[name] = {}
            self._meta[name] = (cls.kind, help)
        else:
            kind, _ = self._meta[name]
            if kind != cls.kind:
                raise TypeError(
                    f"metric {name!r} already registered as a {kind}, "
                    f"cannot re-register as a {cls.kind}")
        inst = family.get(key)
        if inst is None:
            if len(family) >= self.max_label_sets:
                raise CardinalityError(
                    f"metric {name!r} exceeded {self.max_label_sets} "
                    f"label sets (attempted {_label_str(key) or '<none>'})")
            inst = family[key] = cls(name, key, **kw)
            if cls is Histogram:
                inst.bounds = self._keys.setdefault(inst.bounds, inst.bounds)
        return inst

    # -------------------------------------------------------------- reading
    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str, default: int | float = 0,
              **labels: Any) -> Any:
        """The scalar value of one instrument (``default`` if absent)."""
        inst = self._metrics.get(name, {}).get(_label_key(labels))
        return default if inst is None else inst.value

    def total(self, name: str) -> int | float:
        """Sum of a metric's scalar value across every label set."""
        return sum(i.value for i in self._metrics.get(name, {}).values())

    def label_values(self, name: str, label: str) -> dict[str, int | float]:
        """``{label-value: scalar}`` for one label dimension of a metric."""
        out: dict[str, int | float] = {}
        for key, inst in self._metrics.get(name, {}).items():
            for k, v in key:
                if k == label:
                    out[v] = out.get(v, 0) + inst.value
        return dict(sorted(out.items()))

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{metric-name: {label-string: value}}``, deterministically
        ordered; histograms expand to their bucket dict."""
        out: dict[str, dict[str, Any]] = {}
        for name in sorted(self._metrics):
            family = self._metrics[name]
            out[name] = {_label_str(key): family[key]._snapshot()
                         for key in sorted(family)}
        return out

    def describe(self) -> dict[str, tuple[str, str]]:
        """``{name: (kind, help)}`` for every registered metric."""
        return dict(sorted(self._meta.items()))

    def merge(self, registries: list["MetricsRegistry"],
              pick: Callable[[str, dict, list], Any]) -> None:
        """Replace every series here by a merge of ``registries``'.

        For each name and label set any of them holds, ``pick(name,
        labels, copies)`` returns the instrument to keep; ``copies[i]``
        is registry ``i``'s instrument, or ``None`` where it has none.
        A disabled registry stays empty.
        """
        if not self.enabled:
            return
        meta: dict[str, tuple[str, str]] = {}
        for reg in registries:
            for name in reg._metrics:
                meta.setdefault(name, reg._meta[name])
        metrics: dict[str, dict[LabelKey, Any]] = {}
        for name in sorted(meta):
            families = [reg._metrics.get(name, {}) for reg in registries]
            metrics[name] = {
                key: pick(name, dict(key), [f.get(key) for f in families])
                for key in dict.fromkeys(k for f in families for k in f)}
        self._metrics, self._meta = metrics, meta


#: the shared disabled registry: hand this to a :class:`~repro.sim.Simulator`
#: (or pass ``metrics=False`` to the cluster builders) for zero-overhead runs.
NULL_REGISTRY = MetricsRegistry(enabled=False)
