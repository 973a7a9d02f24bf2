"""Unified telemetry: metrics registry, span tracing, trace export.

* :mod:`repro.obs.registry` — typed counters/gauges/histograms with
  labels; every layer publishes through the registry that lives on the
  :class:`~repro.sim.Simulator` (``sim.metrics``).
* :mod:`repro.obs.export` — the unified span/point/fault stream and its
  Chrome trace-event / JSONL serialisations.
* :mod:`repro.obs.kpi` — snapshot reducers (cluster totals, merged
  histograms, bucket quantiles) the fleet KPI layer builds on.
* :mod:`repro.obs.recovery` — the ``kernel.recovery.*`` counter family
  the sharded kernel's supervision layer stamps when it recovers from
  a shard-worker failure.

``repro.obs.export`` is loaded lazily: the simulation kernel imports the
registry at interpreter start-up, and the exporter imports the tracer
(which sits above the kernel), so an eager import here would be
circular.
"""

from .registry import (
    CardinalityError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)

__all__ = [
    "CardinalityError", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "NULL_REGISTRY",
    "entity_track", "export_chrome_trace", "export_jsonl",
    "iter_records", "to_chrome_events",
    "counter_total", "histogram_family", "histogram_quantile",
    "merge_histograms",
    "RECOVERY_COUNTERS", "SUPERVISOR_ENTITY", "stamp_recovery",
]

_EXPORT_NAMES = {"entity_track", "export_chrome_trace", "export_jsonl",
                 "iter_records", "to_chrome_events"}
_KPI_NAMES = {"counter_total", "histogram_family", "histogram_quantile",
              "merge_histograms"}
_RECOVERY_NAMES = {"RECOVERY_COUNTERS", "SUPERVISOR_ENTITY",
                   "stamp_recovery"}


def __getattr__(name: str):
    if name in _EXPORT_NAMES:
        from . import export
        return getattr(export, name)
    if name in _KPI_NAMES:
        from . import kpi
        return getattr(kpi, name)
    if name in _RECOVERY_NAMES:
        from . import recovery
        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
