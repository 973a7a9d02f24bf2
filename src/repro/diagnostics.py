"""Cluster-wide diagnostics, generated from the telemetry registry.

A release-grade observability surface: after (or during) a run,
``cluster_report`` renders the cluster's :class:`~repro.obs.MetricsRegistry`
into one nested dict — Ethernet frames and collisions, ATM cells/PDUs/
drops, TCP segments and retransmissions, NCS message counts and
scheduler context switches — and ``render_report`` pretty-prints it.

Every number comes out of the registry the layers themselves publish
into (see :mod:`repro.obs`), which is the only copy of each count;
nothing here reaches into layer state.  A cluster built with
``metrics=False`` has the no-op null registry, which counts nothing, so
there is nothing to report: :func:`cluster_report` raises
:class:`ValueError` instead of printing zeros.

>>> report = cluster_report(cluster)
>>> print(render_report(report))
"""

from __future__ import annotations

from typing import Any

__all__ = ["cluster_report", "render_report", "RESILIENCE_COUNTERS"]

#: cluster-wide self-healing counters; always reported (zeros when the
#: resilience layer is off) so downstream consumers — ``repro.run
#: --report``, the fleet KPI extractor — see one stable schema
RESILIENCE_COUNTERS = (
    "resilience.failovers", "resilience.breaker_trips",
    "resilience.breaker_recoveries", "resilience.deaths",
    "resilience.rejoins", "resilience.reassigned_units",
)


def cluster_report(cluster, runtime=None, scenario=None) -> dict:
    """Collect counters from every layer of a built cluster.

    ``runtime`` (an :class:`~repro.core.api.NcsRuntime`) adds NCS-level
    counters when provided.  ``scenario`` stamps the report with its
    provenance — either a scenario name (str) or a
    :class:`~repro.config.ScenarioSpec`, in which case the spec's
    content digest is recorded too, tying the numbers back to the exact
    configuration that produced them.  A cluster whose telemetry is off
    has counted nothing: that is a :class:`ValueError`.
    """
    m = cluster.metrics
    if not m.enabled:
        raise ValueError(
            "cluster_report: telemetry is off, so nothing was counted; "
            "build the cluster with metrics=True (in a scenario, "
            "[obs] metrics = true)")
    report = _report_from_registry(cluster, runtime, m)
    if scenario is not None:
        if isinstance(scenario, str):
            provenance = {"name": scenario}
        else:
            provenance = {"name": scenario.name, "digest": scenario.digest()}
        report = {"scenario": provenance, **report}
    return report


def _report_from_registry(cluster, runtime, m) -> dict:
    report: dict[str, Any] = {"medium": cluster.medium, "hosts": {}}

    if cluster.lan is not None:
        report["ethernet"] = {
            "frames_delivered": m.value("ethernet.frames_delivered"),
            "collision_events": m.value("ethernet.collision_events"),
        }
    if cluster.fabric is not None:
        report["atm_switches"] = {
            name: {
                "bursts_forwarded": m.value("atm.bursts_forwarded",
                                            switch=name),
                "bursts_dropped": m.value("atm.bursts_dropped", switch=name),
            }
            for name in cluster.fabric.switches
        }

    for stack in cluster.stacks:
        name = stack.host.name
        host: dict[str, Any] = {}
        host["ip"] = {
            "packets_sent": m.value("ip.packets_sent", host=name),
            "packets_received": m.value("ip.packets_received", host=name),
            "fragments_sent": m.value("ip.fragments_sent", host=name),
        }
        host["tcp"] = {
            "segments_sent": m.value("tcp.segments_sent", host=name),
            "acks_sent": m.value("tcp.acks_sent", host=name),
            "retransmissions": m.value("tcp.retransmissions", host=name),
        }
        if stack.atm_api is not None:
            host["atm"] = {
                "pdus_sent": m.value("atm.pdus_sent", host=name),
                "pdus_received": m.value("atm.pdus_received", host=name),
                "pdus_failed": m.value("atm.pdus_failed", host=name),
                "cells_sent": m.value("atm.cells_sent", host=name),
                "cells_received": m.value("atm.cells_received", host=name),
            }
        report["hosts"][name] = host

    if runtime is not None:
        # a pid's wire traffic, summed over every transport label: a
        # failover transport counts its messages under its sub-transports
        messages = m.label_values("transport.messages_sent", "pid")
        nbytes = m.label_values("transport.bytes_sent", "pid")
        ncs: dict[str, Any] = {}
        for node in runtime.nodes:
            pid = node.pid
            ncs[f"pid{pid}"] = {
                "data_sent": m.value("mps.data_sent", pid=pid),
                "data_received": m.value("mps.data_received", pid=pid),
                "messages_lost": m.value("mps.messages_lost", pid=pid),
                "transport_messages": messages.get(str(pid), 0),
                "transport_bytes": nbytes.get(str(pid), 0),
                "context_switches": m.value("mts.context_switches", pid=pid),
                "threads": m.value("mts.threads_created", pid=pid),
                "ec_retransmissions": m.value("ec.retransmissions", pid=pid),
            }
        report["ncs"] = ncs
        report["resilience"] = _resilience_totals(m)
    return report


def _resilience_totals(m) -> dict:
    """``{counter: cluster total}`` for every self-healing counter.

    Totals come straight from the registry; a run without a
    ``[resilience]`` table simply never incremented them, so the section
    reports zeros instead of disappearing — KPI extraction and report
    diffing rely on the schema being identical either way.
    """
    return {name.split(".", 1)[1]: m.total(name)
            for name in RESILIENCE_COUNTERS}


def render_report(report: dict, indent: int = 0) -> str:
    """Human-readable nested rendering of a :func:`cluster_report`."""
    lines: list[str] = []

    def walk(node: Any, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, dict):
            for key, value in node.items():
                if isinstance(value, dict):
                    lines.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}{key:<22} {value}")
        else:  # pragma: no cover - report values are dicts/scalars
            lines.append(f"{pad}{node}")

    walk(report, indent)
    return "\n".join(lines)
