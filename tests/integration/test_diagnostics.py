"""Tests for the cluster diagnostics module."""

import pytest

import repro.resilience  # noqa: F401  (registers the hsm-failover transport)
from repro.config import SpecError, loads_scenario, run_scenario
from repro.core import NcsRuntime
from repro.core.mps import ServiceMode
from repro.diagnostics import cluster_report, render_report
from repro.net import build_atm_cluster, build_ethernet_cluster
from repro.net.topology import build_atm_dual_cluster
from repro.run import main


def run_workload(cluster, mode):
    rt = NcsRuntime(cluster, mode=mode)

    def sender(ctx, rtid):
        for i in range(4):
            yield ctx.send(rtid, 1, i, 20_000)

    def receiver(ctx):
        for _ in range(4):
            yield ctx.recv()

    rtid = rt.t_create(1, receiver)
    rt.t_create(0, sender, (rtid,))
    rt.run(max_events=2_000_000)
    return rt


class TestClusterReport:
    def test_ethernet_report_counts_traffic(self):
        cluster = build_ethernet_cluster(2)
        rt = run_workload(cluster, ServiceMode.P4)
        report = cluster_report(cluster, rt)
        assert report["medium"] == "ethernet"
        assert report["ethernet"]["frames_delivered"] > 0
        host0 = report["hosts"]["n0"]
        assert host0["tcp"]["segments_sent"] > 0
        assert host0["ip"]["packets_sent"] > 0
        assert report["ncs"]["pid0"]["data_sent"] == 4
        assert report["ncs"]["pid1"]["data_received"] == 4

    def test_atm_report_counts_cells(self):
        cluster = build_atm_cluster(2)
        rt = run_workload(cluster, ServiceMode.HSM)
        report = cluster_report(cluster, rt)
        assert report["medium"] == "atm-lan"
        assert report["atm_switches"]["fore-sw"]["bursts_forwarded"] > 0
        assert report["hosts"]["n0"]["atm"]["cells_sent"] > 0
        assert report["hosts"]["n1"]["atm"]["pdus_received"] > 0
        # HSM bypasses TCP entirely
        assert report["hosts"]["n0"]["tcp"]["segments_sent"] == 0

    def test_transport_counters_reflect_mode(self):
        eth = build_ethernet_cluster(2)
        rt = run_workload(eth, ServiceMode.NSM)
        rep = cluster_report(eth, rt)
        assert rep["ncs"]["pid0"]["transport_messages"] == 4
        assert rep["ncs"]["pid0"]["transport_bytes"] == 4 * 20_000

    def test_report_without_runtime(self):
        cluster = build_ethernet_cluster(2)
        report = cluster_report(cluster)
        assert "ncs" not in report
        assert set(report["hosts"]) == {"n0", "n1"}

    def test_render_is_readable(self):
        cluster = build_atm_cluster(2)
        rt = run_workload(cluster, ServiceMode.HSM)
        text = render_report(cluster_report(cluster, rt))
        assert "atm_switches" in text
        assert "cells_sent" in text
        assert text.count("\n") > 10

    @pytest.mark.parametrize("mode", ["nsm", "hsm", "p4", "hsm-failover"])
    def test_transport_rows_count_every_message_sent(self, mode):
        # a failover transport counts its wire traffic under its
        # sub-transports' labels; the report must still see it
        cluster = build_atm_dual_cluster(2)
        rt = run_workload(cluster, mode)
        row = cluster_report(cluster, rt)["ncs"]["pid0"]
        assert row["data_sent"] == 4
        assert row["transport_messages"] >= row["data_sent"]
        assert row["transport_bytes"] >= 4 * 20_000


class TestTelemetryOff:
    def test_report_on_a_disabled_registry_is_an_error(self):
        cluster = build_ethernet_cluster(2, metrics=False)
        rt = run_workload(cluster, ServiceMode.NSM)
        with pytest.raises(ValueError, match="telemetry is off"):
            cluster_report(cluster, rt)

    def test_a_sharded_run_without_metrics_has_no_report(self):
        spec = loads_scenario(SHARDED_OFF_SCENARIO)
        result = run_scenario(spec)
        assert result.cluster.metrics.enabled is False
        with pytest.raises(ValueError, match="telemetry is off"):
            result.report()

    def test_report_needs_metrics_in_a_spec(self):
        with pytest.raises(SpecError, match="obs.report"):
            loads_scenario(OFF_SCENARIO + "report = true\n")

    def test_cli_report_on_a_metrics_off_scenario(self, tmp_path, capsys):
        path = tmp_path / "off.toml"
        path.write_text(OFF_SCENARIO)
        assert main([str(path), "--report"]) == 2
        out, err = capsys.readouterr()
        assert "done" in out
        assert "telemetry is off" in err and "Traceback" not in err


OFF_SCENARIO = """
name = "telemetry-off"

[cluster]
topology = "ethernet"
n_hosts = 2

[app]
driver = "pingpong"

[obs]
metrics = false
"""


SHARDED_OFF_SCENARIO = """
name = "telemetry-off-sharded"

[cluster]
topology = "wan-ring"

[cluster.options]
n_sites = 2
hosts_per_site = 2

[runtime]
mode = "hsm"
shards = 2
kernel = "sharded"

[app]
driver = "alltoall"

[app.params]
nbytes = 64

[obs]
metrics = false
"""
