"""Tests for cluster-builder options and platform parameter wiring."""

import pytest

from repro.apps.common import ELC_TCP, IPX_TCP, platform_ethernet, platform_nynet
from repro.hosts import SUN_ELC, SUN_IPX
from repro.net import build_atm_cluster, build_ethernet_cluster, build_nynet, SiteSpec
from repro.registry import TOPOLOGIES, UnknownNameError


class TestBuilderOptions:
    def test_custom_bandwidth_ethernet(self):
        slow = build_ethernet_cluster(2, bandwidth_bps=1e6)
        fast = build_ethernet_cluster(2, bandwidth_bps=100e6)
        assert slow.lan.bandwidth_bps == 1e6
        assert fast.lan.bandwidth_bps == 100e6

    def test_host_params_applied(self):
        c = build_ethernet_cluster(2, params=SUN_IPX)
        assert c.host(0).cpu.clock_hz == SUN_IPX.cpu.clock_hz
        c2 = build_atm_cluster(2, params=SUN_ELC)
        assert c2.host(0).os.syscall_time == SUN_ELC.os.syscall_time

    def test_tcp_params_applied(self):
        c = build_ethernet_cluster(2, tcp_params=ELC_TCP)
        assert c.stack(0).tcp.params is ELC_TCP

    def test_platform_builder_defaults(self):
        eth = platform_ethernet(2)
        atm = platform_nynet(2)
        assert eth.stack(0).tcp.params == ELC_TCP
        assert atm.stack(0).tcp.params == IPX_TCP
        assert eth.host(0).cpu.clock_hz == SUN_ELC.cpu.clock_hz
        assert atm.host(0).cpu.clock_hz == SUN_IPX.cpu.clock_hz
        assert (eth.host(0).model, atm.host(0).model) == ("SUN-ELC",
                                                          "SUN-IPX")

    def test_platform_builder_rejects_unknown(self):
        with pytest.raises(UnknownNameError, match="platform-token-ring"):
            TOPOLOGIES.get("platform-token-ring")

    def test_no_preconnect_option(self):
        c = build_ethernet_cluster(2, preconnect=False)
        assert not c.stack(0).tcp.connection("n1").established

    def test_switch_latency_option(self):
        c = build_atm_cluster(2, switch_latency_s=1e-3)
        assert c.fabric.switches["fore-sw"].switching_latency_s == 1e-3

    def test_train_cells_option_propagates(self):
        c = build_atm_cluster(2, train_cells=16)
        assert c.stack(0).atm_api.adapter.train_cells == 16

    def test_trace_flag_enables_tracer(self):
        traced = build_ethernet_cluster(2, trace=True)
        silent = build_ethernet_cluster(2, trace=False)
        assert traced.tracer.enabled
        assert not silent.tracer.enabled


class TestNynetSites:
    def test_mixed_site_sizes(self):
        c = build_nynet([SiteSpec("a", 3, "upstate"),
                         SiteSpec("b", 1, "downstate"),
                         SiteSpec("c", 2, "upstate")])
        assert c.n_hosts == 6
        # hosts named by site
        names = [c.host(i).name for i in range(6)]
        assert names[0].startswith("a") and names[-1].startswith("c")

    def test_intra_upstate_cross_site_avoids_ds3(self):
        c = build_nynet([SiteSpec("a", 1, "upstate"),
                         SiteSpec("c", 1, "upstate")])
        vc = c.hsm_vc(0, 1)
        assert all(ch.spec.name != "DS-3" for ch in vc.hops)
        # path: host -> sw-a -> bb-upstate -> sw-c -> host
        assert len(vc.hops) == 4

    def test_empty_site_allowed_with_other_hosts(self):
        c = build_nynet([SiteSpec("a", 2, "upstate"),
                         SiteSpec("b", 0, "downstate")])
        assert c.n_hosts == 2
