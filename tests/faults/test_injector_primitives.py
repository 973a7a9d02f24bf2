"""Each fault primitive, armed against a live cluster, one at a time."""

import pytest

from repro import NcsRuntime, ServiceMode, build_ethernet_cluster
from repro.faults import (
    BerSpike, FaultInjector, FaultPlan, HostCrash, LinkOutage, MessageLoss,
    Partition, SwitchPortStall,
)
from repro.sim import Activity

from ..counts import count, total
from .util import add_pingpong, make_runtime


class TestLinkOutage:
    def test_hsm_recovers_through_transient_outage(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        inj = FaultInjector(cluster, FaultPlan(
            (LinkOutage(at=0.0005, duration=0.02, host=1),))).arm()
        results = add_pingpong(rt, rounds=3)
        makespan = rt.run()
        assert results["replies"] == [("pong", i) for i in range(3)]
        # the outage actually bit: bursts were faulted and EC retransmitted
        m = cluster.metrics
        assert total(m, "atm.bursts_faulted") > 0 \
            or total(m, "atm.link_bursts_faulted") > 0
        assert total(m, "ec.retransmissions") > 0
        assert makespan > 0.02  # could not finish before the link healed
        assert [edge for _, edge, _ in inj.log] == ["begin", "end"]

    def test_fault_window_lands_on_tracer_timeline(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        FaultInjector(cluster, FaultPlan(
            (LinkOutage(at=0.0005, duration=0.02, host=1),))).arm()
        add_pingpong(rt, rounds=2)
        rt.run()
        tl = cluster.tracer.timelines["fault:0"]
        assert len(tl.intervals) == 1
        iv = tl.intervals[0]
        assert iv.activity is Activity.FAULT
        assert iv.start == pytest.approx(0.0005)
        assert iv.end == pytest.approx(0.0205)
        assert "link-outage" in iv.label


class TestBerSpike:
    def test_ethernet_segment_spike_tcp_recovers(self):
        cluster = build_ethernet_cluster(2, seed=3, trace=True)
        rt = NcsRuntime(cluster, mode=ServiceMode.NSM)
        FaultInjector(cluster, FaultPlan(
            (BerSpike(at=0.001, duration=0.5, ber=1e-4),))).arm()
        results = add_pingpong(rt, rounds=2, size=4096)
        rt.run()
        assert results["replies"] == [("pong", 0), ("pong", 1)]
        # the spike really dropped
        assert count(cluster.metrics, "ethernet.frames_dropped") > 0
        assert cluster.lan.fault_ber == 0.0     # and really healed

    def test_atm_link_spike_ec_recovers(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        FaultInjector(cluster, FaultPlan(
            (BerSpike(at=0.0, duration=0.05, host=1, ber=1e-5),))).arm()
        results = add_pingpong(rt, rounds=3, size=65536)
        rt.run()
        assert results["replies"] == [("pong", i) for i in range(3)]
        for _, _, d in cluster.fabric.graph.edges(data=True):
            assert d["link"].fwd.ber_override is None   # healed


class TestHostCrash:
    def test_crash_and_restart_recovers(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        FaultInjector(cluster, FaultPlan(
            (HostCrash(at=0.0005, duration=0.03, host=1),))).arm()
        results = add_pingpong(rt, rounds=3)
        makespan = rt.run()
        assert results["replies"] == [("pong", i) for i in range(3)]
        assert makespan > 0.03
        assert not cluster.host(1).frozen
        assert cluster.fabric.adapters["n1"].up


class TestSwitchPortStall:
    def test_stall_delays_but_loses_nothing(self):
        # baseline makespan without the stall
        _, rt0 = make_runtime(2, ServiceMode.HSM)
        add_pingpong(rt0, rounds=3)
        baseline = rt0.run()

        cluster, rt = make_runtime(2, ServiceMode.HSM)
        FaultInjector(cluster, FaultPlan(
            (SwitchPortStall(at=0.0002, duration=0.04, host=1),))).arm()
        results = add_pingpong(rt, rounds=3)
        makespan = rt.run()
        assert results["replies"] == [("pong", i) for i in range(3)]
        assert makespan > baseline  # head-of-line blocking, not loss
        # stall is loss-free: no EC give-ups were needed
        assert total(cluster.metrics, "ec.gave_up") == 0


class TestOverlappingWindows:
    """Windows that overlap on one target end at the *last* heal (they
    used to end at the first: a silently different answer, and
    ``FaultPlan.random`` can draw such plans)."""

    @staticmethod
    def probe(plan, n_hosts=2, builder=None):
        """Arm ``plan`` on an idle cluster; ``states[ms]`` is what the
        test's ``read`` saw at that millisecond."""
        if builder is None:
            cluster, _rt = make_runtime(n_hosts, ServiceMode.HSM)
        else:
            cluster = builder(n_hosts, seed=3)
        FaultInjector(cluster, FaultPlan(tuple(plan))).arm()
        return cluster

    @staticmethod
    def sample(cluster, read, until_ms=8):
        states = {}
        for ms in range(until_ms + 1):
            # half a millisecond off every edge: no ties with the plan
            cluster.sim.call_at(ms * 1e-3 + 5e-4,
                                lambda ms=ms: states.__setitem__(ms, read()))
        cluster.sim.run()
        return states

    def test_link_outage_ends_at_the_last_heal(self):
        cluster = self.probe([LinkOutage(at=1e-3, duration=4e-3, host=0),
                              LinkOutage(at=2e-3, duration=6e-3, host=0,
                                         scope="atm")])
        (link,) = (d["link"] for _, _, d in cluster.fabric.graph.edges(
            cluster.fabric.adapters["n0"], data=True))
        up = self.sample(cluster, lambda: (link.fwd.up, link.rev.up), 9)
        assert up[0] == (True, True)
        assert all(up[ms] == (False, False) for ms in range(1, 8)), up
        assert up[8] == (True, True)

    def test_switch_port_stall_ends_at_the_last_heal(self):
        from repro.atm.cell import CellBurst
        cluster = self.probe([SwitchPortStall(at=1e-3, duration=4e-3, host=1),
                              SwitchPortStall(at=2e-3, duration=5e-3, host=1)])
        sim = cluster.sim
        port = cluster.fabric.channel("fore-sw", "n1")
        landed = {}
        port._dispatch = lambda burst: landed.__setitem__(burst.msg_id,
                                                          sim.now)
        for ms in (0.5, 4.5, 5.5, 7.5):     # before, inside x 2, after
            sim.call_at(ms * 1e-3, port.send, CellBurst(
                vc=None, vci=40, msg_id=int(ms * 10), n_cells=1,
                payload_bytes=48, is_final=True))
        sim.run()
        crossing = port.tx_time(CellBurst(None, 40, 0, 1, 48, True)) \
            + port.spec.prop_delay_s
        assert landed[5] == pytest.approx(0.5e-3 + crossing)
        # both held to the end of the second window, then in order
        assert landed[45] == pytest.approx(7e-3 + crossing)
        assert landed[55] > landed[45]
        assert landed[75] == pytest.approx(7.5e-3 + crossing)

    def test_host_crash_ends_at_the_last_heal_even_across_kinds(self):
        from repro.net.topology import build_atm_dual_cluster
        cluster = self.probe(
            [HostCrash(at=1e-3, duration=2e-3, host=1),
             HostCrash(at=2e-3, duration=4e-3, host=1),
             LinkOutage(at=5e-3, duration=2e-3, host=1, scope="nic")],
            builder=build_atm_dual_cluster)
        host = cluster.host(1)
        nic, adapter = host.interfaces["ethernet"], host.interfaces["atm"]
        seen = self.sample(cluster,
                           lambda: (host.frozen, adapter.up, nic.up))
        assert seen[0] == (False, True, True)
        assert all(seen[ms] == (True, False, False) for ms in range(1, 6))
        # the crash is over at 6 ms, the NIC outage it overlapped at 7 ms
        assert seen[6] == (False, True, False)
        assert seen[7] == (False, True, True)

    def test_latest_open_ber_spike_applies(self):
        cluster = self.probe([BerSpike(at=1e-3, duration=6e-3, host=0,
                                       ber=1e-6),
                              BerSpike(at=2e-3, duration=2e-3, host=0,
                                       ber=1e-4),
                              BerSpike(at=3e-3, duration=2e-3, host=1,
                                       ber=1e-5)])
        uplink = cluster.fabric.channel("n0", "fore-sw")
        other = cluster.fabric.channel("n1", "fore-sw")
        seen = self.sample(cluster, lambda: (uplink.ber_override,
                                             other.ber_override))
        assert [seen[ms][0] for ms in range(9)] == [
            None, 1e-6, 1e-4, 1e-4, 1e-6, 1e-6, 1e-6, None, None]
        assert [seen[ms][1] for ms in range(9)] == [
            None, None, None, 1e-5, 1e-5, None, None, None, None]

    def test_ethernet_segment_keeps_the_latest_open_spike(self):
        cluster = self.probe([BerSpike(at=1e-3, duration=6e-3, ber=1e-6),
                              BerSpike(at=2e-3, duration=2e-3, ber=1e-4)],
                             builder=build_ethernet_cluster)
        seen = self.sample(cluster, lambda: cluster.lan.fault_ber)
        assert [seen[ms] for ms in range(9)] == [
            0.0, 1e-6, 1e-4, 1e-4, 1e-6, 1e-6, 1e-6, 0.0, 0.0]


class TestMessageLevelFaults:
    def test_message_loss_is_retransmitted_through(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM, seed=11)
        inj = FaultInjector(cluster, FaultPlan(
            (MessageLoss(at=0.0, duration=1.0, p=0.5, pids=(1,)),)),
            runtime=rt).arm()
        results = add_pingpong(rt, rounds=4)
        rt.run()
        assert results["replies"] == [("pong", i) for i in range(4)]
        assert count(cluster.metrics, "mps.messages_faulted", pid=1) > 0
        assert inj.log[0][1] == "begin"

    def test_partition_blocks_only_across_groups(self):
        cluster, rt = make_runtime(3, ServiceMode.HSM)
        inj = FaultInjector(cluster, FaultPlan(
            (Partition(at=0.0, groups=((0, 1), (2,))),)),   # permanent
            runtime=rt).arm()
        # 0 <-> 1 are in the same group: traffic flows despite the partition
        results = add_pingpong(rt, rounds=2, pinger=0, ponger=1)
        rt.run()
        assert results["replies"] == [("pong", 0), ("pong", 1)]
        assert inj._blocked(0, 2) and inj._blocked(2, 1)
        assert not inj._blocked(0, 1)


class TestArmValidation:
    def test_unknown_host_rejected(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        with pytest.raises(ValueError):
            FaultInjector(cluster, FaultPlan(
                (LinkOutage(at=0.0, duration=0.1, host=9),))).arm()

    def test_message_faults_need_runtime(self):
        cluster, _ = make_runtime(2, ServiceMode.HSM)
        with pytest.raises(ValueError):
            FaultInjector(cluster, FaultPlan(
                (MessageLoss(at=0.0, p=0.5),))).arm()

    def test_switch_stall_needs_atm(self):
        cluster = build_ethernet_cluster(2)
        with pytest.raises(ValueError):
            FaultInjector(cluster, FaultPlan(
                (SwitchPortStall(at=0.0, duration=0.1, host=1),))).arm()

    def test_double_arm_rejected(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        inj = FaultInjector(cluster, FaultPlan(
            (LinkOutage(at=0.0, duration=0.1, host=0),)))
        inj.arm()
        with pytest.raises(RuntimeError):
            inj.arm()

    def test_conflicting_rx_filter_rejected(self):
        cluster, rt = make_runtime(2, ServiceMode.HSM)
        rt.nodes[0].mps.rx_fault = lambda msg: False
        with pytest.raises(RuntimeError):
            FaultInjector(cluster, FaultPlan(
                (MessageLoss(at=0.0, p=0.5),)), runtime=rt).arm()
