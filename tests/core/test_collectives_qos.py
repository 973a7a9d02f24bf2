"""Tests for the remaining group collectives and the QoS framework."""

import pytest

from repro.core import NcsRuntime
from repro.core.mps import (
    PDA_PROFILE, QosContract, ServiceMode, VOD_PROFILE, flow_control_for,
)
from repro.core.mps.group import all_to_all, bcast, scatter
from repro.net import build_atm_cluster, build_ethernet_cluster


def make(n=3, **kw):
    cluster = build_ethernet_cluster(n)
    return cluster, NcsRuntime(cluster, **kw)


class TestScatter:
    def test_scatter_personalized(self):
        cluster, rt = make(3)
        tids = {}
        members = []
        root = []
        def worker(ctx):
            part = yield from scatter(ctx, root[0], members,
                                      parts=parts_box[0], size=256)
            return part
        parts_box = [None]
        tids[0] = rt.t_create(0, worker)
        tids[1] = rt.t_create(1, worker)
        tids[2] = rt.t_create(2, worker)
        members.extend([(tids[p], p) for p in range(3)])
        root.append((tids[0], 0))
        parts_box[0] = {(tids[p], p): f"part-{p}" for p in range(3)}
        rt.run(max_events=2_000_000)
        for p in range(3):
            assert rt.thread_result(p, tids[p]) == f"part-{p}"

    def test_scatter_without_parts_raises(self):
        cluster, rt = make(2)
        tids = {}
        members = []
        root = []
        def worker(ctx):
            yield from scatter(ctx, root[0], members, parts=None, size=16)
        tids[0] = rt.t_create(0, worker)
        tids[1] = rt.t_create(1, worker)
        members.extend([(tids[p], p) for p in range(2)])
        root.append((tids[0], 0))
        with pytest.raises(ValueError):
            rt.run(max_events=500_000)


class TestAllToAll:
    def test_full_exchange(self):
        cluster, rt = make(3)
        tids = {}
        members = []
        results = {}
        def worker(ctx):
            me = (ctx.my_tid, ctx.my_pid)
            parts = {tuple(m): f"{ctx.my_pid}->{m[1]}" for m in members}
            got = yield from all_to_all(ctx, members, parts, size=64)
            results[ctx.my_pid] = got
        tids[0] = rt.t_create(0, worker)
        tids[1] = rt.t_create(1, worker)
        tids[2] = rt.t_create(2, worker)
        members.extend([(tids[p], p) for p in range(3)])
        rt.run(max_events=3_000_000)
        for p in range(3):
            got = results[p]
            assert len(got) == 3
            for (ftid, fpid), data in got.items():
                assert data == f"{fpid}->{p}"


class TestBcastHelper:
    def test_bcast_excludes_self(self):
        cluster, rt = make(3)
        tids = {}
        members = []
        def root(ctx):
            yield from bcast(ctx, members, "G", 512)
            return "sent"
        def leaf(ctx):
            msg = yield ctx.recv()
            return msg.data
        tids[0] = rt.t_create(0, root)
        tids[1] = rt.t_create(1, leaf)
        tids[2] = rt.t_create(2, leaf)
        members.extend([(tids[p], p) for p in range(3)])
        rt.run(max_events=2_000_000)
        assert rt.thread_result(0, tids[0]) == "sent"
        assert rt.thread_result(1, tids[1]) == "G"
        assert rt.thread_result(2, tids[2]) == "G"


class TestQosFramework:
    def test_profiles_map_to_strategies(self):
        assert flow_control_for(VOD_PROFILE).name == "rate"
        assert flow_control_for(PDA_PROFILE).name == "window"

    def test_contract_validation(self):
        with pytest.raises(ValueError):
            QosContract(rate_bytes_s=-1)
        for rate in (float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="rate_bytes_s"):
                QosContract(rate_bytes_s=rate)
        for window in (2.5, True, "64"):
            with pytest.raises(ValueError, match="window_bytes"):
                QosContract(window_bytes=window)
        with pytest.raises(ValueError):
            QosContract(window_bytes=0)
        with pytest.raises(ValueError):
            QosContract(rate_bytes_s=1e6, window_bytes=1)

    def test_runtime_accepts_contract(self):
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode=ServiceMode.HSM, flow=PDA_PROFILE)
        assert rt.nodes[0].mps.fc.name == "window"
        # each node gets its own strategy instance (they hold state)
        assert rt.nodes[0].mps.fc is not rt.nodes[1].mps.fc

    def test_shared_fc_instance_rejected(self):
        from repro.core.mps import WindowFlowControl
        cluster = build_ethernet_cluster(2)
        with pytest.raises(TypeError):
            NcsRuntime(cluster, flow=WindowFlowControl(4096))

    def test_mode_by_string(self):
        cluster = build_atm_cluster(2)
        rt = NcsRuntime(cluster, mode="hsm")
        assert rt.mode is ServiceMode.HSM
