"""Tests for the cluster builders and the NYNET testbed topology."""

import pytest

from repro.atm import Service
from repro.net import (
    SiteSpec, build_atm_cluster, build_ethernet_cluster, build_nynet,
    nynet_testbed,
)


class TestEthernetCluster:
    def test_builds_n_hosts(self):
        c = build_ethernet_cluster(4)
        assert c.n_hosts == 4
        assert c.medium == "ethernet"
        assert c.lan is not None and c.fabric is None

    def test_pids_match_indices(self):
        c = build_ethernet_cluster(3)
        for i in range(3):
            assert c.process(i).pid == i

    def test_preconnect_establishes_mesh(self):
        c = build_ethernet_cluster(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert c.stack(i).tcp.connection(f"n{j}").established

    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError):
            build_ethernet_cluster(0)

    def test_hsm_vc_absent(self):
        c = build_ethernet_cluster(2)
        with pytest.raises(KeyError):
            c.hsm_vc(0, 1)


class TestAtmCluster:
    def test_star_topology(self):
        c = build_atm_cluster(3)
        assert c.medium == "atm-lan"
        assert len(c.fabric.switches) == 1
        assert len(c.fabric.adapters) == 3

    def test_hsm_mesh_complete(self):
        c = build_atm_cluster(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    vc = c.hsm_vc(i, j)
                    assert vc.src.host_name == f"n{i}"
                    assert vc.dst.host_name == f"n{j}"

    def test_hsm_and_ip_vcs_distinct(self):
        c = build_atm_cluster(2)
        ip_vc = c.signaling.circuit("n0", "n1", Service.IP)
        assert c.hsm_vc(0, 1) is not ip_vc
        assert c.hsm_vc(0, 1).src_vci != ip_vc.src_vci


    def test_hsm_vc_errors_name_the_pair_and_the_topology(self):
        c = build_atm_cluster(3)
        with pytest.raises(ValueError, match=r"1->1.*atm-lan"):
            c.hsm_vc(1, 1)
        for src, dst in ((0, 3), (-1, 0), (7, 1)):
            with pytest.raises(KeyError, match=rf"{src}->{dst}.*atm-lan"):
                c.hsm_vc(src, dst)
        with pytest.raises(KeyError, match=r"0->1.*ethernet.*no ATM fabric"):
            build_ethernet_cluster(2).hsm_vc(0, 1)
        assert not c.signaling.open_vcs         # failures establish nothing

    def test_path_cache_is_keyed_by_name_not_object_identity(self):
        c = build_atm_cluster(3)
        c.hsm_vc(0, 1)
        assert c.fabric.path_nodes("n0", "n2") == ["n0", "fore-sw", "n2"]
        assert c.fabric.path_nodes(c.fabric.adapters["n0"],
                                   c.fabric.adapters["n2"]) \
            == c.fabric.path_nodes("n0", "n2")


class TestNynet:
    def test_testbed_shape(self):
        c = nynet_testbed(2, 2)
        assert c.n_hosts == 4
        # 2 site switches + 2 backbone switches
        assert len(c.fabric.switches) == 4

    def test_cross_region_path_traverses_ds3(self):
        c = nynet_testbed(1, 1)
        vc = c.hsm_vc(0, 1)
        # host->site sw->bb-upstate->bb-downstate->site sw->host = 5 hops
        assert len(vc.hops) == 5
        specs = [ch.spec.name for ch in vc.hops]
        assert "DS-3" in specs

    def test_same_site_path_stays_local(self):
        c = nynet_testbed(2, 0)
        vc = c.hsm_vc(0, 1)
        assert len(vc.hops) == 2
        assert all(ch.spec.name == "TAXI-140" for ch in vc.hops)

    def test_wan_transfer_bottlenecked_by_ds3(self):
        """Cross-region goodput must sit below the 45 Mbps DS-3 rate and
        clearly below the intra-site (TAXI) goodput.  Note the intra-site
        number is itself copy/DMA-bound at the single-buffer ATM API —
        exactly the bottleneck Fig 2's multiple-buffer pipeline attacks."""
        def goodput(cluster, src, dst, nbytes=512 * 1024):
            sim = cluster.sim
            api_s = cluster.stack(src).atm_api
            api_d = cluster.stack(dst).atm_api
            vc = cluster.hsm_vc(src, dst)
            def sender():
                yield from api_s.send(vc, None, nbytes)
            def receiver():
                got = 0
                while got < nbytes:
                    msg = yield api_d.recv(vc)
                    got += msg.nbytes
                return sim.now
            t0 = sim.now
            sim.process(sender())
            p = sim.process(receiver())
            sim.run(max_events=5_000_000)
            return nbytes * 8 / (p.value - t0)
        wan = goodput(nynet_testbed(1, 1), 0, 1)
        lan = goodput(nynet_testbed(2, 0), 0, 1)
        assert wan < 45e6
        assert lan > 1.5 * wan

    def test_wan_latency_dominated_by_propagation(self):
        """Kleinrock's point (§3): a small message's end-to-end time
        across the WAN is essentially propagation, not serialization."""
        c = nynet_testbed(1, 1)
        sim = c.sim
        vc = c.hsm_vc(0, 1)
        prop = sum(ch.spec.prop_delay_s for ch in vc.hops)
        def sender():
            yield from c.stack(0).atm_api.send(vc, None, 1024)
        def receiver():
            yield c.stack(1).atm_api.recv(vc)
            return sim.now
        sim.process(sender())
        p = sim.process(receiver())
        sim.run()
        assert p.value > prop
        serialization = 1024 * 8 / 45e6
        assert prop > 3 * serialization

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError):
            build_nynet([SiteSpec("a", 1), SiteSpec("a", 1)])

    def test_empty_testbed_rejected(self):
        with pytest.raises(ValueError):
            build_nynet([])

    def test_bad_region_rejected(self):
        with pytest.raises(ValueError):
            SiteSpec("x", 1, region="midstate")

    @pytest.mark.parametrize("n_hosts", [-1, True, 1.5, "2"])
    def test_a_host_count_that_is_no_count_is_rejected(self, n_hosts):
        """A negative count, a ``bool`` (``True`` once built a one-host
        site) and a non-integer all fail at construction."""
        with pytest.raises(ValueError, match="^n_hosts: "):
            SiteSpec("x", n_hosts)
