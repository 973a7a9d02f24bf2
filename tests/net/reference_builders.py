"""Pre-blueprint imperative topology builders, kept as test oracles.

These are the imperative construction functions as they stood *before*
the blueprint refactor (`repro.net.blueprint`), minus the per-pair PVC
and TCP meshes they used to provision (circuits, connections and pumps
now come into being on first use, so there is no mesh to build).  The
equivalence suite (`test_blueprint_properties.py`) holds the
blueprint-materialized builders to an identical construction signature
against these references for every registered topology, so the
blueprint path can never silently reorder a host stack, a link, an RNG
stream or a routing-graph edge.

Do not "modernize" this module: its value is that it does not change.
"""

from __future__ import annotations

from repro.atm import (
    AtmApi, AtmFabric, AtmSwitch, DS3, LinkSpec, OC3, Sba200Adapter,
    SignalingController, TAXI_140,
)
from repro.ethernet import EthernetLan, EthernetNic
from repro.hosts import Host, HostParams, OsProcess, SUN_ELC, SUN_IPX
from repro.net.nynet import SiteSpec
from repro.net.topology import Cluster, NodeStack
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.protocols import (
    AtmIpAdapter, EthernetIpAdapter, IpLayer, SocketLayer, TcpParams,
    TcpStack, UdpStack,
)
from repro.sim import NullTracer, RngRegistry, Simulator, Tracer


def _host_name(i: int) -> str:
    return f"n{i}"


def reference_ethernet_cluster(
        n_hosts: int,
        params: HostParams = SUN_ELC,
        tcp_params: TcpParams | None = None,
        seed: int = 1995,
        trace: bool = False,
        metrics: bool = True,
        collisions: bool = False,
        bandwidth_bps: float = 10e6,
        preconnect: bool = True) -> Cluster:
    if n_hosts < 1:
        raise ValueError("need at least one host")
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    lan = EthernetLan(sim, bandwidth_bps=bandwidth_bps,
                      collisions=collisions, rngs=rngs)
    stacks = []
    for i in range(n_hosts):
        name = _host_name(i)
        host = Host(sim, name, cpu=params.cpu, os=params.os, tracer=tracer)
        nic = EthernetNic(sim, lan, name)
        host.attach_interface("ethernet", nic)
        adapter = EthernetIpAdapter(nic)
        ip = IpLayer(sim, name, adapter)
        adapter.bind(ip)
        tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
        stacks.append(NodeStack(
            host=host, process=OsProcess(host, pid=i), ip=ip, tcp=tcp,
            socket=SocketLayer(host, tcp), udp=UdpStack(host, ip)))
    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium="ethernet", lan=lan)
    return cluster


def reference_atm_cluster(
        n_hosts: int,
        params: HostParams = SUN_IPX,
        tcp_params: TcpParams | None = None,
        seed: int = 1995,
        trace: bool = False,
        metrics: bool = True,
        link_spec: LinkSpec = TAXI_140,
        switch_latency_s: float = 10e-6,
        train_cells: int = 256,
        preconnect: bool = True) -> Cluster:
    if n_hosts < 1:
        raise ValueError("need at least one host")
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    fabric = AtmFabric(sim)
    sig = SignalingController(fabric)
    switch = fabric.add_switch(AtmSwitch(sim, "fore-sw",
                                         switching_latency_s=switch_latency_s))
    stacks = []
    for i in range(n_hosts):
        name = _host_name(i)
        host = Host(sim, name, cpu=params.cpu, os=params.os, tracer=tracer)
        sba = Sba200Adapter(sim, name, train_cells=train_cells)
        host.attach_interface("atm", sba)
        fabric.add_adapter(sba)
        rng = rngs.stream(f"link.{name}")
        fabric.connect(sba, switch, link_spec, rng_a=rng, rng_b=rng)
        atm_api = AtmApi(host)
        ip_adapter = AtmIpAdapter(atm_api, sig)
        ip = IpLayer(sim, name, ip_adapter)
        ip_adapter.bind(ip)
        tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
        stacks.append(NodeStack(
            host=host, process=OsProcess(host, pid=i), ip=ip, tcp=tcp,
            socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
            atm_api=atm_api))
    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium="atm-lan", fabric=fabric, signaling=sig)
    return cluster


def reference_atm_dual_cluster(
        n_hosts: int,
        params: HostParams = SUN_IPX,
        tcp_params: TcpParams | None = None,
        seed: int = 1995,
        trace: bool = False,
        metrics: bool = True,
        link_spec: LinkSpec = TAXI_140,
        switch_latency_s: float = 10e-6,
        train_cells: int = 256,
        bandwidth_bps: float = 10e6,
        collisions: bool = False,
        preconnect: bool = True) -> Cluster:
    if n_hosts < 1:
        raise ValueError("need at least one host")
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    lan = EthernetLan(sim, bandwidth_bps=bandwidth_bps,
                      collisions=collisions, rngs=rngs)
    fabric = AtmFabric(sim)
    sig = SignalingController(fabric)
    switch = fabric.add_switch(AtmSwitch(sim, "fore-sw",
                                         switching_latency_s=switch_latency_s))
    stacks = []
    for i in range(n_hosts):
        name = _host_name(i)
        host = Host(sim, name, cpu=params.cpu, os=params.os, tracer=tracer)
        nic = EthernetNic(sim, lan, name)
        host.attach_interface("ethernet", nic)
        sba = Sba200Adapter(sim, name, train_cells=train_cells)
        host.attach_interface("atm", sba)
        fabric.add_adapter(sba)
        rng = rngs.stream(f"link.{name}")
        fabric.connect(sba, switch, link_spec, rng_a=rng, rng_b=rng)
        atm_api = AtmApi(host)
        eth_adapter = EthernetIpAdapter(nic)
        ip = IpLayer(sim, name, eth_adapter)
        eth_adapter.bind(ip)
        tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
        stacks.append(NodeStack(
            host=host, process=OsProcess(host, pid=i), ip=ip, tcp=tcp,
            socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
            atm_api=atm_api))
    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium="atm-dual", lan=lan, fabric=fabric,
                      signaling=sig)
    return cluster


def reference_nynet(sites: list[SiteSpec],
                    params: HostParams = SUN_IPX,
                    tcp_params: TcpParams | None = None,
                    seed: int = 1995,
                    trace: bool = False,
                    metrics: bool = True,
                    train_cells: int = 256,
                    preconnect: bool = True) -> Cluster:
    if not sites or all(s.n_hosts == 0 for s in sites):
        raise ValueError("need at least one site with hosts")
    if len({s.name for s in sites}) != len(sites):
        raise ValueError("site names must be unique")
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    fabric = AtmFabric(sim)
    sig = SignalingController(fabric)

    upstate_bb = fabric.add_switch(AtmSwitch(sim, "bb-upstate"))
    downstate_bb = fabric.add_switch(AtmSwitch(sim, "bb-downstate"))
    fabric.connect(upstate_bb, downstate_bb, DS3)

    stacks: list[NodeStack] = []
    pid = 0
    for site in sites:
        sw = fabric.add_switch(AtmSwitch(sim, f"sw-{site.name}"))
        backbone = upstate_bb if site.region == "upstate" else downstate_bb
        fabric.connect(sw, backbone, OC3)
        for k in range(site.n_hosts):
            name = f"{site.name}{k}"
            host = Host(sim, name, cpu=params.cpu, os=params.os,
                        tracer=tracer)
            sba = Sba200Adapter(sim, name, train_cells=train_cells)
            host.attach_interface("atm", sba)
            fabric.add_adapter(sba)
            rng = rngs.stream(f"link.{name}")
            fabric.connect(sba, sw, TAXI_140, rng_a=rng, rng_b=rng)
            atm_api = AtmApi(host)
            ip_adapter = AtmIpAdapter(atm_api, sig)
            ip = IpLayer(sim, name, ip_adapter)
            ip_adapter.bind(ip)
            tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
            stacks.append(NodeStack(
                host=host, process=OsProcess(host, pid=pid), ip=ip, tcp=tcp,
                socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
                atm_api=atm_api))
            pid += 1

    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium="nynet", fabric=fabric, signaling=sig)
    return cluster


def reference_wan_ring(n_sites: int = 8,
                       hosts_per_site: int = 1,
                       params: HostParams = SUN_IPX,
                       tcp_params: TcpParams | None = None,
                       seed: int = 1995,
                       trace: bool = False,
                       metrics: bool = True,
                       train_cells: int = 256,
                       preconnect: bool = True) -> Cluster:
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    if hosts_per_site < 1:
        raise ValueError("hosts_per_site must be >= 1")
    sim = Simulator(metrics=MetricsRegistry() if metrics else NULL_REGISTRY)
    rngs = RngRegistry(seed)
    tracer = Tracer(sim) if trace else NullTracer(sim)
    fabric = AtmFabric(sim)
    sig = SignalingController(fabric)

    switches = [fabric.add_switch(AtmSwitch(sim, f"sw-r{i}"))
                for i in range(n_sites)]
    if n_sites == 2:
        fabric.connect(switches[0], switches[1], DS3)
    elif n_sites > 2:
        for i in range(n_sites):
            fabric.connect(switches[i], switches[(i + 1) % n_sites], DS3)

    stacks: list[NodeStack] = []
    pid = 0
    for i, sw in enumerate(switches):
        for k in range(hosts_per_site):
            name = f"r{i}h{k}"
            host = Host(sim, name, cpu=params.cpu, os=params.os,
                        tracer=tracer)
            sba = Sba200Adapter(sim, name, train_cells=train_cells)
            host.attach_interface("atm", sba)
            fabric.add_adapter(sba)
            rng = rngs.stream(f"link.{name}")
            fabric.connect(sba, sw, TAXI_140, rng_a=rng, rng_b=rng)
            atm_api = AtmApi(host)
            ip_adapter = AtmIpAdapter(atm_api, sig)
            ip = IpLayer(sim, name, ip_adapter)
            ip_adapter.bind(ip)
            tcp = TcpStack(host, ip, tcp_params, preconnect=preconnect)
            stacks.append(NodeStack(
                host=host, process=OsProcess(host, pid=pid), ip=ip, tcp=tcp,
                socket=SocketLayer(host, tcp), udp=UdpStack(host, ip),
                atm_api=atm_api))
            pid += 1

    cluster = Cluster(sim=sim, rngs=rngs, tracer=tracer, stacks=stacks,
                      medium="wan-ring", fabric=fabric, signaling=sig)
    return cluster
