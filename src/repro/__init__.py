"""repro — NCS: A Multithreaded Message Passing Environment for ATM LAN/WAN.

A full reproduction of Yadav, Reddy, Hariri & Fox (NPAC, 1995) as a
deterministic discrete-event-simulated system:

* :mod:`repro.sim` — the simulation kernel (events, processes, tracing);
* :mod:`repro.hosts` — 1995 workstation CPU/OS cost models;
* :mod:`repro.atm` / :mod:`repro.ethernet` — the network substrates
  (cells, AAL5 SAR, switches, SONET/TAXI links; shared 10 Mbps Ethernet);
* :mod:`repro.protocols` — sockets/TCP/IP (the traditional stack
  NCS's High Speed Mode bypasses);
* :mod:`repro.net` — cluster and NYNET-testbed topology builders;
* :mod:`repro.p4` — the p4 message-passing baseline;
* :mod:`repro.core` — **NCS itself**: the MTS user-level thread
  subsystem and the MPS message-passing subsystem with its send /
  receive / flow-control / error-control system threads;
* :mod:`repro.apps` — the paper's applications (matmul, JPEG, FFT);
* :mod:`repro.faults` — deterministic fault injection (link outages,
  BER spikes, host crashes, partitions) for the chaos test suite;
* :mod:`repro.obs` — unified telemetry: the metrics registry every
  layer publishes into, and Chrome-trace/JSONL span export;
* :mod:`repro.bench` — the harness regenerating every table and figure
  (``python -m repro.bench``).

Quickstart::

    from repro import NcsRuntime, build_ethernet_cluster

    cluster = build_ethernet_cluster(2)
    rt = NcsRuntime(cluster)

    def pong(ctx):
        msg = yield ctx.recv()
        yield ctx.send(msg.from_thread, msg.from_process, "pong", 64)

    def ping(ctx, peer_tid):
        yield ctx.send(peer_tid, 1, "ping", 64)
        reply = yield ctx.recv()
        return reply.data

    pong_tid = rt.t_create(1, pong)
    ping_tid = rt.t_create(0, ping, (pong_tid,))
    rt.run()
    assert rt.thread_result(0, ping_tid) == "pong"
"""

__version__ = "1.0.0"

#: public name -> the module it lives in, imported on first use (PEP 562),
#: so ``import repro.config`` loads no layer it does not need
_EXPORTS = {
    **dict.fromkeys(("NcsNode", "NcsRuntime"), ".core"),
    **dict.fromkeys(("ANY", "ANY_THREAD", "MessageLost", "NcsMessage",
                     "QosContract", "ServiceMode"), ".core.mps"),
    **dict.fromkeys(("Cluster", "build_atm_cluster", "build_ethernet_cluster",
                     "build_nynet", "nynet_testbed"), ".net"),
    **dict.fromkeys(("MetricsRegistry", "NULL_REGISTRY"), ".obs"),
    **dict.fromkeys(("P4Process", "P4Runtime"), ".p4"),
    "Simulator": ".sim",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(_EXPORTS[name], __name__), name)
