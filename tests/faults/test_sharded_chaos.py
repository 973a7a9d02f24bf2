"""Chaos under the sharded kernel: faults on and across the shard cut.

The conservative window protocol must be invisible to the fault layer.
A WAN partition that severs exactly the hosts on opposite sides of the
shard cut — the self-healing scenario from the resilience suite, moved
onto the Fig 1 WAN — and a host link outage that forces error control
to retransmit *through* the cut must both behave byte-identically to
the single kernel: same deaths, same reassignments, same rejoin, same
retransmission schedule, same traces.

Every shard worker builds only its own shard, faults and failure
detectors included.  Each universe arms the whole fault plan at the
same absolute instants, so the ``faults.*`` record is complete on
shard 0; a fault whose target another shard owns finds nothing to
touch here (a crashed ghost host only flips its ``frozen`` flag, which
the resilience layer reads), and message filters and failure detectors
exist only for the pids a shard owns.  The matrix below runs every
fault kind, resilience and both NIC-collective drivers this way and
holds shards = 1, 2 and 4 to the same bytes; the mechanism itself is
pinned in tests/sim/test_partitioned_construction.py.
"""

import hashlib
import json

import pytest

from repro.config.build import run_scenario
from repro.config.spec import ScenarioSpec
from repro.obs.export import to_chrome_events
from tests.walls.harness import assert_same, behavior_snapshot


def _nynet(upstate: int, downstate: int, **cluster) -> dict:
    """A two-site NYNET cluster table: syr upstate, nyc downstate."""
    return {"topology": "nynet", **cluster, "options": {"sites": [
        {"name": "syr", "n_hosts": upstate, "region": "upstate"},
        {"name": "nyc", "n_hosts": downstate, "region": "downstate"}]}}


#: the resilience suite's healed-partition-rejoin scenario (see
#: tests/resilience/test_recovery.py), re-sited onto the NYNET WAN so
#: the partition boundary IS the shard cut: pids 0/1 upstate, pid 2
#: downstate, severed for 0.25 s across the DS-3.
PARTITION_DOC = {
    "name": "sharded-partition-heal",
    "cluster": _nynet(2, 1, seed=6),
    "runtime": {
        "mode": "hsm", "error": "adaptive",
        "error_kwargs": {"timeout_s": 0.01, "max_retries": 4,
                         "check_interval_s": 0.002},
    },
    "resilience": {"heartbeat_interval_s": 0.02, "suspect_after_s": 0.06,
                   "dead_after_s": 0.15, "failure_threshold": 3,
                   "reset_timeout_s": 0.1, "probe_successes": 2},
    "app": {"driver": "matmul-resilient",
            "params": {"n": 48, "units": 12, "seed": 7,
                       "compute_s_per_unit": 0.04, "poll_s": 0.05}},
    "faults": {"events": [{"kind": "partition", "at": 0.02,
                           "duration": 0.25, "groups": [[0, 1], [2]]}]},
    "obs": {"trace": True, "metrics": True},
}

#: downstate host 2 loses its TAXI uplink mid-ring; ACK error control
#: retransmits across the outage — and across the shard cut.
OUTAGE_DOC = {
    "name": "sharded-wan-outage",
    "cluster": _nynet(2, 1),
    "runtime": {"mode": "nsm", "error": "ack", "barriers": {"0": 3}},
    "app": {"driver": "ring", "params": {"rounds": 2, "nbytes": 2048}},
    "faults": {"events": [{"kind": "link-outage", "at": 0.004,
                           "duration": 0.01, "host": 2}]},
    "obs": {"trace": True, "metrics": True},
}


_RING4X2 = {"topology": "wan-ring", "seed": 7,
            "options": {"n_sites": 4, "hosts_per_site": 2}}
_NYNET2X2 = _nynet(2, 2, seed=7)
_FAST_EC = {"timeout_s": 0.01, "max_retries": 4, "check_interval_s": 0.002}

#: one cell per subsystem that builds per owned entity — NIC collective
#: engines (both drivers), physical fault hooks, message filters,
#: failure detectors: name -> (cluster, runtime, app, fault events,
#: extra tables, SHA-256 of the shards=2 document).  The digests are
#: what ``b62cf71`` produced, when every worker still built the whole
#: cluster, with ``collective.latency_s`` labelled by pid there too.
MATRIX = {
    "ring4x2-nic-hsm-alltoall": (
        _RING4X2, {"mode": "hsm", "collectives": "nic"},
        {"driver": "alltoall", "params": {"rounds": 2, "nbytes": 1024}},
        None, {},
        "78b6f407f559dac38f8aad4e2ddc06867865e3efc6bc00b79163357a6ca9950b"),
    "ring4x2-nic-nsm-ring": (
        _RING4X2, {"mode": "nsm", "collectives": "nic"},
        {"driver": "ring", "params": {"rounds": 2, "nbytes": 2048}},
        None, {},
        "cbc172cc526736268ee92b69d267403ab7506b2fecb036ebde1fc02a20861b02"),
    "ring4x2-outage-stall-ber-ack": (
        _RING4X2, {"mode": "hsm", "error": "ack"},
        {"driver": "ring", "params": {"rounds": 3, "nbytes": 2048}},
        [{"kind": "link-outage", "at": 0.004, "duration": 0.01, "host": 3},
         {"kind": "switch-port-stall", "at": 0.002, "duration": 0.006,
          "host": 5},
         {"kind": "ber-spike", "at": 0.001, "duration": 0.02, "host": 6,
          "ber": 1e-4}], {},
        "f4b9ed9fdd1baa952ef355127196ceb629531f80272c11606a37446cfcccd897"),
    "nynet2x2-loss-partition-ack": (
        _NYNET2X2, {"mode": "nsm", "error": "ack", "error_kwargs": _FAST_EC},
        {"driver": "ring", "params": {"rounds": 3, "nbytes": 1024}},
        [{"kind": "message-loss", "at": 0.0, "duration": 0.03, "p": 0.2},
         {"kind": "partition", "at": 0.005, "duration": 0.02,
          "groups": [[0, 1], [2, 3]]}], {},
        "77ed574f6bbe235e6ee08b15d93593d5bbca3e50c078657e5dc447e6f6fd3528"),
    "nynet2x2-crash-resilient": (
        _NYNET2X2,
        {"mode": "hsm", "error": "adaptive", "error_kwargs": _FAST_EC},
        {"driver": "matmul-resilient",
         "params": {"n": 48, "units": 12, "seed": 7,
                    "compute_s_per_unit": 0.01, "poll_s": 0.05}},
        [{"kind": "host-crash", "at": 0.02, "host": 3}],
        {"resilience": {"heartbeat_interval_s": 0.02,
                        "suspect_after_s": 0.06, "dead_after_s": 0.15}},
        "eab8ae22e3c0d11f3e5126f469fbd7fff67c09cb1fb02c7d95c3c995fae1210d"),
}


def _matrix_doc(name) -> dict:
    cluster, runtime, app, faults, extra, _sha = MATRIX[name]
    doc = {"name": name, "cluster": cluster, "runtime": runtime, "app": app,
           "obs": {"trace": True, "metrics": True}, **extra}
    if faults is not None:
        doc["faults"] = {"events": faults}
    return doc


def _doc(result) -> dict:
    tracer = result.cluster.tracer
    tracer.close_all()
    return {"value": result.value,
            "metrics": behavior_snapshot(result.cluster.metrics),
            "chrome": to_chrome_events(tracer)}


def _run(doc: dict, shards: int):
    spec = ScenarioSpec.from_dict(doc).replace(shards=shards)
    return run_scenario(spec)


def test_healed_partition_across_the_cut_matches_single_kernel():
    single = _run(PARTITION_DOC, 1)
    sharded = _run(PARTITION_DOC, 2)
    # the chaos actually happened on both kernels: worker 2 was
    # declared dead, its units reassigned, and it rejoined post-heal
    for r in (single, sharded):
        assert r.value["correct"] is True
        assert r.value["reassigned_units"] >= 1
        assert r.cluster.metrics.total("resilience.deaths") >= 1
        assert r.cluster.metrics.total("resilience.rejoins") >= 1
    assert_same(_doc(sharded), _doc(single),
                where="partition chaos under sharding")


def test_link_outage_retransmit_across_the_cut_matches_single_kernel():
    single = _run(OUTAGE_DOC, 1)
    sharded = _run(OUTAGE_DOC, 2)
    # the outage forced real retransmissions on both kernels
    for r in (single, sharded):
        assert r.value["received"] == {
            "0": [(2, 0), (2, 1)], "1": [(0, 0), (0, 1)],
            "2": [(1, 0), (1, 1)]}
        assert r.cluster.metrics.total("ec.retransmissions") >= 1
    assert_same(_doc(sharded), _doc(single),
                where="outage chaos under sharding")


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_partial_shards_match_single_kernel(name):
    """shards = 1, 2 and 4 produce one document (value, behaviour
    snapshot, Chrome trace), and shards = 2 the one every worker
    produced when it still built the whole cluster."""
    docs = {shards: _doc(_run(_matrix_doc(name), shards))
            for shards in (1, 2, 4)}
    for shards in (2, 4):
        assert_same(docs[shards], docs[1], where=f"{name} shards={shards}")
    digest = hashlib.sha256(json.dumps(
        docs[2], sort_keys=True, default=repr).encode()).hexdigest()
    assert digest == MATRIX[name][-1]
