"""Both kernels hand back the same kind of result, and it answers alike.

A sharded run's :class:`~repro.config.ScenarioResult` is the
coordinator's own cluster and runtime with the merge written into them,
so every question a caller asks of a single-kernel result — the clock,
the tracer, the registry's ``value`` / ``total`` / ``label_values``,
the diagnostics report — has the same answer on both kernels.  Only the
``kernel.*`` stamps and the ``sim.*`` odometers (each worker counts its
own calendar) are the kernel's own.
"""

import pytest

from repro.config import ScenarioSpec, run_scenario
from repro.core.api import NcsRuntime
from repro.net import Cluster


def _run(shards: int, trace: bool):
    return run_scenario(ScenarioSpec.from_dict({
        "name": "wr-a2a",
        "cluster": {"topology": "wan-ring", "seed": 3,
                    "options": {"n_sites": 4, "hosts_per_site": 2}},
        "runtime": {"mode": "hsm", "shards": shards},
        "app": {"driver": "alltoall",
                "params": {"rounds": 1, "nbytes": 256}},
        "obs": {"metrics": True, "trace": trace}}))


def _labels(key: str) -> dict:
    return dict(kv.split("=", 1) for kv in key.split(",")) if key else {}


def _answers(result) -> dict:
    """Every registry answer outside ``kernel.*`` and ``sim.*``."""
    m = result.cluster.metrics
    out = {}
    for name, series in m.snapshot().items():
        if name.startswith(("kernel.", "sim.")):
            continue
        out[name, "total"] = m.total(name)
        for key in series:
            labels = _labels(key)
            out[name, key] = m.value(name, **labels)
            for label in labels:
                out[name, "by", label] = m.label_values(name, label)
    return out


@pytest.mark.parametrize("trace", [False, True], ids=["trace-off",
                                                      "trace-on"])
def test_a_sharded_result_answers_as_the_single_kernel(trace):
    single, sharded = _run(1, trace), _run(2, trace)
    assert sharded.cluster.metrics.value("kernel.shards") == 2
    for result in (single, sharded):
        assert isinstance(result.cluster, Cluster)
        assert isinstance(result.runtime, NcsRuntime)
    assert sharded.cluster.sim.now == single.cluster.sim.now > 0
    assert sharded.cluster.tracer.enabled is single.cluster.tracer.enabled \
        is trace
    answers = _answers(sharded)
    assert answers == _answers(single)
    # a histogram's value is its mean on both kernels, not its buckets
    assert isinstance(answers["mps.delivery_latency_s", "pid=1"], float)
    report, expected = sharded.report(), single.report()
    assert report.pop("scenario")["name"] == expected.pop("scenario")["name"]
    assert report == expected
