"""What a series costs the registry, and the label-key contract that
keeps the cost down.

Each registry keeps one key object per distinct label set: every
family with ``pid=3`` holds the same ``(("pid", "3"),)`` tuple, and
histograms with equal buckets share one bounds tuple.  The key is
still built from ``str(value)``, so what counts as one label set does
not move: ``1`` and ``"1"`` are one series, ``True``, ``1`` and ``1.0``
three.
"""

import json
import pickle
import tracemalloc

import pytest

from repro.config import loads_scenario, run_scenario
from repro.obs import CardinalityError, MetricsRegistry
from repro.obs import registry as registry_module

#: registry bytes per series after the 256-host NIC collectives cell
#: (``benchmarks/e2e`` ``coll_256``), traced with ``tracemalloc``; a
#: ceiling that may only come down.  Each series held its own key copy
#: before keys were shared: 301 B; today: 174 B
BYTES_PER_SERIES = 200


def only(family: dict):
    (key,) = family
    return key


class TestOneKeyPerLabelSet:
    def test_families_share_the_key_of_an_equal_label_set(self):
        m = MetricsRegistry()
        m.counter("tx", pid=3, host="n1")
        m.gauge("depth", host="n1", pid=3)        # other kwarg order
        m.histogram("lat", pid="3", host="n1")   # "3" is 3's label
        keys = [only(m._metrics[name]) for name in ("tx", "depth", "lat")]
        assert keys[0] == (("host", "n1"), ("pid", "3"))
        assert keys[1] is keys[0] and keys[2] is keys[0]
        assert m.counter("tx", host="n1", pid=3).labels is keys[0]

    def test_true_one_and_one_point_zero_stay_three_series(self):
        m = MetricsRegistry()
        for v in (True, 1, 1.0, "1"):
            m.counter("ok", v=v).inc()
        assert m.snapshot()["ok"] == {"v=1": 2, "v=1.0": 1, "v=True": 1}
        assert m.value("ok", v=1) == m.value("ok", v="1") == 2

    def test_an_unhashable_label_value_registers(self):
        m = MetricsRegistry()
        m.counter("tx", route=[1, 2]).inc(3)
        m.counter("tx", route=[1, 2]).inc()
        assert m.snapshot()["tx"] == {"route=[1, 2]": 4}

    def test_the_cardinality_guard_counts_each_family_alone(self):
        m = MetricsRegistry(max_label_sets=3)
        for i in range(3):
            m.counter("tx", pid=i)
            m.counter("rx", pid=i)
        with pytest.raises(CardinalityError, match="'tx' exceeded 3"):
            m.counter("tx", pid=99)
        m.counter("other", pid=99)               # a fresh family is fine
        assert m.counter("tx", pid=0).value == 0

    def test_equal_buckets_share_one_bounds_tuple(self):
        m = MetricsRegistry()
        a = m.histogram("a", buckets=[3, 1, 2])
        b = m.histogram("b", buckets=(1.0, 2.0, 3.0), pid=0)
        assert a.bounds == (1.0, 2.0, 3.0) and a.bounds is b.bounds
        assert m.histogram("c").bounds is not a.bounds

    def test_a_pickled_registry_merges_to_the_same_snapshot(self):
        """The sharded kernel's path: a worker's registry crosses a
        pipe, and the coordinator merges it into its own."""
        worker = MetricsRegistry()
        for pid in range(4):
            worker.counter("mps.data_sent", pid=pid).inc(pid)
            worker.gauge("mts.threads", pid=pid).set(2 * pid)
            worker.histogram("mps.latency", pid=pid).observe(1e-3 * pid)
        copy = pickle.loads(pickle.dumps(worker))
        assert copy.snapshot() == worker.snapshot()
        # pickle's memo writes each shared key once, and reads it back once
        assert all(a is b for a, b in zip(copy._metrics["mts.threads"],
                                          copy._metrics["mps.latency"]))
        into = MetricsRegistry()
        into.counter("mps.data_sent", pid=0).inc(99)   # replaced
        into.merge([copy], lambda name, labels, copies: copies[0])
        assert into.snapshot() == worker.snapshot()
        into.counter("mps.data_sent", pid=5).inc()     # still registers
        assert into.value("mps.data_sent", pid=5) == 1


def test_a_series_costs_at_most_its_ceiling_at_256_hosts():
    spec = loads_scenario(json.dumps({
        "name": "coll-256", "cluster": {"topology": "atm-lan",
                                        "n_hosts": 256, "seed": 1995},
        "runtime": {"mode": "nsm", "collectives": "nic"},
        "app": {"driver": "collective",
                "params": {"rounds": 2, "nbytes": 1024}}}), "json")
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        metrics = run_scenario(spec).cluster.metrics
        snapshot = tracemalloc.take_snapshot()
    finally:
        if started:
            tracemalloc.stop()
    held = snapshot.filter_traces(
        [tracemalloc.Filter(True, registry_module.__file__)])
    size = sum(stat.size for stat in held.statistics("filename"))
    series = sum(len(family) for family in metrics._metrics.values())
    assert series > 9000
    assert size / series <= BYTES_PER_SERIES, (
        f"{size} registry bytes for {series} series = "
        f"{size / series:.0f} B a series, ceiling {BYTES_PER_SERIES}")
