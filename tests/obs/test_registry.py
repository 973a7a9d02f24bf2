"""Semantics of the metrics registry: the contracts every layer's
telemetry handle relies on."""

import pytest

from repro.obs import (
    CardinalityError, Counter, Gauge, Histogram, MetricsRegistry,
    NULL_REGISTRY,
)


# ------------------------------------------------------------------ counters
class TestCounter:
    def test_monotonic(self):
        m = MetricsRegistry()
        c = m.counter("tx.messages")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("tx.messages")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_nan_increment_rejected(self):
        c = MetricsRegistry().counter("tx.bytes")
        c.inc(3)
        with pytest.raises(ValueError, match="tx.bytes"):
            c.inc(float("nan"))
        assert c.value == 3

    def test_get_or_create_returns_same_instrument(self):
        m = MetricsRegistry()
        a = m.counter("tx.messages", pid=0)
        b = m.counter("tx.messages", pid=0)
        assert a is b
        a.inc()
        assert b.value == 1

    def test_label_sets_are_independent(self):
        m = MetricsRegistry()
        m.counter("tx.messages", pid=0).inc(2)
        m.counter("tx.messages", pid=1).inc(5)
        assert m.value("tx.messages", pid=0) == 2
        assert m.value("tx.messages", pid=1) == 5
        assert m.total("tx.messages") == 7

    def test_label_order_is_irrelevant(self):
        m = MetricsRegistry()
        a = m.counter("x", pid=0, transport="atm")
        b = m.counter("x", transport="atm", pid=0)
        assert a is b


# -------------------------------------------------------------------- gauges
class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("queue.depth")
        g.set(10)
        g.inc(3)
        g.dec(5)
        assert g.value == 8

    def test_gauges_may_go_negative(self):
        g = MetricsRegistry().gauge("credit.balance")
        g.dec(2)
        assert g.value == -2


# ---------------------------------------------------------------- histograms
class TestHistogram:
    def test_bucketing(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        # per-bucket counts: <=1ms, <=10ms, <=100ms, +inf
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(0.5555)
        assert h.min == pytest.approx(0.0005)
        assert h.max == pytest.approx(0.5)

    def test_boundary_lands_in_lower_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_mean_is_the_scalar_value(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(2.0)
        h.observe(4.0)
        assert h.value == pytest.approx(3.0)

    @pytest.mark.parametrize("v", [float("nan"), float("inf"),
                                   float("-inf")])
    def test_non_finite_observation_rejected(self, v):
        h = MetricsRegistry().histogram("lat")
        h.observe(2.0)
        with pytest.raises(ValueError, match="lat"):
            h.observe(v)
        assert (h.count, h.sum, h.min, h.max) == (1, 2.0, 2.0, 2.0)
        assert h.counts == [0] * 7 + [1, 0]


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("thing")
        with pytest.raises(TypeError):
            m.gauge("thing")
        with pytest.raises(TypeError):
            m.histogram("thing")

    def test_label_cardinality_guard(self):
        m = MetricsRegistry(max_label_sets=3)
        for i in range(3):
            m.counter("tx.messages", pid=i)
        with pytest.raises(CardinalityError):
            m.counter("tx.messages", pid=99)
        # existing label sets stay reachable
        assert m.counter("tx.messages", pid=0).value == 0

    def test_snapshot_is_deterministic(self):
        def build():
            m = MetricsRegistry()
            m.counter("b.z", pid=1).inc()
            m.counter("a.z", host="n1").inc(2)
            m.counter("a.z", host="n0").inc(3)
            m.gauge("g").set(7)
            return m

        s1, s2 = build().snapshot(), build().snapshot()
        assert s1 == s2
        assert list(s1) == sorted(s1)
        assert s1["a.z"] == {"host=n0": 3, "host=n1": 2}

    def test_label_values_aggregation(self):
        m = MetricsRegistry()
        m.counter("tx", pid=0, transport="socket").inc(2)
        m.counter("tx", pid=0, transport="atm").inc(3)
        m.counter("tx", pid=1, transport="atm").inc(4)
        assert m.label_values("tx", "pid") == {"0": 5, "1": 4}
        assert m.label_values("tx", "transport") == {"socket": 2, "atm": 7}

    def test_merge_replaces_every_series_by_the_picked_copy(self):
        a, b, into = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.counter("tx", help="sent", pid=0).inc(2)
        b.counter("tx", pid=0).inc(5)
        b.counter("tx", pid=1).inc(3)
        b.histogram("lat").observe(0.5)
        into.counter("stale").inc()
        seen = []

        def pick(name, labels, copies):
            seen.append((name, labels, [c is not None for c in copies]))
            return copies[1] or copies[0]
        into.merge([a, b], pick)
        assert into.snapshot()["tx"] == {"pid=0": 5, "pid=1": 3}
        assert into.value("lat") == 0.5 and "stale" not in into.names()
        assert into.describe()["tx"] == ("counter", "sent")
        assert ("tx", {"pid": "1"}, [False, True]) in seen
        NULL_REGISTRY.merge([a, b], pick)
        assert NULL_REGISTRY.names() == []

    def test_describe_lists_help_text(self):
        m = MetricsRegistry()
        m.counter("tx.messages", help="messages handed to the wire")
        assert m.describe()["tx.messages"] == (
            "counter", "messages handed to the wire")


# ------------------------------------------------------------- null registry
class TestNullRegistry:
    def test_disabled_registry_hands_out_shared_noop(self):
        c = NULL_REGISTRY.counter("anything", pid=1)
        g = NULL_REGISTRY.gauge("other")
        h = NULL_REGISTRY.histogram("third")
        assert c is g is h  # one shared singleton, no allocation per handle
        c.inc()
        g.set(5)
        h.observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.names() == []

    def test_disabled_registry_records_nothing(self):
        NULL_REGISTRY.counter("x").inc(100)
        assert NULL_REGISTRY.value("x", default=0) == 0
        assert NULL_REGISTRY.total("x") == 0

    def test_instrument_types_exported(self):
        m = MetricsRegistry()
        assert isinstance(m.counter("c"), Counter)
        assert isinstance(m.gauge("g"), Gauge)
        assert isinstance(m.histogram("h"), Histogram)
