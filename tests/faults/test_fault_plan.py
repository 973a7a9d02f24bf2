"""FaultPlan: validation, ordering, description, seeded generation."""

import pytest

from repro.faults import (
    BerSpike, FaultPlan, HostCrash, LinkOutage, MessageLoss, Partition,
    SwitchPortStall,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            LinkOutage(at=-0.1, duration=0.1, host=0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            LinkOutage(at=0.1, duration=0.0, host=0)
        with pytest.raises(ValueError):
            HostCrash(at=0.1, duration=-1.0, host=0)

    def test_nan_and_endless_times_rejected(self):
        """NaN compares false with everything, so ``at < 0`` and
        ``duration <= 0`` let it through."""
        nan = float("nan")
        with pytest.raises(ValueError, match="fault time"):
            LinkOutage(at=nan, duration=0.1, host=0)
        with pytest.raises(ValueError, match="fault duration"):
            HostCrash(at=0.1, duration=nan, host=0)

    def test_permanent_is_none_duration(self):
        ev = LinkOutage(at=0.1, host=0)
        assert ev.permanent
        assert ev.ends_at is None
        transient = LinkOutage(at=0.1, duration=0.2, host=0)
        assert not transient.permanent
        assert transient.ends_at == pytest.approx(0.3)

    def test_ber_range(self):
        with pytest.raises(ValueError):
            BerSpike(at=0.0, duration=0.1, ber=1.0)
        with pytest.raises(ValueError):
            BerSpike(at=0.0, duration=0.1, ber=-1e-9)
        BerSpike(at=0.0, duration=0.1, ber=0.0)  # edge: allowed

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            MessageLoss(at=0.0, p=0.0)
        with pytest.raises(ValueError):
            MessageLoss(at=0.0, p=1.5)
        MessageLoss(at=0.0, p=1.0)  # total loss: allowed

    def test_partition_needs_two_disjoint_groups(self):
        with pytest.raises(ValueError):
            Partition(at=0.0, groups=((0, 1),))
        with pytest.raises(ValueError):
            Partition(at=0.0, groups=((0, 1), (1, 2)))
        Partition(at=0.0, groups=((0,), (1, 2)))


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan((
            LinkOutage(at=0.5, duration=0.1, host=0),
            HostCrash(at=0.1, duration=0.1, host=1),
            BerSpike(at=0.3, duration=0.1, host=0, ber=1e-6),
        ))
        assert [e.at for e in plan] == [0.1, 0.3, 0.5]
        assert len(plan) == 3

    def test_permanent_events_filter(self):
        plan = FaultPlan((
            LinkOutage(at=0.1, duration=0.1, host=0),
            Partition(at=0.2, groups=((0,), (1,))),
        ))
        assert plan.permanent_events == (Partition(at=0.2, groups=((0,), (1,))),)

    def test_describe_mentions_every_event(self):
        plan = FaultPlan((
            SwitchPortStall(at=0.1, duration=0.2, host=2),
            MessageLoss(at=0.3, duration=0.1, p=0.25, pids=(1, 2)),
        ), label="doc")
        text = plan.describe()
        assert "doc" in text
        assert "switch-port-stall(host=2)" in text
        assert "message-loss(p=0.25, pids=1,2)" in text


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(42, n_hosts=4, t_max=1.0, n_events=6)
        b = FaultPlan.random(42, n_hosts=4, t_max=1.0, n_events=6)
        assert a.events == b.events

    def test_different_seed_different_plan(self):
        a = FaultPlan.random(1, n_hosts=4, n_events=6)
        b = FaultPlan.random(2, n_hosts=4, n_events=6)
        assert a.events != b.events

    def test_generated_events_are_transient_and_in_range(self):
        plan = FaultPlan.random(7, n_hosts=3, t_max=0.5, n_events=10)
        assert len(plan) == 10
        for ev in plan:
            assert not ev.permanent
            assert 0.0 <= ev.at <= 0.5
            host = getattr(ev, "host", None)
            if host is not None:
                assert 0 <= host < 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.random(1, n_hosts=2, kinds=("earthquake",))
        with pytest.raises(ValueError):
            FaultPlan.random(1, n_hosts=0)

    # each was accepted, failed inside numpy, or passed unless drawn
    @pytest.mark.parametrize("kwargs,named", [
        ({"t_max": -1.0}, "t_max"),
        ({"t_max": 0.0}, "t_max"),
        ({"t_max": float("nan")}, "t_max"),
        ({"t_max": float("inf")}, "t_max"),
        ({"n_events": -2}, "n_events"),
        ({"n_events": 1, "kinds": ("link", "no-such-kind")}, "kinds"),
        ({"kinds": ()}, "kinds"),
        ({"n_hosts": 0}, "n_hosts"),
    ], ids=repr)
    def test_a_bad_argument_is_named_before_any_draw(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{named}: "):
            FaultPlan.random(1, **{"n_hosts": 2, **kwargs})
