"""Fig 5 — per-application flow control (QoS).

A VOD-style stream under the rate-based FC thread versus the same
stream unpaced: the paced stream must hit its traffic contract with
bounded jitter, while the unpaced stream blasts at transport speed —
"NCS provides different flow control mechanisms such that the one that
best suites a given application can be invoked dynamically at runtime".
"""

import pytest

from repro.bench.figures import fig5_qos
from repro.config import ClusterSpec, ScenarioSpec, build_runtime


def test_fig5_vod_pacing():
    data = fig5_qos()
    paced, unpaced = data["rate-fc"], data["no-fc"]
    contract = data["contract_gap_s"]
    # the paced stream delivers frames at the contracted period...
    assert paced["mean_gap_s"] == pytest.approx(contract, rel=0.15)
    # ...with tight jitter
    assert paced["jitter_s"] < 0.25 * contract
    # the unpaced stream runs much hotter than the contract
    assert unpaced["mean_gap_s"] < 0.5 * contract


def test_fig5_window_fc_backpressure():
    """The PDA profile: a window contract throttles a bulk sender to the
    consumer's pace (credits only return on consumption)."""
    _, rt = build_runtime(ScenarioSpec(
        name="fig5-window-pda",
        cluster=ClusterSpec(topology="atm-lan", n_hosts=2),
        mode="hsm", flow="window",
        flow_kwargs={"window_bytes": 32 * 1024}))
    done = {}

    def sender(ctx, rtid):
        for i in range(6):
            yield ctx.send(rtid, 1, i, 32 * 1024)
        done["sender"] = ctx.now

    def consumer(ctx):
        for _ in range(6):
            yield ctx.sleep(0.5)     # slow consumer
            yield ctx.recv()

    rtid = rt.t_create(1, consumer)
    rt.t_create(0, sender, (rtid,))
    rt.run(max_events=3_000_000)
    # without credits the sender would finish in milliseconds; with the
    # window it is paced by the consumer's 0.5 s cadence
    assert done["sender"] > 1.5
