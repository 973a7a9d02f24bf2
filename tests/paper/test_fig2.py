"""Fig 2 — concurrent data transfers through multiple I/O buffers.

Sweeps the number of kernel output buffers for a 256 KB send: with one
buffer the host copy and the adapter transfer strictly alternate; with
two or more they overlap and the sender-side time drops until the
pipeline saturates at the slower of the two stages (the Fig 2 claim:
"the network interface starts transferring the data in the first buffer
while NCS is filling the second").
"""

from repro.bench.figures import fig2_buffer_sweep


def test_fig2_buffer_sweep():
    results = fig2_buffer_sweep()
    one, two = results[1], results[2]
    # pipelining shortens both the sender-busy time and delivery
    assert two["caller_free"] < 0.75 * one["caller_free"]
    assert two["delivered"] < one["delivered"]
    # the pipeline saturates once the slower stage is fully hidden
    assert results[8]["delivered"] <= two["delivered"] * 1.01
    # monotone: more buffers never hurt
    ks = sorted(results)
    for a, b in zip(ks, ks[1:]):
        assert results[b]["caller_free"] <= results[a]["caller_free"] * 1.01


def test_fig2_small_message_insensitive():
    """Messages that fit one buffer gain nothing — the pipeline matters
    for bulk transfers."""
    results = fig2_buffer_sweep(4 * 1024, (1, 4))
    assert results[4]["delivered"] == results[1]["delivered"]
