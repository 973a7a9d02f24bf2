"""Property suite for the cross-shard merge layer.

The sharded kernel's determinism reduces to three small pure
functions: the merge key, the stream merge, and the window computation.
These properties pin the exact contracts the conservative protocol's
safety argument rests on:

* the merge order is *total* — any two distinct cut events compare
  strictly, so "same float instant" never degenerates into "whichever
  pipe drained first";
* the merged order depends only on the events, never on how the
  per-shard streams happened to interleave;
* the lookahead window never admits a straggler — an event drained at
  or after the global minimum arrives at or after the horizon, so no
  worker can receive an arrival in its past.  (Float addition is
  monotonic in each argument, so this holds in IEEE arithmetic, not
  just on paper.)
"""

import math

from hypothesis import given, settings, strategies as st

from repro.sim.sharded import (CutEvent, merge_cut_events, merge_key,
                               next_window)


def _ev(arrival: float, src_shard: int, seq: int) -> CutEvent:
    """A cut event with only the ordering-relevant fields varying."""
    return CutEvent(arrival=arrival, src_shard=src_shard, seq=seq,
                    dest_shard=0, channel="c", vc_id=1,
                    vci=32, msg_id=7, n_cells=1, payload_bytes=48,
                    is_final=True, corrupted=False, enqueued_at=arrival)


times = st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False)


@st.composite
def shard_streams(draw, max_shards=4, max_events=12):
    """Per-shard outbox streams: seq unique and increasing per shard,
    arrivals arbitrary (the merge must not rely on stream order)."""
    n_shards = draw(st.integers(1, max_shards))
    streams = []
    for shard in range(n_shards):
        arrivals = draw(st.lists(times, max_size=max_events))
        streams.append([_ev(t, shard, seq)
                        for seq, t in enumerate(arrivals, start=1)])
    return streams


@given(shard_streams())
def test_merge_is_a_sorted_permutation(streams):
    merged = merge_cut_events(streams)
    flat = [ev for s in streams for ev in s]
    assert sorted(map(merge_key, flat)) == [merge_key(e) for e in merged]
    assert len(merged) == len(flat)


@given(shard_streams())
def test_merge_keys_are_unique_total_order(streams):
    """(arrival, shard, seq) never ties: seq is unique within a shard,
    so even same-instant events on the same channel order strictly."""
    keys = [merge_key(e) for e in merge_cut_events(streams)]
    assert len(set(keys)) == len(keys)
    assert all(a < b for a, b in zip(keys, keys[1:]))


@given(shard_streams(), st.randoms(use_true_random=False))
def test_merge_ignores_stream_interleaving(streams, rnd):
    """Shuffling which stream the events arrive on — and the order
    within each stream — must not move a single merged position."""
    baseline = merge_cut_events(streams)
    flat = [ev for s in streams for ev in s]
    rnd.shuffle(flat)
    cut = rnd.randrange(len(flat) + 1)
    assert merge_cut_events([flat[:cut], flat[cut:]]) == baseline


@given(st.lists(times, max_size=6), st.lists(times, max_size=6),
       st.floats(min_value=1e-9, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
def test_window_is_min_plus_lookahead(peeks, pending, lookahead):
    gm, horizon = next_window(peeks, pending, lookahead)
    everything = peeks + pending
    if not everything:
        assert gm == horizon == math.inf
    else:
        assert gm == min(everything)
        assert horizon == gm + lookahead


@given(st.lists(times, min_size=1, max_size=6),
       st.lists(times, max_size=6),
       st.floats(min_value=1e-9, max_value=10.0,
                 allow_nan=False, allow_infinity=False),
       times, st.floats(min_value=0.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False))
@settings(max_examples=300)
def test_lookahead_never_admits_a_straggler(peeks, pending, lookahead,
                                            drain_offset, extra_prop):
    """Safety: any burst drained during the granted window (at
    ``t >= gm``) over a cut with propagation ``>= lookahead`` arrives
    at ``t + prop >= horizon`` — never inside any worker's past."""
    gm, horizon = next_window(peeks, pending, lookahead)
    t_drain = gm + drain_offset            # drained at or after gm
    prop = lookahead + extra_prop          # cut props are >= lookahead
    assert t_drain + prop >= horizon


@given(st.lists(times, max_size=6))
def test_quiescence_is_absorbing(pending):
    """All-idle workers (every peek inf) with no undelivered arrivals
    terminate the protocol: the window degenerates to (inf, inf)."""
    gm, horizon = next_window([math.inf, math.inf], [], 0.5)
    assert gm == horizon == math.inf
    if pending:
        gm, _ = next_window([math.inf], pending, 0.5)
        assert gm == min(pending)
