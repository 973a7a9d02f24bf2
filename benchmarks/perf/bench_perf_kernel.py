"""Wall-clock micro-benchmarks of the simulator's hot paths.

These are the same kernel benchmarks ``python -m repro.bench --perf``
writes to ``BENCH_kernel.json``, run under pytest-benchmark so the CI
perf job gets per-benchmark timings and the usual ``--benchmark-*``
tooling.  The assertions pin the deterministic ``sim`` fields — the
wall-clock threshold check lives in ``repro.bench.perf.check_regression``
against the committed baseline, not here.

Run with ``pytest benchmarks/perf -q``.
"""

from repro.bench import perf


def test_kernel_event_loop(sim_bench):
    sim = sim_bench(perf.bench_kernel_event_loop)
    assert sim["events_processed"] >= 50_000
    assert sim["sim_time_s"] == 0.05


def test_kernel_compute_hold_alone(sim_bench):
    sim = sim_bench(perf.KERNEL_BENCHMARKS["kernel.compute_hold.alone"])
    assert sim["events_processed"] < 64 * sim["n_hosts"]
    assert sim["compute_done_s"] == 10.0


def test_kernel_compute_hold_contended(sim_bench):
    sim = sim_bench(perf.KERNEL_BENCHMARKS["kernel.compute_hold.contended"])
    # what a request/timeout/release round per quantum took: 2 events a
    # quantum for the compute, 3 per lap of the contender
    assert sim["events_processed"] <= 50_009
    assert sim["compute_done_s"] == 10.5


def test_mts_context_switch(sim_bench):
    sim = sim_bench(perf.bench_mts_context_switch)
    # two threads x 5000 yields, plus scheduler entry/exit switches
    assert sim["context_switches"] >= 10_000


def test_mps_pingpong(sim_bench):
    sim = sim_bench(perf.bench_mps_pingpong)
    assert sim["roundtrips"] == 200
    assert sim["messages_sent"] == 400
    assert sim["makespan_s"] > 0
