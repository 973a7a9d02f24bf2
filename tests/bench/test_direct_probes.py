"""The two probes ``benchmarks/e2e/layers.py`` imports from
:mod:`repro.bench.perf`.

``layers.direct_calls`` times ``bench_kernel_event_loop(n)`` per event
and divides ``bench_mts_context_switch(n)``'s wall time by its
``context_switches``.  Tier-1 does not run ``benchmarks/e2e``, so these
tests hold the names, the arguments and the fields it reads.
"""

from repro.bench.perf import bench_kernel_event_loop, bench_mts_context_switch


def test_event_loop_runs_one_timeout_per_event():
    got = bench_kernel_event_loop(100)
    # the chain's 100 timeouts, plus the process's boot and its end
    assert got == {"events_processed": 102, "sim_time_s": 0.0001}


def test_context_switch_counts_two_switches_per_yield():
    got = bench_mts_context_switch(10)
    # each thread's first dispatch, then one switch per yield of each
    assert got["context_switches"] == 22
    assert got["sim_time_s"] > 0
    assert bench_mts_context_switch(20)["context_switches"] == 42
