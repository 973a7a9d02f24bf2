"""Fig 16 — computation/communication/idle occupancy per processor.

The figure's data for the JPEG pipeline: per-host fractions of the
makespan spent computing, communicating, in overheads and idle, for the
single-threaded and the two-thread variants.  The figure's message: the
multithreaded pipeline strips out idle time.
"""

from repro.bench.figures import fig16_utilization


def test_fig16_idle_reduction():
    data = fig16_utilization()
    single = data["single-threaded"]
    multi = data["multithreaded"]
    # the multithreaded pipeline finishes sooner...
    assert multi["makespan_s"] < single["makespan_s"]
    # ...because the workers waste less of the wall clock idle
    def worker_idle(run):
        hosts = run["hosts"]
        workers = {k: v for k, v in hosts.items() if k != "n0"}
        return sum(v["idle_frac"] for v in workers.values()) / len(workers)
    assert worker_idle(multi) < worker_idle(single)
    # sanity: fractions are fractions
    for run in data.values():
        for h in run["hosts"].values():
            total = (h["compute_frac"] + h["communicate_frac"]
                     + h["overhead_frac"] + h["idle_frac"])
            assert 0.99 <= total <= 1.01
