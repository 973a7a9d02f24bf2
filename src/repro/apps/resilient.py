"""Resilient matrix multiply: coordinator-tracked work reassignment.

The paper's Fig 14 matmul assumes every node survives the run.  This
variant is the self-healing counterpart: the coordinator (process 0)
splits the A rows into more *work units* than there are workers, tracks
which unit is outstanding where, and — when the failure detector
(:mod:`repro.resilience`) declares a worker DEAD — redistributes that
worker's unfinished units across the survivors.  The answer is still
checked bit-for-bit against the whole product: a crash costs time, never
correctness.

Protocol (all NCS messages, coordinator = process 0):

* ``B_TAG``    — the shared B matrix, sent to every worker first;
* ``UNIT_TAG`` — one work unit ``(unit_id, row_slice, A_block)``;
* ``RES_TAG``  — a finished block ``(unit_id, row_slice, C_block)``;
* ``STOP_TAG`` — shut a worker down (sent to dead workers too; the
  runtime forgives undeliverable mail to a frozen host).

The coordinator polls its receives (``poll_s``) instead of blocking
forever, and on every timeout consults its detector view.  Reassignment
only happens while the coordinator is *in quorum* — on the minority
side of a partition it waits rather than double-assigning units that
the majority side may also be reassigning.  Duplicate results (a unit
finished by both its original owner and a reassignee, e.g. after a
healed partition rejoins) are deduplicated by unit id.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..core.mps.error_control import MessageLost
from ..core.mps.exceptions import RecvTimeout
from .matmul import ELEMENT_BYTES, _problem, product

__all__ = ["run_resilient_matmul", "B_TAG", "UNIT_TAG", "RES_TAG",
           "STOP_TAG"]

B_TAG = 21
UNIT_TAG = 22
RES_TAG = 23
STOP_TAG = 24

#: nominal wire size of a STOP message
_STOP_BYTES = 8


def run_resilient_matmul(runtime: Any, n: int = 48, units: int = 12,
                         seed: int = 7, compute_s_per_unit: float = 0.002,
                         poll_s: float = 0.05,
                         max_polls: int = 10_000) -> dict:
    """Run the reassigning matmul on a built runtime; returns a result
    dict (makespan, correctness, reassignment/duplicate counters).

    ``runtime`` must have a :class:`~repro.resilience.ClusterResilience`
    attached — without a failure detector there is no evidence to
    reassign on.  ``units`` should exceed the worker count so a dead
    worker actually strands work.  ``max_polls`` bounds the
    coordinator's wait loop so a mis-specified scenario fails loudly
    instead of spinning forever.
    """
    if runtime.resilience is None:
        raise ValueError(
            "run_resilient_matmul needs a runtime with resilience enabled "
            "(pass resilience=ClusterResilience(...) to NcsRuntime, or add "
            "a [resilience] table to the scenario)")
    cluster = runtime.cluster
    n_hosts = cluster.n_hosts
    if n_hosts < 2:
        raise ValueError("need a coordinator and at least one worker")
    workers = list(range(1, n_hosts))
    if units < 1:
        raise ValueError("units must be >= 1")
    if n % units:
        raise ValueError(f"{n} rows do not divide into {units} units")

    A, B, ref = _problem(n, seed)
    step = n // units
    bounds = [(u * step, (u + 1) * step) for u in range(units)]
    b_bytes = n * n * ELEMENT_BYTES
    unit_bytes = step * n * ELEMENT_BYTES
    C = np.zeros((n, n))
    detector = runtime.resilience.detectors[0]
    m_reassigned = cluster.sim.metrics.counter(
        "resilience.reassigned_units",
        help="work units redistributed away from dead workers")

    stats = {"reassigned_units": 0, "duplicate_results": 0, "polls": 0,
             "stalled_out_of_quorum": 0, "dead_workers": 0}
    #: workers declared DEAD since the last reassignment.  What they held
    #: is stranded even if they rejoin before the coordinator next looks:
    #: error control abandoned their unit messages at the declaration.
    stranded: set[int] = set()
    detector.on_peer_dead.append(stranded.add)

    def worker(ctx, pid):
        b = None
        queued: list[tuple] = []   # units that raced ahead of B
        while True:
            msg = yield ctx.recv(from_process=0)
            if msg.tag == STOP_TAG:
                return pid
            if msg.tag == B_TAG:
                b = msg.data
            elif msg.tag == UNIT_TAG:
                queued.append(msg.data)
            if b is None:
                continue
            while queued:
                uid, (lo, hi), a_block = queued.pop(0)
                yield ctx.compute(compute_s_per_unit, "matmul-unit")
                block = product(a_block, b)
                yield ctx.send(-1, 0, (uid, (lo, hi), block),
                               unit_bytes, tag=RES_TAG)

    def coordinator(ctx):
        for w in workers:
            yield ctx.send(-1, w, B, b_bytes, tag=B_TAG)
        assigned: dict[int, int] = {}
        for uid in range(units):
            w = workers[uid % len(workers)]
            lo, hi = bounds[uid]
            yield ctx.send(-1, w, (uid, (lo, hi), A[lo:hi]),
                           unit_bytes, tag=UNIT_TAG)
            assigned[uid] = w
        done: set[int] = set()
        polls = 0
        while len(done) < units:
            try:
                msg = yield ctx.recv(tag=RES_TAG, timeout=poll_s)
            except (RecvTimeout, MessageLost):
                polls += 1
                stats["polls"] = polls
                if polls > max_polls:
                    raise RuntimeError(
                        f"coordinator stalled: {units - len(done)} unit(s) "
                        f"outstanding after {polls} polls")
                if not detector.in_quorum():
                    stats["stalled_out_of_quorum"] += 1
                    continue
                survivors = [w for w in workers if not detector.is_dead(w)]
                if not survivors:
                    raise RuntimeError("every worker is dead")
                lost = set(stranded)    # a send below may see another death
                stranded.clear()
                for uid, w in sorted(assigned.items()):
                    if uid in done or w not in lost:
                        continue
                    nw = survivors[uid % len(survivors)]
                    lo, hi = bounds[uid]
                    assigned[uid] = nw
                    stats["reassigned_units"] += 1
                    m_reassigned.inc()
                    cluster.tracer.point("resilience:coordinator",
                                         "reassign", (uid, w, nw))
                    yield ctx.send(-1, nw, (uid, (lo, hi), A[lo:hi]),
                                   unit_bytes, tag=UNIT_TAG)
                continue
            uid, (lo, hi), block = msg.data
            if uid in done:
                stats["duplicate_results"] += 1
                continue
            done.add(uid)
            C[lo:hi] = block
        # snapshot before STOP: once workers exit they stop heartbeating
        # and the drain tail would (correctly) count them as dead too
        stats["dead_workers"] = sum(1 for w in workers if detector.is_dead(w))
        for w in workers:
            yield ctx.send(-1, w, None, _STOP_BYTES, tag=STOP_TAG)

    runtime.t_create(0, coordinator, name="coordinator")
    for w in workers:
        runtime.t_create(w, worker, (w,), name=f"worker{w}")
    makespan = runtime.run()
    return {
        "makespan_s": makespan,
        "correct": bool(np.array_equal(C, ref)),
        "n": n, "units": units, "workers": len(workers),
        "dead_workers": stats["dead_workers"],
        "reassigned_units": stats["reassigned_units"],
        "duplicate_results": stats["duplicate_results"],
        "stalled_out_of_quorum": stats["stalled_out_of_quorum"],
    }
