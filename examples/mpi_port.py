#!/usr/bin/env python
"""Porting an MPI program to NCS "without any change" (paper §4.2).

"We will also develop the message passing filters for the commonly used
message passing tools (e.g., p4, PVM, MPI) so that any parallel/
distributed application written using these tools can be ported to NCS
without any change."

This example is a classic MPI program — scatter rows, broadcast B,
multiply locally, gather C, allreduce a checksum — written purely
against the MPI filter surface.  The same function body runs unchanged
over all three NCS transports: the service mode is just a registered
transport name in the scenario spec, so sweeping the tiers is
``SPEC.replace(mode=...)``.

Run:  python examples/mpi_port.py
"""

import numpy as np

from repro.config import ClusterSpec, ScenarioSpec, build_runtime
from repro.core.mps.filters import MpiFilter

N = 64
RANKS = 4

SPEC = ScenarioSpec(
    name="mpi-port",
    description="MPI-filter matmul on a 4-host ATM LAN",
    cluster=ClusterSpec(topology="atm-lan", n_hosts=RANKS),
    barriers={0: RANKS},
)


def mpi_program(ctx):
    """An unmodified 'MPI' matmul kernel."""
    mpi = MpiFilter(ctx, comm_size=RANKS)
    rank = mpi.comm_rank()
    rng = np.random.default_rng(11)
    A = rng.standard_normal((N, N)) if rank == 0 else None
    B = rng.standard_normal((N, N)) if rank == 0 else None

    rows = N // RANKS
    parts = ([A[r * rows:(r + 1) * rows] for r in range(RANKS)]
             if rank == 0 else None)
    my_rows = yield from mpi.scatter(0, parts, rows * N * 8)
    B = yield from mpi.bcast_from_root(0, B, N * N * 8)
    yield mpi.barrier(barrier_id=0)

    yield ctx.compute(rows * N * N * 1e-8, "local-matmul")
    my_c = my_rows @ B

    blocks = yield from mpi.gather(0, my_c, rows * N * 8)
    checksum = yield from mpi.allreduce(float(np.sum(my_c)), 8,
                                        op=lambda a, b: a + b)
    if rank == 0:
        C = np.vstack(blocks)
        return C, checksum
    return None, checksum


def run(mode: str) -> None:
    _, rt = build_runtime(SPEC.replace(mode=mode))
    tids = [rt.t_create(r, mpi_program, name=f"rank{r}")
            for r in range(RANKS)]
    makespan = rt.run()
    C, checksum = rt.thread_result(0, tids[0])
    rng = np.random.default_rng(11)
    A, B = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    assert np.allclose(C, A @ B), "ported program computed a wrong product"
    assert abs(checksum - np.sum(C)) < 1e-6 * max(1.0, abs(np.sum(C)))
    checks = [rt.thread_result(r, tids[r])[1] for r in range(RANKS)]
    assert all(abs(c - checksum) < 1e-9 for c in checks)
    print(f"  {mode:>4}: correct product, allreduce checksum "
          f"{checksum:+.3f}, makespan {makespan * 1e3:.1f} ms")


def main() -> None:
    print(f"MPI-filter matmul ({N}x{N}, {RANKS} ranks) on every NCS tier:")
    for mode in ("p4", "nsm", "hsm"):
        run(mode)
    print("same program text, three transports — the Fig 6 filter promise.")


if __name__ == "__main__":
    main()
