"""Distributed matrix multiplication (paper §5.1, Table 1, Figs 13/14).

Host-node model: "The host process sends the whole B matrix to all the
node process and distributes the rows of A matrix equally among the
nodes.  Each of the node processes then calculates its portion of the C
matrix and sends the result to the host process."

Two variants, ported line for line from the paper's pseudo-code:

* :func:`run_matmul_p4` — Fig 13: single-threaded p4 processes.
* :func:`run_matmul_ncs` — Fig 14: two (or more) NCS threads per
  process; host thread *t* converses with thread *t* of every node, and
  "B matrix is sent to a particular node only once, since all the
  threads share the same address space".

Both variants really compute C with numpy (verified against ``A @ B``)
while charging the calibrated 1995 compute costs to the simulated CPUs.
"""

from __future__ import annotations

import numpy as np

from ..core import NcsRuntime
from ..core.mts.sync import ThreadEvent
from ..p4 import P4Runtime
from .common import (AppResult, DATA, RESULT, ShapeError, platform_of,
                     run_p4_programs)

__all__ = ["make_matrices", "run_matmul_p4", "run_matmul_ncs"]

#: the paper's benchmark multiplies doubles
ELEMENT_BYTES = 8

#: tag distinguishing A-row chunks from the broadcast B matrix
A_DATA = 3


def make_matrices(n: int, seed: int = 7):
    """Deterministic input matrices A, B (float64)."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, n)), rng.standard_normal((n, n)))


def _row_slices(n: int, parts: int, *params: str) -> list[slice]:
    """Split n rows into ``parts`` equal slices (n must divide evenly,
    like the paper's 128 rows over 1/2/4/8 nodes); ``params`` are what
    a :class:`ShapeError` names besides the node count."""
    if parts < 1 or n % parts:
        raise ShapeError(f"{n} rows do not divide into {parts} parts",
                         *params)
    step = n // parts
    return [slice(i * step, (i + 1) * step) for i in range(parts)]


# ---------------------------------------------------------------------------
# p4 variant (Fig 13)
# ---------------------------------------------------------------------------

def run_matmul_p4(rt: P4Runtime, n: int = 128, seed: int = 7) -> AppResult:
    """The Fig 13 program: the host and one single-threaded process on
    every node of ``rt``'s cluster."""
    costs, n_nodes = platform_of(rt.cluster)
    slices = _row_slices(n, n_nodes, "n")
    A, B = make_matrices(n, seed)
    C = np.zeros((n, n))
    b_bytes = n * n * ELEMENT_BYTES

    def host_process(p4):
        # Distribute matrix
        for i in range(1, n_nodes + 1):
            sl = slices[i - 1]
            yield from p4.send(DATA, i, B, b_bytes)
            yield from p4.send(DATA, i, (sl, A[sl]),
                               (sl.stop - sl.start) * n * ELEMENT_BYTES)
        # Wait for results
        for _ in range(n_nodes):
            msg = yield from p4.recv(type_=RESULT)
            sl, block = msg.data
            C[sl] = block

    def node_process(p4):
        bmsg = yield from p4.recv(type_=DATA, from_=0)
        amsg = yield from p4.recv(type_=DATA, from_=0)
        sl, a_block = amsg.data
        rows = a_block.shape[0]
        yield from p4.compute(costs.matmul_time(rows, n, n), "matmul")
        block = a_block @ bmsg.data
        yield from p4.send(RESULT, 0, (sl, block),
                           rows * n * ELEMENT_BYTES)

    procs = [rt.spawn(0, host_process)]
    for i in range(1, n_nodes + 1):
        procs.append(rt.spawn(i, node_process))
    makespan = run_p4_programs(rt.cluster, procs)
    correct = bool(np.allclose(C, A @ B))
    return AppResult("matmul", "p4", costs.platform, n_nodes, makespan,
                     correct, details={"n": n})


# ---------------------------------------------------------------------------
# NCS variant (Fig 14)
# ---------------------------------------------------------------------------

def run_matmul_ncs(rt: NcsRuntime, n: int = 128, threads_per_node: int = 2,
                   seed: int = 7) -> AppResult:
    """The Fig 14 program: ``threads_per_node`` compute threads in the
    host process and in every node process of ``rt``; thread *t* of the
    host converses with thread *t* of each node.  Its service mode,
    flow and error control are the runtime's."""
    costs, n_nodes = platform_of(rt.cluster)
    T = threads_per_node
    slices = _row_slices(n, n_nodes * T, "n", "threads_per_node")
    A, B = make_matrices(n, seed)

    def part(node_i: int, t: int) -> slice:
        """A-rows handled by thread t of node node_i (1-based node)."""
        return slices[(node_i - 1) * T + t]

    C = np.zeros((n, n))
    b_bytes = n * n * ELEMENT_BYTES
    # per-node shared address space: B arrives once, threads share it
    shared: dict[int, dict] = {i: {} for i in range(1, n_nodes + 1)}
    b_ready: dict[int, ThreadEvent] = {
        i: ThreadEvent() for i in range(1, n_nodes + 1)}

    # tid maps filled during creation, read by bodies at run time
    host_tids: dict[int, int] = {}
    node_tids: dict[tuple[int, int], int] = {}

    def host_thread(ctx, t: int):
        # Distribute: B once per node (thread 0 only), then A parts
        for i in range(1, n_nodes + 1):
            if t == 0:
                yield ctx.send(node_tids[(i, 0)], i, B, b_bytes, tag=DATA)
            sl = part(i, t)
            yield ctx.send(node_tids[(i, t)], i, (sl, A[sl]),
                           (sl.stop - sl.start) * n * ELEMENT_BYTES,
                           tag=A_DATA)
        # Collect this thread's C parts
        for _ in range(n_nodes):
            msg = yield ctx.recv(from_thread=-1, from_process=-1, tag=RESULT)
            sl, block = msg.data
            C[sl] = block

    def node_thread(ctx, i: int, t: int):
        if t == 0:
            bmsg = yield ctx.recv(from_process=0, tag=DATA)
            shared[i]["B"] = bmsg.data
            b_ready[i].signal()
        amsg = yield ctx.recv(from_process=0, tag=A_DATA)
        yield b_ready[i].wait()
        sl, a_block = amsg.data
        rows = a_block.shape[0]
        yield ctx.compute(costs.matmul_time(rows, n, n), "matmul")
        block = a_block @ shared[i]["B"]
        yield ctx.send(host_tids[t], 0, (sl, block),
                       rows * n * ELEMENT_BYTES, tag=RESULT)

    for t in range(T):
        host_tids[t] = rt.t_create(0, host_thread, (t,), name=f"host-t{t}")
    for i in range(1, n_nodes + 1):
        for t in range(T):
            node_tids[(i, t)] = rt.t_create(
                i, node_thread, (i, t), name=f"n{i}-t{t}")

    makespan = rt.run(max_events=50_000_000)
    correct = bool(np.allclose(C, A @ B))
    return AppResult("matmul", "ncs", costs.platform, n_nodes, makespan,
                     correct, details={"n": n, "threads": T})
