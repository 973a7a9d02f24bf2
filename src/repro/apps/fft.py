"""Distributed DIF FFT (paper §5.3, Table 3, Figs 19/20/21).

Decimation-in-frequency radix-2 FFT over the host-node model.  With M
sample points and P workers (P = N processes for p4, P = 2N threads for
NCS), each worker holds two arrays A and B of M/(2P) points:
initially ``A = s[w*r : (w+1)*r]`` and ``B = s[M/2 + w*r : ...]``
(r = M/(2P)).

Each of the first log2(P) stages performs the butterfly
``X = A + B; Y = (A - B) * W**k`` with ``k = ((w*r + i) * 2**step) mod M/2``
(the uniform twiddle rule of Fig 21) and then exchanges with the partner
at distance ``d = P / 2**(step+1)``: the low worker keeps X and receives
the partner's X; the high worker keeps Y and receives the partner's Y —
after which every worker owns a contiguous chunk of one independent
sub-problem.  The remaining log2(M) - log2(P) stages are local.  In the
NCS version the *last* exchange pairs the two threads of one process,
so it crosses no wire (paper: "the last communication step is local
among threads and does not involve remote communication").

``dif_fft_local`` / ``DifWorkerState`` implement the math once; both
the p4 and NCS programs and the sequential reference drive the same
code, and the reference is validated against ``numpy.fft.fft``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import NcsRuntime
from ..core.mps import ServiceMode
from ..p4 import P4Runtime
from .common import (AppResult, DATA, RESULT, build_platform_cluster,
                     platform_costs, run_p4_programs)

__all__ = ["DifWorkerState", "dif_fft_reference", "bit_reverse_indices",
           "run_fft_p4", "run_fft_ncs", "make_samples"]

#: complex64 on the wire (matching the paper's single-precision era data)
ELEMENT_BYTES = 8

EXCHANGE_TAG = 7


def make_samples(m: int, n_sets: int = 8, seed: int = 3) -> np.ndarray:
    """``n_sets`` independent sample vectors of length ``m``."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n_sets, m))
            + 1j * rng.standard_normal((n_sets, m)))


def bit_reverse_indices(m: int) -> np.ndarray:
    """Output permutation of an in-place DIF FFT."""
    bits = int(math.log2(m))
    idx = np.arange(m)
    out = np.zeros(m, dtype=int)
    for _ in range(bits):
        out = (out << 1) | (idx & 1)
        idx >>= 1
    return out


@dataclass
class DifWorkerState:
    """The per-worker computation of Figs 20/21, shared by all variants."""

    worker: int                  # global worker number (thread_num)
    n_workers: int               # P
    m: int                       # M sample points
    a: np.ndarray
    b: np.ndarray
    base: int = field(init=False)   # virtual position of A[0] (tracked)

    def __post_init__(self) -> None:
        if self.m & (self.m - 1):
            raise ValueError("M must be a power of two")
        if self.n_workers & (self.n_workers - 1):
            raise ValueError("worker count must be a power of two")
        r = self.m // (2 * self.n_workers)
        if len(self.a) != r or len(self.b) != r:
            raise ValueError("A/B chunks must hold M/(2P) points each")
        self.base = self.worker * r

    @property
    def r(self) -> int:
        return self.m // (2 * self.n_workers)

    @property
    def comm_stages(self) -> int:
        return int(math.log2(self.n_workers))

    @property
    def local_stages(self) -> int:
        return int(math.log2(self.m)) - self.comm_stages

    def butterfly(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        """One X/Y butterfly with the Fig 21 twiddle rule."""
        i = np.arange(self.r)
        k = ((self.worker * self.r + i) * (1 << step)) % (self.m // 2)
        w = np.exp(-2j * np.pi * k / self.m)
        x = self.a + self.b
        y = (self.a - self.b) * w
        return x, y

    def partner(self, step: int) -> tuple[int, bool]:
        """(partner worker, am-I-the-low-half) for a comm stage."""
        d = self.n_workers >> (step + 1)
        low = (self.worker % (2 * d)) < d
        return (self.worker + d if low else self.worker - d), low

    def exchange_prepare(self, step: int):
        """Compute the butterfly and decide what to ship: the low worker
        sends Y (keeping X), the high worker sends X (keeping Y).
        Returns (partner, outgoing, keep_is_a)."""
        x, y = self.butterfly(step)
        partner, low = self.partner(step)
        if low:
            return partner, y, x, True
        return partner, x, y, False

    def exchange_complete(self, step: int, kept: np.ndarray,
                          received: np.ndarray, low: bool) -> None:
        """Install the kept/received halves and the new virtual base.

        Invariant: entering stage *s*, A sits at virtual positions
        ``base + i`` and B at ``base + M/2^(s+1) + i``.  The low partner
        keeps the X (top) sub-problem, so its base is unchanged; the
        high partner keeps the Y (bottom) sub-problem, whose positions
        start ``M/2^(s+1) - M/2^(s+2)`` above its old base — i.e. the
        base advances by ``M >> (step + 2)``.
        """
        if low:
            self.a = kept
            self.b = received
        else:
            self.a = received
            self.b = kept
            self.base += self.m >> (step + 2)

    def run_local_stages(self) -> np.ndarray:
        """Run the remaining stages on the worker's contiguous 2r chunk;
        returns the chunk in virtual (pre-bit-reversal) order."""
        u = np.concatenate([self.a, self.b])
        total_stages = int(math.log2(self.m))
        for step in range(self.comm_stages, total_stages):
            m_blk = self.m >> step          # current block size (global)
            h = m_blk // 2
            k = (np.arange(h) * (1 << step)) % (self.m // 2)
            w = np.exp(-2j * np.pi * k / self.m)
            # within our chunk, blocks are contiguous and h <= r: one row
            # per block, every block under the same twiddles
            blocks = u.reshape(-1, m_blk)
            top = blocks[:, :h]
            bot = blocks[:, h:]
            x = top + bot
            y = (top - bot) * w
            blocks[:, :h] = x
            blocks[:, h:] = y
        return u

    def n_butterflies(self) -> int:
        """Butterflies this worker performs across all stages."""
        return self.r * int(math.log2(self.m))


def dif_fft_reference(s: np.ndarray, n_workers: int) -> np.ndarray:
    """Sequential execution of the exact distributed algorithm (all
    workers simulated in-process) — the correctness oracle for the
    message-passing variants, itself validated against numpy."""
    m = len(s)
    r = m // (2 * n_workers)
    workers = [
        DifWorkerState(w, n_workers, m,
                       s[w * r:(w + 1) * r].astype(complex),
                       s[m // 2 + w * r: m // 2 + (w + 1) * r].astype(complex))
        for w in range(n_workers)
    ]
    for step in range(workers[0].comm_stages):
        outgoing = {}
        plans = {}
        for st in workers:
            partner, out, keep, low = st.exchange_prepare(step)
            outgoing[st.worker] = out
            plans[st.worker] = (partner, keep, low)
        for st in workers:
            partner, keep, low = plans[st.worker]
            st.exchange_complete(step, keep, outgoing[partner], low)
    v = np.zeros(m, dtype=complex)
    for st in workers:
        chunk = st.run_local_stages()
        v[st.base:st.base + 2 * st.r] = chunk
    return v[bit_reverse_indices(m)]


# ---------------------------------------------------------------------------
# p4 variant (Fig 19): one worker per process
# ---------------------------------------------------------------------------

def run_fft_p4(platform: str, n_nodes: int, m: int = 512, n_sets: int = 8,
               seed: int = 3, trace: bool = False, cluster=None,
               p4_params=None) -> AppResult:
    """Host + ``n_nodes`` single-threaded p4 workers, ``n_sets`` sample
    sets processed one after another (paper §5.3.1)."""
    samples = make_samples(m, n_sets, seed)
    costs = platform_costs(platform)
    cluster = cluster or build_platform_cluster(platform, n_nodes + 1,
                                                trace=trace)
    rt = P4Runtime(cluster, p4_params)
    P = n_nodes
    r = m // (2 * P)
    chunk_bytes = r * ELEMENT_BYTES
    outputs = np.zeros((n_sets, m), dtype=complex)

    def host(p4):
        for k in range(n_sets):
            s = samples[k]
            yield from p4.compute(0.5 * m * costs.fft_host_per_point_s,
                                  "fft-host-prep")
            for w in range(P):
                a = s[w * r:(w + 1) * r].astype(complex)
                b = s[m // 2 + w * r: m // 2 + (w + 1) * r].astype(complex)
                yield from p4.send(DATA, w + 1, (a, b), 2 * chunk_bytes)
            v = np.zeros(m, dtype=complex)
            for _ in range(P):
                msg = yield from p4.recv(type_=RESULT)
                base, chunk = msg.data
                v[base:base + 2 * r] = chunk
            yield from p4.compute(0.5 * m * costs.fft_host_per_point_s,
                                  "fft-host-assemble")
            outputs[k] = v[bit_reverse_indices(m)]

    def node(p4):
        w = p4.pid - 1
        for _ in range(n_sets):
            msg = yield from p4.recv(type_=DATA, from_=0)
            a, b = msg.data
            st = DifWorkerState(w, P, m, a, b)
            for step in range(st.comm_stages):
                yield from p4.compute(r * costs.fft_butterfly_s,
                                      "fft-butterfly")
                partner, out, keep, low = st.exchange_prepare(step)
                yield from p4.send(EXCHANGE_TAG + step, partner + 1, out,
                                   chunk_bytes)
                rmsg = yield from p4.recv(type_=EXCHANGE_TAG + step,
                                          from_=partner + 1)
                st.exchange_complete(step, keep, rmsg.data, low)
            yield from p4.compute(st.local_stages * r * costs.fft_butterfly_s,
                                  "fft-butterfly")
            chunk = st.run_local_stages()
            yield from p4.send(RESULT, 0, (st.base, chunk), 2 * chunk_bytes)

    procs = [rt.spawn(0, host)] + [rt.spawn(i, node)
                                   for i in range(1, P + 1)]
    makespan = run_p4_programs(cluster, procs)
    ref = np.fft.fft(samples, axis=1)
    correct = bool(np.allclose(outputs, ref))
    return AppResult("fft", "p4", platform, n_nodes, makespan, correct,
                     details={"m": m, "sets": n_sets}, cluster=cluster)


# ---------------------------------------------------------------------------
# NCS variant (Figs 20/21): two threads per node process
# ---------------------------------------------------------------------------

def run_fft_ncs(platform: str, n_nodes: int, m: int = 512, n_sets: int = 8,
                threads_per_node: int = 2, seed: int = 3,
                trace: bool = False, mode: ServiceMode = ServiceMode.P4,
                cluster=None, p4_params=None) -> AppResult:
    """Host (single thread, §5.3.2) + ``threads_per_node`` worker threads
    per node: worker ``w`` is thread ``w % T`` of process ``w // T + 1``;
    the final exchange pairs the threads of one process, so it never
    touches the network."""
    samples = make_samples(m, n_sets, seed)
    costs = platform_costs(platform)
    cluster = cluster or build_platform_cluster(platform, n_nodes + 1,
                                                trace=trace)
    rt = NcsRuntime(cluster, mode=mode, p4_params=p4_params)
    T = threads_per_node
    P = n_nodes * T
    r = m // (2 * P)
    chunk_bytes = r * ELEMENT_BYTES
    outputs = np.zeros((n_sets, m), dtype=complex)

    worker_tids: dict[int, int] = {}   # worker -> tid
    host_tid_box: list[int] = []

    def wpid(w: int) -> int:
        return w // T + 1

    def host_thread(ctx):
        for k in range(n_sets):
            s = samples[k]
            yield ctx.compute(0.5 * m * costs.fft_host_per_point_s,
                              "fft-host-prep")
            for w in range(P):
                a = s[w * r:(w + 1) * r].astype(complex)
                b = s[m // 2 + w * r: m // 2 + (w + 1) * r].astype(complex)
                yield ctx.send(worker_tids[w], wpid(w), (a, b),
                               2 * chunk_bytes, tag=DATA)
            v = np.zeros(m, dtype=complex)
            for _ in range(P):
                msg = yield ctx.recv(tag=RESULT)
                base, chunk = msg.data
                v[base:base + 2 * r] = chunk
            yield ctx.compute(0.5 * m * costs.fft_host_per_point_s,
                              "fft-host-assemble")
            outputs[k] = v[bit_reverse_indices(m)]

    def worker_thread(ctx, w: int):
        for _ in range(n_sets):
            msg = yield ctx.recv(from_process=0, tag=DATA)
            a, b = msg.data
            st = DifWorkerState(w, P, m, a, b)
            for step in range(st.comm_stages):
                yield ctx.compute(r * costs.fft_butterfly_s, "fft-butterfly")
                partner, out, keep, low = st.exchange_prepare(step)
                yield ctx.send(worker_tids[partner], wpid(partner), out,
                               chunk_bytes, tag=EXCHANGE_TAG + step)
                rmsg = yield ctx.recv(from_thread=worker_tids[partner],
                                      from_process=wpid(partner),
                                      tag=EXCHANGE_TAG + step)
                st.exchange_complete(step, keep, rmsg.data, low)
            yield ctx.compute(st.local_stages * r * costs.fft_butterfly_s,
                              "fft-butterfly")
            chunk = st.run_local_stages()
            yield ctx.send(host_tid_box[0], 0, (st.base, chunk),
                           2 * chunk_bytes, tag=RESULT)

    host_tid_box.append(rt.t_create(0, host_thread, name="fft-host"))
    for w in range(P):
        worker_tids[w] = rt.t_create(wpid(w), worker_thread, (w,),
                                     name=f"w{w}")
    makespan = rt.run(max_events=50_000_000)
    ref = np.fft.fft(samples, axis=1)
    correct = bool(np.allclose(outputs, ref))
    return AppResult("fft", "ncs", platform, n_nodes, makespan, correct,
                     details={"m": m, "sets": n_sets, "threads": T,
                              "mode": mode.value},
                     cluster=cluster)
