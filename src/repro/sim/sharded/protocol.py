"""The window protocol: cross-shard events, their merge order, and the
coordinator's side of the window barrier.

Each round every worker reports its next local event time and its
outbox; the coordinator computes ``gm = min(peeks, pending arrivals)``
and grants the horizon ``gm + L`` where ``L`` is the smallest cut
channel propagation delay.  Any burst exported inside a window drains at
``t >= gm`` and therefore arrives at ``t + prop >= gm + L`` — at or past
the horizon — so no worker ever receives an event in its past
(``KernelCore.run_below`` leaves the clock strictly below the horizon).
Cross-shard arrivals are totally ordered by the merge key
``(timestamp, shard, seq)``.  The worker's side of the same exchange is
:meth:`repro.sim.sharded.worker.ShardWorker.advance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ...config.spec import SpecError
from .plan import ShardPlan
from .supervise import ShardWorkerError, Supervisor

__all__ = ["CutEvent", "merge_key", "merge_cut_events", "next_window",
           "coordinate"]


@dataclass(frozen=True)
class CutEvent:
    """One burst crossing a shard cut, in wire-flat (picklable) form."""

    arrival: float          # absolute delivery instant in the dest universe
    src_shard: int
    seq: int                # per-source-shard export sequence (1-based)
    dest_shard: int
    channel: str            # cut channel name (identical in every universe)
    vc_id: int
    vci: int
    msg_id: int
    n_cells: int
    payload_bytes: int
    is_final: bool
    corrupted: bool
    enqueued_at: float
    payload: Any = None


def merge_key(ev: CutEvent) -> tuple[float, int, int]:
    """The deterministic total order over cross-shard events."""
    return (ev.arrival, ev.src_shard, ev.seq)


def merge_cut_events(streams) -> list[CutEvent]:
    """Merge per-shard outbox streams into one total order.

    The result depends only on :func:`merge_key` — never on the
    interleaving of the input streams — which is what makes the window
    protocol replay-stable.
    """
    out = [ev for stream in streams for ev in stream]
    out.sort(key=merge_key)
    return out


def next_window(peeks, pending_arrivals, lookahead: float):
    """``(gm, horizon)`` for one coordinator round.

    ``gm`` is the earliest thing anyone could do (a local event or an
    undelivered cross-shard arrival); the horizon grants every worker
    the right to process events strictly below ``gm + lookahead``.
    ``gm == inf`` means global quiescence: ``(inf, inf)``.
    """
    gm = min(list(peeks) + list(pending_arrivals), default=math.inf)
    if math.isinf(gm):
        return math.inf, math.inf
    return gm, gm + lookahead


def coordinate(sup: Supervisor, plan: ShardPlan) -> list[dict]:
    """Drive the window protocol; return per-shard result payloads.

    Worker-*reported* errors (driver exceptions, spec violations) abort
    the survivors and re-raise the worker's own exception.  Worker
    *silence* — crash, hang, poisoned channel — aborts the survivors
    and raises :class:`ShardWorkerError`.
    """
    S = plan.n_shards
    errors: dict[int, BaseException] = {}

    def gather() -> dict[int, tuple]:
        """One message from every shard; reported errors go to
        ``errors``, silence aborts the run as a ShardWorkerError."""
        msgs = {}
        for s in range(S):
            try:
                msg = sup.recv(s)
            except ShardWorkerError as exc:
                sup.abort(exc.shard, range(S), errors)
                raise
            if msg[0] == "error":
                errors[s] = msg[1]
            else:
                msgs[s] = msg
        return msgs

    def raise_reported() -> None:
        sup.abort(None, [s for s in range(S) if s not in errors], errors)
        raise errors[min(errors)]

    hellos = gather()
    if errors:
        raise_reported()
    until = hellos[0][1]
    if any(hellos[s][1] != until for s in range(S)):
        errors[0] = SpecError(
            "workers disagree on run(until=...): "
            f"{sorted((s, m[1]) for s, m in hellos.items())}")
        raise_reported()

    pending: list[list[CutEvent]] = [[] for _ in range(S)]
    while True:
        sup.window += 1
        reports = gather()
        if errors:
            raise_reported()
        for s in range(S):
            for rec in reports[s][2]:
                pending[rec.dest_shard].append(rec)
        peeks = [reports[s][1] for s in range(S)]
        arrivals = [rec.arrival for box in pending for rec in box]
        gm, horizon = next_window(peeks, arrivals, plan.lookahead)
        if math.isinf(gm) or (until is not None and gm > until):
            if until is not None and not math.isinf(gm):
                t_final = until
            else:
                t_final = max(reports[s][3] for s in range(S))
            done = [reports[s][4] for s in range(S)
                    if reports[s][4] is not None]
            makespan = max(done) if done else t_final
            for s in range(S):
                sup.ctls[s].send(("final", t_final, makespan))
            break
        if until is not None:
            horizon = min(horizon, math.nextafter(until, math.inf))
        for s in range(S):
            box = merge_cut_events([pending[s]])
            pending[s] = []
            sup.ctls[s].send(("window", horizon, tuple(box)))

    results = gather()
    if errors:
        raise errors[min(errors)]
    return [results[s][1] for s in range(S)]
