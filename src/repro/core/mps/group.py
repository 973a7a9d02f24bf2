"""Group communication (§3.1): 1-to-many, many-to-1, many-to-many.

``NCS_bcast`` itself is an op (Fig 7); the richer collectives here are
generator helpers composed from Send/Recv ops, to be used inside thread
bodies with ``yield from``::

    parts = yield from gather(ctx, members, my_part, size)

All collectives address *threads* — a member list is a sequence of
``(tid, pid)`` pairs, mirroring the ``identifier *list`` argument of
``NCS_bcast`` in Fig 7.

When the process's collective strategy *offloads* (``collectives =
"nic"``), :func:`bcast` and :func:`reduce` emit
``CollectiveBcast``/``CollectiveReduce`` ops instead of composing
Send/Recv trees — the operation then runs in adapter firmware (see
:mod:`repro.core.mps.collectives`).  Offloaded reductions fold in
sorted ``(pid, tid)`` member order (host reductions fold in arrival
order), so non-commutative fold functions may differ between
strategies; offloaded broadcasts always deliver one copy per
destination process, like ``dedup_processes``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from ..mts import ops
from .message import NcsMessage

__all__ = ["bcast", "gather", "scatter", "reduce", "all_to_all"]

#: tag space reserved for collective traffic
_GATHER_TAG = -100
_SCATTER_TAG = -101
_REDUCE_TAG = -102
_ALLTOALL_TAG = -103


def _me(ctx) -> tuple[int, int]:
    return (ctx.my_tid, ctx.my_pid)


def _offloads(ctx) -> bool:
    mps = getattr(ctx.scheduler, "mps", None)
    return mps is not None and mps.collectives.offloads


def bcast(ctx, members: Sequence[tuple[int, int]], data: Any, size: int,
          tag: int = 0, dedup_processes: bool = False):
    """1-to-many: send ``data`` to every member except the caller."""
    others = [tuple(m) for m in members if tuple(m) != _me(ctx)]
    if not others:
        return
    if _offloads(ctx) and all(pid != ctx.my_pid for _, pid in others):
        # NIC multicast reaches processes, not threads: offload only
        # when no same-process sibling needs a local copy
        yield ops.CollectiveBcast(
            tuple(sorted({pid for _, pid in others})), data, size, tag)
        return
    yield ctx.bcast(others, data, size, tag=tag,
                    dedup_processes=dedup_processes)


def gather(ctx, root: tuple[int, int], members: Sequence[tuple[int, int]],
           data: Any, size: int):
    """Many-to-1: the root returns ``{(tid, pid): data}`` for every
    member (including itself); non-roots return None."""
    root = tuple(root)
    if _me(ctx) == root:
        out = {root: data}
        for _ in range(len([m for m in members if tuple(m) != root])):
            msg: NcsMessage = yield ctx.recv(tag=_GATHER_TAG)
            out[(msg.from_thread, msg.from_process)] = msg.data
        return out
    yield ctx.send(root[0], root[1], data, size, tag=_GATHER_TAG)
    return None


def scatter(ctx, root: tuple[int, int], members: Sequence[tuple[int, int]],
            parts: Optional[dict] = None, size: int = 0):
    """1-to-many personalized: the root sends ``parts[(tid, pid)]`` to
    each member; every member returns its own part."""
    me = _me(ctx)
    if me == tuple(root):
        if parts is None:
            raise ValueError("root must supply parts")
        for m in members:
            m = tuple(m)
            if m != me:
                yield ctx.send(m[0], m[1], parts[m], size, tag=_SCATTER_TAG)
        return parts[me]
    msg: NcsMessage = yield ctx.recv(from_thread=root[0],
                                     from_process=root[1], tag=_SCATTER_TAG)
    return msg.data


def reduce(ctx, root: tuple[int, int], members: Sequence[tuple[int, int]],
           data: Any, size: int, op: Callable[[Any, Any], Any]):
    """Many-to-1 with combination: the root returns
    ``op(op(a, b), c)...`` over every member's contribution."""
    if _offloads(ctx):
        # the firmware reads only len(members): pass the caller's
        # sequence through rather than copy n pairs per member
        result = yield ops.CollectiveReduce(
            tuple(root), members, data, size, op, tag=_REDUCE_TAG)
        return result
    if _me(ctx) == tuple(root):
        acc = data
        for _ in range(len([m for m in members if tuple(m) != tuple(root)])):
            msg: NcsMessage = yield ctx.recv(tag=_REDUCE_TAG)
            acc = op(acc, msg.data)
        return acc
    yield ctx.send(root[0], root[1], data, size, tag=_REDUCE_TAG)
    return None


def all_to_all(ctx, members: Sequence[tuple[int, int]],
               parts: dict, size: int):
    """Many-to-many personalized exchange.  ``parts[(tid, pid)]`` is the
    caller's contribution for each member; returns the same mapping
    filled with what everyone sent the caller."""
    me = _me(ctx)
    others = [tuple(m) for m in members if tuple(m) != me]
    for m in others:
        yield ctx.send(m[0], m[1], parts[m], size, tag=_ALLTOALL_TAG)
    out = {me: parts[me]}
    for _ in others:
        msg: NcsMessage = yield ctx.recv(tag=_ALLTOALL_TAG)
        out[(msg.from_thread, msg.from_process)] = msg.data
    return out
