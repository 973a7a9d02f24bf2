"""One shard worker: its side of the window protocol.

A worker is forked off the coordinator's built, never-run cluster and
runtime, so it holds the whole cluster; its runtime starts only the
schedulers of the pids the shard owns
(:attr:`NcsRuntime.owned_pids <repro.core.api.NcsRuntime.owned_pids>`).
The other hosts stay idle.  The worker runs the app driver unchanged:
the driver's ``rt.run()`` is :meth:`NcsRuntime.run
<repro.core.api.NcsRuntime.run>` with one step replaced,
:meth:`ShardWorker.advance`, which drives the calendar window by window
instead of to the end.

On an owned cut channel the one calendar entry per burst is moved up
from its arrival to the end of its serialization (``_lag = 0``) and the
:meth:`~repro.atm.link.Channel._dispatch` seam it ends in exports the
burst (as a :class:`~repro.sim.sharded.protocol.CutEvent`) for ``now +
prop_delay`` instead of delivering locally; the downstream worker
rebuilds the burst on its copy of the channel and delivers it at
exactly the exported instant.
"""

from __future__ import annotations

from typing import Callable

from ...config.build import ScenarioRun
from ...config.spec import SpecError
from ...registry import APP_DRIVERS
from ..kernel import SimulationError
from .merge import shard_payload
from .plan import ShardPlan
from .protocol import CutEvent

__all__ = ["ShardWorker", "run_worker"]


class _Aborted(BaseException):
    """Raised inside a worker when the coordinator aborts the run."""


class ShardWorker:
    """Shard ``shard_id`` of ``plan``, run on ``run``'s cluster.

    ``run`` is the :class:`~repro.config.build.ScenarioRun` the app
    driver receives, its cluster (and, forked off the coordinator, its
    runtime) built and never run; its runtime starts the shard's pids,
    and its :meth:`advance` is this worker's.
    ``ctl`` is the worker's end of the control pipe (unused until the
    driver runs).
    """

    def __init__(self, run: ScenarioRun, plan: ShardPlan, shard_id: int,
                 ctl=None):
        self.shard_id = shard_id
        self.ctl = ctl
        self.outbox: list[CutEvent] = []
        self.seq = 0
        self.ran = False            # did the driver ever call rt.run()?
        self.cluster = run.cluster
        self.rt = run.runtime
        self.rt.owned_pids = plan.owned_pids(shard_id)
        self.rt.advance = self.advance
        self.channels = {ch.name: ch for link in self.cluster.fabric.links
                         for ch in (link.fwd, link.rev)}
        for name, dest in sorted(plan.cut_dest.items()):
            if plan.channel_shard[name] == shard_id:
                ch = self.channels[name]
                ch._dispatch = self._exporter(ch, dest)
                ch._lag = 0.0   # export when serialization ends, as ever

    def _exporter(self, ch, dest_shard: int) -> Callable:
        """An owned cut channel's ``_dispatch`` override: export."""

        def _export(burst) -> None:
            self.seq += 1
            self.outbox.append(CutEvent(
                arrival=ch.sim.now + ch.spec.prop_delay_s,
                src_shard=self.shard_id, seq=self.seq,
                dest_shard=dest_shard, channel=ch.name,
                vc_id=burst.vc.vc_id, vci=burst.vci, msg_id=burst.msg_id,
                n_cells=burst.n_cells, payload_bytes=burst.payload_bytes,
                is_final=burst.is_final, corrupted=burst.corrupted,
                enqueued_at=burst.enqueued_at, payload=burst.payload))
        return _export

    def _inject(self, rec: CutEvent) -> None:
        """Re-materialize an imported burst at exactly ``rec.arrival``.

        The burst's VC is rebound to this universe's replica (reassembly
        is keyed by VC object identity) — established here and now if
        this is the first this universe sees of the circuit — and
        delivery skips the replica channel's queue: serialization was
        already simulated upstream, only the propagation instant matters
        here.  ``call_at`` plants the arrival at the exported float
        exactly, like a local hop.
        """
        from ...atm.cell import CellBurst
        cluster = self.cluster
        vc = cluster.signaling.resolve(rec.vc_id)
        ch = self.channels[rec.channel]
        burst = CellBurst(vc=vc, vci=rec.vci, msg_id=rec.msg_id,
                          n_cells=rec.n_cells,
                          payload_bytes=rec.payload_bytes,
                          is_final=rec.is_final, payload=rec.payload,
                          corrupted=rec.corrupted,
                          enqueued_at=rec.enqueued_at, vpi=vc.vpi)
        cluster.sim.call_at(rec.arrival, ch.endpoint.receive_burst, burst, ch)

    def advance(self, until=None, max_events=None) -> float:
        """:meth:`NcsRuntime.advance` for one shard: run the calendar
        window by window as the coordinator grants them; return the
        makespan of the whole cluster."""
        if self.ran:
            raise SpecError(
                "the sharded kernel drives runtime.run() exactly once "
                "per scenario; restructure the driver to a single run")
        if max_events is not None:
            raise SpecError("max_events is not supported on the sharded "
                            "kernel (there is no global event counter)")
        self.ran = True
        ctl, sim = self.ctl, self.cluster.sim
        finish_times = self.rt._finish_times
        ctl.send(("hello", until))
        while True:
            ctl.send(("report", sim.peek(), tuple(self.outbox), sim._now,
                      max(finish_times.values(), default=None)))
            self.outbox.clear()
            msg = ctl.recv()
            kind = msg[0]
            if kind == "window":
                for rec in msg[2]:
                    self._inject(rec)
                sim.run_below(msg[1])
            elif kind == "final":
                # align every universe's clock before telemetry close
                sim._now = msg[1]
                return msg[2]
            elif kind == "abort":
                raise _Aborted()
            else:  # pragma: no cover - protocol invariant
                raise SimulationError(
                    f"unexpected coordinator message {kind!r}")


def run_worker(run: ScenarioRun, plan: ShardPlan, shard_id: int,
               ctl) -> None:
    """A forked worker's body: run the app driver on the shard, send
    the result home (or the error, or the abort receipt)."""
    try:
        worker = ShardWorker(run, plan, shard_id, ctl)
        driver = run.spec.app.driver
        value = APP_DRIVERS.get(driver)(run)
        if not worker.ran:
            raise SpecError(
                f"driver {driver!r} never drove the spec-built "
                "runtime; the sharded kernel requires a driver that "
                "runs it")
        worker.cluster.tracer.close_all()
        payload = shard_payload(value, worker.cluster)
        try:
            ctl.send(("done", payload))
        except Exception as exc:
            ctl.send(("error", RuntimeError(
                f"shard {shard_id}: result not transferable: {exc!r}")))
    except _Aborted:
        ctl.send(("aborted",))
    except BaseException as exc:  # noqa: BLE001 - reported to coordinator
        try:
            ctl.send(("error", exc))
        except Exception:
            ctl.send(("error", RuntimeError(
                f"shard {shard_id}: {type(exc).__name__}: {exc}")))
