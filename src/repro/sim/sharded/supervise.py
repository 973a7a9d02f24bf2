"""Supervision: the coordinator never waits unboundedly on a worker.

Every coordinator-side control-pipe receive runs under a watchdog
(:class:`Supervisor`) parameterized by the spec's
``[runtime.supervision]`` table — a wall-clock barrier deadline bounds
each window, with liveness polls in between so a dead worker is
detected in milliseconds rather than at deadline expiry.  Failures are
classified (``crashed`` / ``hung`` / ``poisoned``) into
:class:`ShardWorkerError`; what to do about one is the recovery policy
of :func:`repro.sim.sharded.run_scenario_sharded`.  All timing is
wall-clock: the supervisor never reads or feeds simulated time.
"""

from __future__ import annotations

import time
from typing import Optional

from ...config.spec import SupervisionSpec
from ..kernel import SimulationError

__all__ = ["ShardWorkerError", "Supervisor"]


class ShardWorkerError(SimulationError):
    """A shard worker failed in the *execution substrate*, not the model.

    The supervisor classifies every control-plane failure into one
    ``reason``:

    * ``"crashed"`` — the worker process died without reporting (pipe
      EOF or an exit code);
    * ``"hung"`` — the worker stayed alive but sent nothing within the
      barrier deadline (``runtime.supervision.barrier_deadline_s``);
    * ``"poisoned"`` — the control channel delivered a payload that
      could not be deserialized.

    ``window`` is the coordinator's 1-based round counter at the time of
    failure (0 = the hello phase) and ``last_good`` the wall-clock
    :func:`time.monotonic` stamp of the worker's last healthy message —
    both are wall-clock/protocol facts, never simulated time, so
    supervision cannot perturb determinism.
    """

    def __init__(self, shard: int, window: int, reason: str,
                 detail: str = "", last_good: Optional[float] = None):
        self.shard = shard
        self.window = window
        self.reason = reason
        self.detail = detail
        self.last_good = last_good
        msg = f"shard {shard} worker {reason} at window {window}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class Supervisor:
    """The coordinator's ends of one launch: a control pipe and a
    forked worker process per shard.

    Each :meth:`recv` is bounded by the spec's barrier deadline and
    interleaved with liveness polls every ``liveness_poll_s``, so a
    crashed worker is detected within one poll interval — not after the
    full deadline — while a wedged-but-alive worker is declared
    ``hung`` only once the deadline truly expires.
    """

    def __init__(self, ctls, workers, spec: SupervisionSpec):
        self.ctls = ctls
        self.workers = workers
        self.spec = spec
        self.window = 0                 # current coordinator round
        now = time.monotonic()
        self.last_good = [now] * len(ctls)

    def fail(self, shard: int, reason: str,
             detail: str = "") -> ShardWorkerError:
        return ShardWorkerError(shard=shard, window=self.window,
                                reason=reason, detail=detail,
                                last_good=self.last_good[shard])

    def recv(self, shard: int, timeout: Optional[float] = None):
        """One supervised receive; raises :class:`ShardWorkerError`."""
        budget = self.spec.barrier_deadline_s if timeout is None else timeout
        deadline = time.monotonic() + budget
        ctl = self.ctls[shard]
        while True:
            remaining = deadline - time.monotonic()
            step = min(self.spec.liveness_poll_s, max(remaining, 0.0))
            try:
                ready = ctl.poll(step)
            except (EOFError, OSError) as exc:
                raise self.fail(shard, "crashed",
                                f"control channel failed: {exc!r}")
            if ready:
                try:
                    msg = ctl.recv()
                except EOFError:
                    raise self.fail(shard, "crashed",
                                    "worker closed its control channel "
                                    "without reporting") from None
                except OSError as exc:
                    raise self.fail(shard, "crashed",
                                    f"control channel failed: {exc!r}")
                except Exception as exc:
                    raise self.fail(shard, "poisoned",
                                    f"undecodable control payload: {exc!r}")
                self.last_good[shard] = time.monotonic()
                return msg
            if not self.workers[shard].is_alive():
                # one last zero-timeout peek: the worker may have sent
                # its message and exited between our poll and this check
                try:
                    if ctl.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                code = self.workers[shard].exitcode
                raise self.fail(shard, "crashed",
                                f"worker process exited with code {code}")
            if remaining <= 0:
                raise self.fail(
                    shard, "hung",
                    f"no report within the {budget:g}s barrier deadline "
                    "(worker still alive)")

    def _send_abort(self, shard: int) -> None:
        try:
            self.ctls[shard].send(("abort",))
        except Exception:
            pass                    # a dead worker's pipe is closed

    def abort(self, failed: Optional[int], active, errors) -> None:
        """Stop every worker after a failure, draining survivors.

        The abort is sent to the *failed* shard too: a stalled worker
        that eventually wakes reads it and exits cleanly.  Survivor
        drains are bounded by the worker grace period — a worker that
        wedges while aborting is left for :meth:`shutdown`.
        """
        for s in active:
            self._send_abort(s)
        for s in active:
            if s == failed:
                continue
            while True:
                try:
                    msg = self.recv(s, timeout=self.spec.worker_grace_s)
                except ShardWorkerError:
                    break           # died/wedged mid-abort: shutdown's job
                if msg[0] in ("aborted", "done"):
                    break
                if msg[0] == "error":
                    errors.setdefault(s, msg[1])
                    break

    def shutdown(self) -> None:
        """Deterministic teardown: abort, join with a grace period, reap.

        Every worker gets an explicit ``("abort",)`` before the join — a
        worker still in its protocol loop exits at its next receive, and
        one that already finished never reads it.  A worker that
        outlives the grace period is ``terminate()``d, then ``kill()``ed,
        so no launch leaves a process behind.
        """
        grace = self.spec.worker_grace_s
        for s in range(len(self.ctls)):
            self._send_abort(s)
        for w in self.workers:
            w.join(timeout=grace)
        leaked = [w for w in self.workers if w.is_alive()]
        for w in leaked:
            w.terminate()
        for w in leaked:
            w.join(timeout=grace)
            if w.is_alive():
                w.kill()
                w.join(timeout=grace)
        for ctl in self.ctls:
            ctl.close()
