"""Workstation host: one CPU, an OS cost model, and network interfaces.

A :class:`Host` owns the simulated CPU (a capacity-1 resource that every
CPU-consuming activity must hold), the OS cost constants, and whatever
network interfaces the topology attaches (an Ethernet NIC, an SBA-200 ATM
adapter, or both).  :class:`OsProcess` is a UNIX process on a host: it has
a mailbox for fully reassembled application messages and is the unit that
p4 and NCS programs run in.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

from ..sim import (Activity, Event, Mailbox, NullTracer, Resource, SimProcess,
                   Simulator, Tracer)
from .cpu import CpuModel
from .oscosts import KernelBufferPool, OsCosts

__all__ = ["Host", "OsProcess"]


def _walk(t: float, left: float, quantum: float, steps: int,
          until: float) -> tuple[float, float]:
    """Follow the quantum-boundary recurrence from the boundary ``t`` with
    ``left`` seconds of CPU still owed: at most ``steps`` quanta (a
    negative count is no limit), stopping at the first boundary strictly
    after ``until`` or when the time owed runs out.  Returns that
    boundary and what is owed there.  Every boundary is the float sum
    the previous one was advanced by, so it does not depend on how many
    are walked at once."""
    while True:
        step = quantum if quantum <= left else left
        t += step
        left -= step
        steps -= 1
        if not steps or t > until or left <= 0:
            return t, left


class _CpuHold:
    """A consumer inside the slow path of :meth:`Host.cpu_busy` while it
    holds the CPU: the boundary it last stood on and what it still owed
    there, the boundary its timer is set to (``span`` quanta on) and what
    it will owe there, and whether it gives the CPU up at that one."""

    __slots__ = ("quantum", "proc", "t", "left", "span", "wake_t",
                 "wake_left", "cut")

    def __init__(self, quantum: float, proc: Optional[SimProcess]):
        self.quantum = quantum
        self.proc = proc
        self.t = self.left = self.wake_t = self.wake_left = 0.0
        self.span = 1
        self.cut = False


class Host:
    """A workstation in the cluster."""

    def __init__(self, sim: Simulator, name: str,
                 cpu: Optional[CpuModel] = None,
                 os: Optional[OsCosts] = None,
                 tracer: Optional[Tracer] = None, model: str = "generic"):
        self.sim = sim
        self.name = name
        #: the workstation model's name (``HostParams.name``)
        self.model = model
        self.cpu = cpu or CpuModel()
        self.os = os or OsCosts()
        self.tracer = tracer if tracer is not None else NullTracer(sim)
        #: single CPU shared by all processes and kernel activity
        self.cpu_res = Resource(sim, capacity=1, name=f"cpu:{name}",
                                on_contend=self._cut_hold)
        #: network interfaces by kind ("ethernet", "atm")
        self.interfaces: dict[str, Any] = {}
        self.kernel_buffers = KernelBufferPool()
        self.processes: dict[int, "OsProcess"] = {}
        self.compute_quantum = 1e-3
        #: the slow-path consumer holding the CPU right now, if any
        self._hold: Optional[_CpuHold] = None
        #: fault state: a frozen host consumes no CPU (crash/restart model)
        self._frozen = False
        self._thaw: Optional[Event] = None

    @property
    def compute_quantum(self) -> Optional[float]:
        """Length of the time slice a COMPUTE may be preempted at, in
        seconds (``None``: never).  A compute longer than this gives the
        CPU up at a multiple of it — counted from the instant it got the
        CPU — whenever interrupt-driven kernel work (TCP input
        processing, protocol timers) or another process is waiting for
        it, as on a real timesharing kernel; nobody waiting, it runs on.
        Must be a finite number > 0: a zero quantum would never let a
        compute make progress."""
        return self._compute_quantum

    @compute_quantum.setter
    def compute_quantum(self, value: Optional[float]) -> None:
        if value is not None and not (
                isinstance(value, (int, float))
                and math.isfinite(value) and value > 0):
            raise ValueError(
                f"host {self.name}: compute_quantum must be None or a "
                f"finite number > 0, got {value!r}")
        self._compute_quantum = value

    # ------------------------------------------------------------ fault hooks
    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> None:
        """Crash the host: every CPU consumer stalls at its next quantum
        boundary (the first one strictly after now) until
        :meth:`unfreeze`.  Thread and process state is preserved across
        the outage — the fail-stop-with-recovery model the chaos suite
        uses for host crash/restart scenarios (the network interfaces are
        faulted separately by the injector)."""
        if not self._frozen:
            self._frozen = True
            self._thaw = Event(self.sim, name=f"thaw:{self.name}")
            self._cut_hold()

    def unfreeze(self) -> None:
        """Restart the host: stalled CPU consumers resume where they were."""
        if self._frozen:
            self._frozen = False
            thaw, self._thaw = self._thaw, None
            assert thaw is not None
            thaw.succeed(None)

    # -------------------------------------------------------------- CPU time
    def cpu_busy(self, seconds: float, activity: Activity = Activity.COMPUTE,
                 label: str = "") -> Generator[Event, Any, None]:
        """Occupy the CPU for ``seconds`` (generator; drive with yield from).

        All simulated CPU consumption — application compute, protocol
        processing, copies, context switches — funnels through here, so a
        single resource enforces that one host never does two CPU things
        at once.  The tracer records the interval for Fig 4/Fig 16 style
        timelines.

        Anything but a COMPUTE longer than :attr:`compute_quantum` is one
        uninterrupted slice.  A long COMPUTE takes the CPU once and
        sleeps on one timer; its quantum boundaries are the recurrence
        ``t += min(quantum, owed)`` from the instant of the grant and
        exist only as floats.  It is cut short — at the first boundary
        strictly after the instant of asking — only when a second
        request queues behind it or the host is frozen: there it releases
        the CPU (which passes FIFO to the waiters) and queues up again
        for the rest.  Asking at the very instant of a boundary is
        asking too late for that boundary.  Undisturbed, the timer is
        set 1, 2, 4, ... quanta ahead, so a preemption walks no more
        boundaries than the compute has already run through.  With a
        tracer on, the timeline still gets one interval per quantum.
        """
        if not seconds >= 0:  # negative or NaN
            raise ValueError(f"CPU time must be >= 0, got {seconds!r}")
        if seconds == 0:
            return
        quantum = (self._compute_quantum
                   if activity is Activity.COMPUTE else None)
        tracer = self.tracer
        traced = tracer.enabled
        sim = self.sim
        res = self.cpu_res
        if not self._frozen and (quantum is None or seconds <= quantum):
            # Single uninterrupted slice — the overwhelmingly common case
            # (every protocol/OS overhead charge, every short compute).
            # A free CPU is taken without an event; a grant waited for
            # is consumed right here, so it goes back to the simulator's
            # pool, and the slice itself is a sleep.
            if not res.try_acquire():
                req = res.request()
                yield req
                sim.recycle(req)
            if traced:
                tracer.begin(self.name, activity, label)
            try:
                yield seconds
            finally:
                if traced:
                    tracer.end(self.name)
                res.release()
            return
        if quantum is None:
            quantum = math.inf  # one slice, however long
        hold = _CpuHold(quantum, sim.active_process)
        remaining = seconds
        while remaining > 0:
            while self._frozen:
                yield self._thaw
            if not res.try_acquire():
                req = res.request()
                yield req
                sim.recycle(req)
            if traced:
                tracer.begin(self.name, activity, label)
            hold.t = sim.now
            hold.cut = False
            self._hold = hold
            try:
                span = 1
                while True:
                    if self._frozen or res.queue_length:
                        # whoever is waiting already asked no later than now
                        hold.cut = True
                        span = 1
                    hold.left = remaining
                    hold.span = span
                    hold.wake_t, hold.wake_left = _walk(
                        hold.t, remaining, quantum, span, math.inf)
                    timer = sim.at(hold.wake_t)
                    yield timer
                    # at hold.wake_t: as armed, or moved up by _cut_hold
                    sim.recycle(timer)
                    if traced:
                        # close one interval per quantum passed
                        timeline = tracer.timeline(self.name)
                        t, left = hold.t, remaining
                        while t < hold.wake_t:
                            t, left = _walk(t, left, quantum, 1, math.inf)
                            timeline.begin(t, activity, label)
                    hold.t = hold.wake_t
                    remaining = hold.wake_left
                    if hold.cut or remaining <= 0:
                        break
                    span *= 2
            finally:
                self._hold = None
                if traced:
                    tracer.end(self.name)
                res.release()

    def _cut_hold(self) -> None:
        """Somebody wants the CPU (a request queued, or the host froze):
        have the holder give it up at its first quantum boundary strictly
        after now.  Asked at the very instant the holder wakes anyway,
        there is nothing to move; it sees the waiter when it re-arms."""
        hold = self._hold
        if hold is None or hold.cut:
            return
        now = self.sim.now
        if now >= hold.wake_t:
            return
        if hold.span > 1:  # one quantum out, the timer is there already
            t, left = _walk(hold.t, hold.left, hold.quantum, -1, now)
            if t < hold.wake_t:
                hold.proc.wake_at(t)
                hold.wake_t, hold.wake_left = t, left
        hold.cut = True

    # -------------------------------------------------------------- plumbing
    def attach_interface(self, kind: str, interface: Any) -> None:
        """Register a network interface (done by the topology builder)."""
        if kind in self.interfaces:
            raise ValueError(f"host {self.name} already has a {kind} interface")
        self.interfaces[kind] = interface

    def interface(self, kind: str) -> Any:
        try:
            return self.interfaces[kind]
        except KeyError:
            raise KeyError(
                f"host {self.name} has no {kind!r} interface "
                f"(has: {sorted(self.interfaces)})") from None

    def add_process(self, proc: "OsProcess") -> None:
        if proc.pid in self.processes:
            raise ValueError(f"pid {proc.pid} already exists on {self.name}")
        self.processes[proc.pid] = proc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} ifaces={sorted(self.interfaces)}>"


class OsProcess:
    """A UNIX process running on a host.

    ``pid`` is the cluster-global process identifier used by p4 and NCS
    addressing (the paper's host-node model numbers the host process 0 and
    node processes 1..N).  ``mailbox`` receives fully reassembled
    application-level messages from whatever transport the program uses.
    """

    def __init__(self, host: Host, pid: int, name: str = ""):
        self.host = host
        self.sim = host.sim
        self.pid = pid
        self.name = name or f"p{pid}@{host.name}"
        self.mailbox = Mailbox(host.sim, name=f"mbox:{self.name}")
        #: transports register themselves here (keyed by transport kind)
        self.transports: dict[str, Any] = {}
        host.add_process(self)

    def cpu_busy(self, seconds: float, activity: Activity = Activity.COMPUTE,
                 label: str = "") -> Generator[Event, Any, None]:
        """Consume CPU on this process's host."""
        yield from self.host.cpu_busy(seconds, activity, label)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OsProcess {self.name}>"
