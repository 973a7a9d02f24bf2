"""Discrete-event simulation kernel.

This is the foundation every NCS subsystem runs on.  It is a small,
deterministic, SimPy-flavoured engine: a binary-heap event calendar, an
``Event`` primitive with success/failure values, and coroutine
``SimProcess`` objects driven by the scheduler.

The 1995 paper measured wall-clock seconds on SPARCstations; we instead
advance a virtual clock, which makes every experiment in the paper
deterministic and platform-independent.  Simulated user-level threads
(``repro.core.mts``) ride on top of these processes, so the CPython GIL
never matters: concurrency is a property of the model, not of the host
interpreter.

Example
-------
>>> sim = Simulator()
>>> def hello(sim):
...     yield 1.5  # sleep; sim.timeout(1.5) is the same entry
...     return "done"
>>> p = sim.process(hello(sim))
>>> sim.run()
>>> sim.now
1.5
>>> p.value
'done'
"""

from __future__ import annotations

import heapq
import math
from numbers import Integral, Real
from typing import Any, Callable, Generator, Iterable, Optional

from ..obs.registry import MetricsRegistry

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "SimProcess",
    "Interrupt",
    "SimulationError",
    "KernelCore",
    "Simulator",
    "check_param",
    "check_size",
]


class _Pending:
    """Sentinel for an event that has not yet been triggered."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


PENDING = _Pending()


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggers, running a dead process...)."""


def check_param(name: str, value: float, positive: bool = False) -> None:
    """Reject a model parameter that would become a delay or a rate the
    calendar cannot hold: NaN, an infinity, a negative (or, with
    ``positive``, a zero) value, and a ``bool`` (not a number)."""
    if isinstance(value, bool) or not (
            math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be a finite number "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")


def check_size(name: str, value: Any) -> None:
    """Reject a byte count that is not an integer >= 0 (a ``bool`` is
    not a size), at the call that names it."""
    # ``type() is int`` first: the ABC isinstance costs ~0.5 us a call
    if not (type(value) is int or (isinstance(value, Integral)
                                   and not isinstance(value, bool))) \
            or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


class Interrupt(Exception):
    """Thrown into a process by :meth:`SimProcess.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a retransmission timer firing).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with an optional value.

    An event starts *pending*; it may be triggered exactly once, either
    with :meth:`succeed` (a value) or :meth:`fail` (an exception).
    Callbacks added before the trigger run when the simulator processes
    the event; callbacks added after it has been processed run
    immediately.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._processed = False
        self.name = name

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired callbacks yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed or is pending."""
        if self._value is PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        if not self._ok:
            raise self._value
        return self._value

    # --------------------------------------------------------------- triggers
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        # first: a rejected delay must leave the event untriggered
        self.sim._schedule(self, delay)
        self._ok = True
        self._value = value
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception that waiters will re-raise."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.sim._schedule(self, delay)
        self._ok = False
        self._value = exc
        return self

    # -------------------------------------------------------------- callbacks
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed (or now, if done)."""
        if self._processed:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:
        tag = self.name or self.__class__.__name__
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{tag} {state} at t={self.sim.now:.9g}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    Hot-path note: every ``call_in`` is one, so the constructor assigns
    slots directly, the display name is derived lazily from ``_delay``,
    and :meth:`Simulator.timeout` reuses recycled instances.
    """

    __slots__ = ("_delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # negative or NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._delay = delay
        sim._schedule(self, delay)

    @property
    def name(self) -> str:  # shadows the inherited slot; repr/debug only
        return f"Timeout({self._delay:.9g})"


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = tuple(events)
        self._pending_count = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        for ev in self._events:
            if ev._processed:
                self._check(ev)
            else:
                self._pending_count += 1
                ev.add_callback(self._check)
        if not self._events and not self.triggered:
            self._finish()

    def _check(self, ev: Event) -> None:
        raise NotImplementedError

    def _finish(self) -> None:
        if not self.triggered:
            self.succeed({e: e._value for e in self._events if e.triggered and e._ok})


class AnyOf(_Condition):
    """Triggers when the first of its events triggers (failures propagate)."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
        else:
            self._finish()


class AllOf(_Condition):
    """Triggers when all of its events have triggered (failures propagate)."""

    __slots__ = ()

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending_count -= 1
        if self._pending_count <= 0:
            remaining = [e for e in self._events if not e.triggered]
            if not remaining:
                self._finish()


class SimProcess(Event):
    """A coroutine driven by the simulator.

    The generator yields :class:`Event` objects; the process resumes with
    the event's value when it is processed (or the event's exception is
    thrown into the generator).  A process is itself an event that
    triggers with the generator's return value, so processes can wait on
    each other.

    Yielding seconds (a ``numbers.Real``, not a ``bool``) sleeps: the
    same calendar entry as yielding ``sim.timeout(d)``, on the process's
    own wake record (NaN or ``d < 0`` raises ``ValueError`` at the
    ``yield``).  The record is reused only once its entry was processed,
    so a sleep cut short by :meth:`interrupt` or :meth:`wake_at` leaves
    its dead entry to a record nobody waits on.
    """

    __slots__ = ("_gen", "_waiting_on", "_resume_cb", "_detached", "_sleep")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any],
                 name: str = "", detached: bool = False):
        if not hasattr(gen, "send"):
            raise TypeError(f"process target must be a generator, got {gen!r}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        #: nobody holds the handle (:meth:`Simulator.spawn`), so nobody
        #: can wait for the end: finishing schedules nothing
        self._detached = detached
        #: the wake record of ``yield seconds`` (created on first use)
        self._sleep: Optional[Event] = None
        # The one resume callback this process ever registers.  ``_resume``
        # ignores any event that is not the current ``_waiting_on``, so a
        # single bound method replaces the per-yield closure the kernel
        # used to build (the heap's monotonic sequence numbers already
        # order same-instant wakeups deterministically).
        self._resume_cb = self._resume
        # Bootstrap: start the generator as soon as the simulator runs.
        boot = Event(sim, name="boot")
        boot._value = None
        sim._schedule(boot, 0.0)
        boot.callbacks.append(self._resume_cb)
        self._waiting_on: Optional[Event] = boot

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        # Detach from whatever we were waiting on; deliver an immediate
        # event that resumes the generator via .throw().  The superseded
        # wait target keeps its callback, but ``_resume`` discards the
        # stale wakeup because ``_waiting_on`` no longer matches.
        poke = Event(self.sim, name="interrupt")
        poke._ok = False
        poke._value = Interrupt(cause)
        self._waiting_on = poke
        self.sim._schedule(poke, 0.0)
        poke.callbacks.append(self._resume_cb)

    def wake_at(self, when: float) -> None:
        """Wake the process at the absolute instant ``when`` instead of at
        the later timer it is parked on.

        The timer (or sleep) must be the process's own: it is cancelled
        (:meth:`KernelCore.cancel`), so it can neither resume the process
        a second time nor show up in ``peek()``, and the process is
        re-parked on a fresh event scheduled float-exactly at ``when``
        that carries the timer's value (a refused ``when`` cancels nothing).
        """
        timer = self._waiting_on
        if self._value is not PENDING or timer is None or timer._processed:
            raise SimulationError(
                f"{self!r} is not parked on a pending timer")
        sim = self.sim
        early = sim.at(when, timer._value)
        sim.cancel(timer)
        early.callbacks.append(self._resume_cb)
        self._waiting_on = early

    def _resume(self, ev: Event) -> None:
        if self._value is not PENDING or self._waiting_on is not ev:
            return  # finished, or a stale wakeup (e.g. interrupted)
        self._waiting_on = None
        sim = self.sim
        ok, value = ev._ok, ev._value
        while True:
            sim._active_process = self
            try:
                if ok:
                    nxt = self._gen.send(value)
                else:
                    nxt = self._gen.throw(value)
            except StopIteration as si:
                if self._detached:
                    self._value = si.value
                else:
                    self.succeed(si.value)
                return
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):  # pragma: no cover
                    raise
                self.fail(_attach_context(exc, f"process {self.name!r}", sim))
                return
            finally:
                sim._active_process = None
            cls = nxt.__class__
            if cls is not float:
                if isinstance(nxt, Event):
                    if not nxt._processed:
                        self._waiting_on = nxt
                        nxt.callbacks.append(self._resume_cb)
                        return
                    ok, value = nxt._ok, nxt._value
                    continue
                if cls is bool or not isinstance(nxt, Real):
                    self._gen.close()
                    self.fail(SimulationError(
                        f"process {self.name!r} yielded {nxt!r}; "
                        "not an Event or seconds"))
                    return
            delay = float(nxt)
            if not delay >= 0:  # negative or NaN: raise it at the yield
                ok, value = False, ValueError(
                    f"timeout delay must be >= 0, got {nxt!r}")
                continue
            rec = self._sleep
            if rec is None or not rec._processed:
                rec = self._sleep = Event(sim, name="sleep")
            rec._processed, rec._value = False, None
            rec.callbacks = [self._resume_cb]
            self._waiting_on = rec
            sim._schedule(rec, delay)
            return


def _attach_context(exc: BaseException, what: str,
                    sim: "KernelCore") -> BaseException:
    note = f"(in simulated {what} at t={sim.now:.9g})"
    try:
        exc.add_note(note)  # Python 3.11+
    except AttributeError:  # pragma: no cover
        pass
    return exc


def _run_call(timer: Event) -> None:
    """The one callback behind every ``call_in`` / ``call_at`` timer."""
    fn, args = timer._value
    timer._value = None  # the pool must not keep a delivered burst alive
    try:
        fn(*args)
    except Exception as exc:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        raise _attach_context(exc, f"call {name!r}", timer.sim)
    timer.sim.recycle(timer)


class KernelCore:
    """The event calendar and virtual clock — the shardable half.

    This seam holds exactly the state a parallel shard worker needs to
    drive one partition of a simulation: the binary-heap calendar, the
    monotonic sequence counter that breaks same-instant ties, and the
    bounded run loops.  :class:`Simulator` layers the process/event
    factories and allocation pools on top.  ``repro.sim.sharded`` reuses
    this core unchanged in every worker process and adds a conservative
    time-window barrier around :meth:`run_below`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[SimProcess] = None
        #: the universe's telemetry registry: every layer built on this
        #: simulator publishes its counters here (pass
        #: ``repro.obs.NULL_REGISTRY`` for a zero-overhead run)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_events = self.metrics.counter(
            "sim.events_processed", help="events popped off the calendar")
        self._m_procs = self.metrics.counter(
            "sim.processes_started", help="SimProcess coroutines registered")

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[SimProcess]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------- scheduling
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if not delay >= 0:  # negative or NaN
            raise SimulationError(f"cannot schedule {delay!r}s in the past")
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, event))

    def schedule_at(self, event: Event, when: float) -> None:
        """Schedule an already-valued ``event`` at the absolute instant
        ``when``.

        ``Event.succeed(delay=when - now)`` goes through delay arithmetic
        (``now + (when - now)``) which can land one ulp away from
        ``when``.  Cross-shard arrivals must fire at *exactly* the float
        the source universe computed — the sharded kernel pushes them
        onto the calendar with this absolute form instead.
        """
        if not when >= self._now:  # in the past, or NaN
            raise SimulationError(
                f"cannot schedule at t={when!r} before now={self._now!r}")
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (when, seq, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a scheduled, not yet processed ``event`` for good.

        Its calendar entry stays where it is and is dropped when it
        surfaces (removing it from the middle of the heap would cost
        O(calendar) per cancellation): a cancelled entry runs no
        callback, does not move the clock, is not counted in
        ``sim.events_processed`` and is invisible to :meth:`peek`.  The
        mark is ``callbacks is None`` on an unprocessed event — distinct
        from *processed*, so :meth:`Simulator.recycle` refuses a
        cancelled event and its object can never be handed out again
        while the dead entry still points at it.  Only the event's sole
        owner may cancel it; anybody else waiting on it would wait
        forever.
        """
        if event._processed:
            raise SimulationError(f"cannot cancel {event!r}: already processed")
        event.callbacks = None

    # ------------------------------------------------------------------- run
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        heap = self._heap
        while heap:
            if heap[0][2].callbacks is not None:
                return heap[0][0]
            heapq.heappop(heap)  # cancelled
        return float("inf")

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the calendar empties, ``until`` (not before now)
        is reached, or ``max_events`` have been processed (a runaway
        guard for tests: it raises when one more event is due).  Each
        event is processed inline, down to its callback calls, with the
        heap and telemetry handle bound to locals: this loop runs once
        per event in every experiment."""
        heap = self._heap
        pop = heapq.heappop
        inc = self._m_events.inc if self.metrics.enabled else None
        if until is None and max_events is None:
            # the common full-drain run: the tightest possible loop
            while heap:
                t, _, event = pop(heap)
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # cancelled
                self._now = t
                if inc is not None:
                    inc()
                event._processed = True
                event.callbacks = None
                for fn in callbacks:
                    fn(event)
            return
        until = math.inf if until is None else until
        max_events = math.inf if max_events is None else max_events
        if not (until >= self._now and max_events >= 0):
            raise SimulationError(f"cannot run until={until!r}, max_events="
                                  f"{max_events!r}: now is {self._now!r}")
        count = 0
        while heap:
            t, _, event = entry = pop(heap)
            if t > until:
                heapq.heappush(heap, entry)
                self._now = until
                return
            callbacks = event.callbacks
            if callbacks is None:
                continue  # cancelled
            if count >= max_events:
                heapq.heappush(heap, entry)
                raise SimulationError(
                    f"exceeded max_events={max_events} (possible livelock)")
            self._now = t
            if inc is not None:
                inc()
            event._processed = True
            event.callbacks = None
            for fn in callbacks:
                fn(event)
            count += 1

    def run_below(self, limit: float) -> int:
        """Process every event strictly before ``limit``; return the count.

        Unlike ``run(until=...)`` this does **not** clamp the clock to
        ``limit``: ``_now`` is left at the last processed event, so a
        caller may afterwards inject externally-sourced events at any
        time ``>= limit`` (the sharded kernel's cross-shard arrivals,
        which are guaranteed by the lookahead window to land at or past
        the horizon).  Events scheduled during the call that still fall
        below ``limit`` are processed in the same call.
        """
        if limit != limit:
            raise SimulationError("cannot run below t=nan")
        heap = self._heap
        pop = heapq.heappop
        inc = self._m_events.inc if self.metrics.enabled else None
        n = 0
        while heap and heap[0][0] < limit:
            t, _, event = pop(heap)
            callbacks = event.callbacks
            if callbacks is None:
                continue  # cancelled
            self._now = t
            if inc is not None:
                inc()
            event._processed = True
            event.callbacks = None
            for fn in callbacks:
                fn(event)
            n += 1
        return n


class Simulator(KernelCore):
    """The full simulation universe: a :class:`KernelCore` calendar plus
    process/event factories and allocation pools.

    All model components hold a reference to one ``Simulator``; creating
    two simulators gives two fully isolated universes (used heavily by
    the test-suite).
    """

    #: cap on each recycled-event freelist (see :meth:`recycle`)
    POOL_MAX = 256

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(metrics)
        #: freelists of recycled one-shot events (:meth:`recycle`)
        self._timeout_pool: list[Timeout] = []
        self._event_pool: list[Event] = []

    # ------------------------------------------------------------- factories
    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        pool = self._event_pool
        if pool:
            ev = pool.pop()
            ev.callbacks = []
            ev._value = PENDING
            ev._ok = True
            ev._processed = False
            ev.name = name
            return ev
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds: for an
        :class:`AnyOf`, a timer somebody else waits on, or ``call_in``.
        A process that only sleeps yields the seconds (:class:`SimProcess`)."""
        pool = self._timeout_pool
        if pool:
            if not delay >= 0:  # negative or NaN
                raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
            ev = pool.pop()
            ev.callbacks = []
            ev._value = value
            ev._ok = True
            ev._processed = False
            ev._delay = delay
            self._schedule(ev, delay)
            return ev
        return Timeout(self, delay, value)

    def at(self, when: float, value: Any = None) -> Event:
        """An event firing with ``value`` at the absolute instant ``when``
        — float-exactly, where ``timeout(when - now)`` can land one ulp
        off (see :meth:`KernelCore.schedule_at`)."""
        ev = self.event(name="at")
        ev._value = value
        self.schedule_at(ev, when)
        return ev

    def recycle(self, ev: Event) -> None:
        """Return a one-shot event to the allocation pool.

        Caller contract: the event has been *processed*, the caller was
        its only remaining owner, and nobody will touch the reference
        again.  Internal hot paths (``Host.cpu_busy``, the MTS loop,
        ``call_in``) recycle the grants, idle wake-ups and timers they
        create and immediately consume (a sleep record stays with its
        process); application code should simply drop events and let the
        garbage collector handle them.  Recycling is purely
        an allocation optimization — pooled or fresh, the simulated
        behavior is identical.
        """
        if not ev._processed:
            return
        cls = ev.__class__
        if cls is Timeout:
            if len(self._timeout_pool) < self.POOL_MAX:
                self._timeout_pool.append(ev)
        elif cls is Event:
            if len(self._event_pool) < self.POOL_MAX:
                self._event_pool.append(ev)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> SimProcess:
        """Register a coroutine as a simulated process."""
        self._m_procs.inc()
        return SimProcess(self, gen, name=name)

    def spawn(self, gen: Generator[Event, Any, Any], name: str = "") -> None:
        """Start a fire-and-forget coroutine: :meth:`process` for a body
        whose handle the caller would drop.  No handle comes back, so
        nobody can wait for the end and the end is not an event; a body
        that raises dies as a dropped process does (the failure, with
        its context note, is scheduled and finds no listener)."""
        self._m_procs.inc()
        SimProcess(self, gen, name=name, detached=True)

    def call_in(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        One pooled timer and no coroutine: the form for a delivery whose
        whole life is "wait, then hand over" (a burst crossing a link, a
        frame crossing the segment) and for scheduled state flips (fault
        injection: link down/up, host crash), which stay strictly
        ordered because a call cannot block.  Calls armed for the same
        instant run in the order they were armed.  There is no handle:
        a call cannot be waited on, and an exception in ``fn`` is not
        swallowed — it propagates out of :meth:`run`, annotated with
        the call and the simulated time.
        """
        self.timeout(delay, (fn, args)).callbacks.append(_run_call)

    def call_at(self, when: float, fn: Callable[..., Any],
                *args: Any) -> Event:
        """Run ``fn(*args)`` at the absolute instant ``when`` (>= now),
        float-exactly like :meth:`at`.  The timer comes back for one
        purpose: its sole owner may :meth:`~KernelCore.cancel` it until
        the call runs (then it is pooled: drop the reference)."""
        timer = self.at(when, (fn, args))
        timer.callbacks.append(_run_call)
        return timer

    # ------------------------------------------------------------------- run
    def run_process(self, gen: Generator[Event, Any, Any], name: str = "",
                    until: Optional[float] = None) -> Any:
        """Convenience: register ``gen``, run to completion, return its value."""
        proc = self.process(gen, name=name)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish (deadlock at t={self.now:.9g})")
        return proc.value
