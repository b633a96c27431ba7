"""Deterministic discrete-event simulation engine.

The engine is the substrate every other subsystem runs on: simulated
processors, NICs, memory controllers and the communication protocols are all
expressed as *processes* — plain Python generators that ``yield`` awaitable
objects (:class:`Timeout`, :class:`Event`, another :class:`Process`, or
combinators such as :class:`AllOf`).  The engine advances a virtual clock and
resumes processes in a deterministic order: events scheduled for the same
simulated time fire in the order they were scheduled (a stable ``(time, seq)``
heap).  Two identical runs are therefore bit-identical, which the property
tests rely on.

This is intentionally SimPy-flavoured but written from scratch so the network
layer can cancel and reschedule in-flight completions when max-min fair
bandwidth shares change (see :mod:`repro.sim.network`).

Example
-------
>>> eng = Engine()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((eng.now, name))
...     return name
>>> p1 = eng.spawn(worker("a", 2.0))
>>> p2 = eng.spawn(worker("b", 1.0))
>>> eng.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
>>> p1.value
'a'
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

# Hoisted once: the engine hot loop calls these per scheduled event, and a
# module-global load is measurably cheaper than attribute lookup there.
_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StallError",
    "ProgressWatchdog",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (double-triggering events, etc.)."""


class StallError(SimulationError):
    """A supervised wait saw no simulation progress for a full grace window.

    Raised by :meth:`ProgressWatchdog.supervised_wait` instead of letting a
    livelocked wait (e.g. a reliable-fallback get whose target link crawls
    at residual bandwidth forever) spin silently until ``max_steps``.  The
    message carries the blocked wait's label and, when the watchdog was
    given a ``describe`` hook, a per-rank blocked-state dump.
    """

    def __init__(self, what: str, grace: float, details: list[str]):
        self.what = what
        self.grace = grace
        self.details = list(details)
        dump = ("; ".join(self.details)) if self.details else "<no rank dump>"
        super().__init__(
            f"stall diagnosed: {what or 'wait'} made no progress and nothing "
            f"else in the simulation completed for {grace:g}s — {dump}")


class ProgressWatchdog:
    """Engine-level progress monitor backing the supervised waits.

    ``beat()`` is called by the machine layers whenever *semantic* progress
    happens (a transfer delivered, a CPU busy period retired).  A
    supervised wait races its event against a ``grace`` timeout; if the
    timeout fires **and** no beat landed anywhere in the machine during the
    window, the wait is livelocked — every rank is spinning or crawling —
    and a diagnosed :class:`StallError` replaces the silent hang.

    The watchdog never cancels the supervised event: a reliable-fallback
    transfer must stay in flight (cancelling it would break its cannot-fail
    guarantee); the watchdog only bounds how long the simulation may sit
    with *zero* global progress before failing loudly.
    """

    def __init__(self, engine: "Engine", grace: float,
                 describe: Optional[Callable[[], list[str]]] = None,
                 tracer: Any = None):
        if grace <= 0:
            raise ValueError(f"watchdog grace must be positive, got {grace}")
        self.engine = engine
        self.grace = float(grace)
        self.describe = describe
        self.tracer = tracer
        self.beats = 0
        self.stalls = 0

    def beat(self, _ev: Any = None) -> None:
        """Record one unit of machine progress (usable as an event callback)."""
        self.beats += 1

    def supervised_wait(self, event: Event, what: str = "") -> Generator:
        """Wait on ``event`` under stall supervision (generator).

        Returns the event's value; re-raises its failure.  Raises
        :class:`StallError` if a full grace window passes with the event
        still pending and zero beats machine-wide.
        """
        engine = self.engine
        while True:
            seen = self.beats
            # AnyOf fails fast, so a failing event raises here directly.
            yield engine.any_of([event, engine.timeout(self.grace)])
            if event.triggered:
                if not event.ok:
                    raise event.value
                return event.value
            if self.beats == seen:
                raise self.diagnose(what)

    def diagnose(self, what: str = "") -> StallError:
        """Build (and count) the stall diagnosis without raising it."""
        self.stalls += 1
        if self.tracer is not None:
            self.tracer.bump("engine:stalls_diagnosed")
        details = self.describe() if self.describe is not None else []
        return StallError(what, self.grace, details)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value passed to ``interrupt``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _ScheduledCall:
    """A cancellable callback sitting in the engine's event heap."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn
        self.cancelled = False


class Event:
    """A one-shot event processes can wait on.

    An event starts *pending*; it is completed exactly once with
    :meth:`succeed` (delivering a value) or :meth:`fail` (delivering an
    exception).  Processes yielding a pending event are suspended until it
    completes; yielding an already-completed event resumes the process on the
    next engine step without advancing time.
    """

    __slots__ = ("engine", "_callbacks", "_done", "_ok", "_value", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._callbacks: list[Callable[[Event], None]] = []
        self._done = False
        self._ok = False
        self._value: Any = None

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._done

    @property
    def ok(self) -> bool:
        """True when the event completed via :meth:`succeed`."""
        return self._done and self._ok

    @property
    def value(self) -> Any:
        """The success value, or the failure exception."""
        if not self._done:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    # -- completion ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Complete the event successfully, waking all waiters."""
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._done = True
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Complete the event with an exception; waiters see it raised."""
        if self._done:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._done = True
        self._ok = False
        self._value = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            # Callbacks run immediately at the current simulated instant; the
            # processes they resume re-enter via the engine scheduler so
            # ordering stays deterministic.
            cb(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run when the event completes (or now if done)."""
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._done else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay.

    Unlike plain events, a timeout schedules itself as soon as a process
    yields it (lazily, so constructing one costs nothing until used).
    """

    __slots__ = ("delay", "_armed")

    def __init__(self, delay: float, value: Any = None, name: str = "timeout"):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Engine binding happens at arm time so Timeout(d) can be written
        # inside process bodies without threading the engine through.
        super().__init__(engine=None, name=name)  # type: ignore[arg-type]
        self.delay = float(delay)
        self._value = value
        self._armed = False

    def _arm(self, engine: "Engine") -> None:
        if self._armed:
            return
        self._armed = True
        self.engine = engine
        # Bound method, not a closure: timeouts are the most common heap
        # entry, and each closure allocation in the hot path costs more
        # than the whole _schedule call.
        engine._schedule(self.delay, self._fire)

    def _fire(self) -> None:
        if not self._done:
            self._done = True
            self._ok = True
            self._dispatch()


class Process(Event):
    """A running generator; completes when the generator returns.

    The generator's ``return`` value becomes the process's event value, so
    ``result = yield some_process`` both joins and collects the result.
    """

    __slots__ = ("gen", "_waiting_on", "_wake_value", "_wake_exc")

    def __init__(self, engine: "Engine", gen: Generator, name: str = "proc"):
        super().__init__(engine, name=name)
        self.gen = gen
        self._waiting_on: Optional[Event] = None
        self._wake_value: Any = None
        self._wake_exc: Optional[BaseException] = None
        engine._schedule(0.0, self._start)

    def _start(self) -> None:
        self._resume(None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A process blocked on an event is detached from it and resumed with
        the interrupt; the event itself is unaffected and may still fire.
        """
        if self._done:
            return
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            # Leave a tombstone: when the original event fires, this process
            # is no longer resumed by it.
        self.engine._schedule(0.0, lambda: self._resume(None, Interrupt(cause)))

    def _resume(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._done:
            return
        engine = self.engine
        engine._active = self
        try:
            while True:
                if throw_exc is not None:
                    exc, throw_exc = throw_exc, None
                    target = self.gen.throw(exc)
                else:
                    target = self.gen.send(send_value)
                target = _as_event(engine, target)
                if target.triggered:
                    if target.ok:
                        send_value = target.value
                        continue
                    throw_exc = target.value
                    continue
                self._waiting_on = target
                # Bound methods, not closures: one wait used to allocate an
                # ``on_done`` closure plus a resume lambda; the wake payload
                # now travels through two slots instead.  A process waits on
                # one event at a time and the stored payload is consumed by
                # the very next _wake, so the slots cannot be clobbered.
                target.add_callback(self._on_wait_done)
                return
        except StopIteration as stop:
            self._done = True
            self._ok = True
            self._value = stop.value
            self._dispatch()
        except BaseException as exc:  # noqa: BLE001 - failure is the payload
            self._done = True
            self._ok = False
            self._value = exc
            had_observers = bool(self._callbacks)
            self._dispatch()
            if not had_observers and not engine._suppress_crash(self):
                raise
        finally:
            engine._active = None

    def _on_wait_done(self, ev: Event) -> None:
        if self._waiting_on is not ev:
            return  # interrupted while waiting; stale wakeup
        self._waiting_on = None
        if ev.ok:
            self._wake_value = ev.value
            self._wake_exc = None
        else:
            self._wake_value = None
            self._wake_exc = ev.value
        self.engine._schedule(0.0, self._wake)

    def _wake(self) -> None:
        value, exc = self._wake_value, self._wake_exc
        self._wake_value = self._wake_exc = None
        self._resume(value, exc)


class AllOf(Event):
    """Succeeds when all child events succeed; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = "all_of"):
        super().__init__(engine, name=name)
        self._children = [_as_event(engine, ev) for ev in events]
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._done:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Succeeds when the first child completes; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = "any_of"):
        super().__init__(engine, name=name)
        self._children = [_as_event(engine, ev) for ev in events]
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=i: self._child_done(i, e))

    def _child_done(self, index: int, ev: Event) -> None:
        if self._done:
            return
        if ev.ok:
            self.succeed((index, ev.value))
        else:
            self.fail(ev.value)


def _as_event(engine: "Engine", target: Any) -> Event:
    """Coerce a yielded object to an engine-bound event."""
    if isinstance(target, Timeout):
        target._arm(engine)
        return target
    if isinstance(target, Event):
        if target.engine is None:
            target.engine = engine
        return target
    if isinstance(target, Generator):
        return engine.spawn(target)
    raise TypeError(f"process yielded non-awaitable {target!r}")


class Engine:
    """The event loop: a stable priority queue over ``(time, seq)``.

    :meth:`run` drains every entry sharing the top timestamp in one pass
    and fires the run in seq order, which is exactly one-at-a-time
    dispatch; ``tests/sim/stepped.py`` keeps the one-at-a-time loop as the
    oracle the equivalence tests compare against.

    Parameters
    ----------
    trace:
        Optional callable ``(time, kind, detail)`` invoked for engine-level
        happenings; the richer structured tracing lives in
        :mod:`repro.sim.trace`.
    """

    #: Compaction is considered once the heap holds more dead entries than
    #: this floor; below it the garbage is too small to be worth a rebuild.
    COMPACT_FLOOR = 64

    def __init__(self, trace: Optional[Callable[[float, str, str], None]] = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, _ScheduledCall]] = []
        self._seq = 0
        self._active: Optional[Process] = None
        self._trace = trace
        self._crashed: list[Process] = []
        self._step_count = 0
        self._live = 0          # non-cancelled entries currently in the heap
        self._compactions = 0
        self._running = False   # True while run() is executing callbacks
        self._batches = 0       # same-instant runs drained (see run())

    # -- scheduling ------------------------------------------------------
    def _schedule(self, delay: float, fn: Callable[[], None]) -> _ScheduledCall:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        call = _ScheduledCall(fn)
        seq = self._seq + 1
        self._seq = seq
        _heappush(self._heap, (self.now + delay, seq, call))
        self._live += 1
        return call

    def cancel(self, call: _ScheduledCall) -> None:
        """Cancel a scheduled callback.

        The heap entry is left in place as a tombstone and skipped on pop;
        when tombstones outnumber live entries the heap is compacted in one
        O(n) rebuild, so a cancel-heavy workload (the flow network
        rescheduling completions) cannot grow the heap without bound.
        """
        if call.cancelled:
            return
        call.cancelled = True
        self._live -= 1
        dead = len(self._heap) - self._live
        if dead > self.COMPACT_FLOOR and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        # (time, seq) keys are unique, so heapify of the filtered list pops
        # in exactly the same order as the original heap would have.  The
        # list is filtered *in place* (slice assignment) because run()
        # holds a local alias to it across callback invocations.
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._compactions += 1

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event bound to this engine."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create (and arm) a timeout bound to this engine."""
        t = Timeout(delay, value)
        t._arm(self)
        return t

    def spawn(self, gen: Generator, name: str = "proc") -> Process:
        """Start a generator as a process; returns its completion event."""
        if not isinstance(gen, Generator):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def _suppress_crash(self, proc: Process) -> bool:
        # A process that dies with no observers is a hard error by default;
        # run(raise_crashes=False) collects them instead (used by failure-
        # injection tests).
        self._crashed.append(proc)
        return self._collect_crashes

    _collect_crashes = False

    # -- running ----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_steps: int = 50_000_000,
            raise_crashes: bool = True) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the final simulated time.  ``max_steps`` is a runaway guard:
        exceeding it raises :class:`SimulationError`.
        """
        self._collect_crashes = not raise_crashes
        self._running = True
        # Hot-loop hoists: the heap list is aliased once (_compact filters
        # it in place, so the alias survives compaction), heappop is a
        # module global, and the step counter runs in a local that is
        # written back in the finally block.  ``self.now`` and ``_live``
        # stay attribute-resident because callbacks read them mid-run.
        heap = self._heap
        pop = _heappop
        steps = self._step_count
        try:
            while heap:
                t, _seq, call = heap[0]
                if until is not None and t > until:
                    self.now = until
                    break
                pop(heap)
                if call.cancelled:
                    continue
                if t < self.now - 1e-12:
                    raise SimulationError("event heap time went backwards")
                self.now = t
                # Drain every entry sharing this timestamp with consecutive
                # pops, then fire them in (already sorted) seq order.  Seqs
                # are globally monotone, so anything a callback schedules at
                # this instant sorts after the whole drained run; firing it
                # to completion and then re-checking the heap is exactly
                # one-at-a-time (time, seq) dispatch.
                if heap and heap[0][0] == t:
                    batch = [call]
                    while heap and heap[0][0] == t:
                        nxt = pop(heap)[2]
                        if not nxt.cancelled:
                            batch.append(nxt)
                    self._batches += 1
                else:
                    batch = (call,)
                for c in batch:
                    # Drained entries are NOT pre-marked dead — a callback
                    # may cancel a later member, and that cancel must still
                    # take effect — so each is claimed (cancelled + live
                    # decrement) just before it fires.  Once claimed, a
                    # later cancel() of it is a no-op instead of corrupting
                    # the live-entry counter.
                    if c.cancelled:
                        continue
                    c.cancelled = True
                    self._live -= 1
                    steps += 1
                    if steps > max_steps:
                        raise SimulationError(
                            f"exceeded {max_steps} engine steps"
                            + self._crash_detail())
                    c.fn()
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._step_count = steps
            self._running = False
            self._collect_crashes = False
        return self.now

    def _crash_detail(self) -> str:
        """Debug suffix for runaway-guard errors: a simulation that spins
        past ``max_steps`` after a process crashed unobserved almost always
        spins *because* of that crash (e.g. a fault-injection test whose
        peers poll for a rank that died), so surface the first crash's name
        and traceback instead of leaving only a step count."""
        if not self._crashed:
            return ""
        import traceback

        first = self._crashed[0]
        exc = first.value
        tb = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        others = (f" (and {len(self._crashed) - 1} more)"
                  if len(self._crashed) > 1 else "")
        return (f"; process {first.name!r} crashed unobserved{others}:\n{tb}")

    @property
    def crashed_processes(self) -> list[Process]:
        """Processes that died unobserved during ``run(raise_crashes=False)``."""
        return list(self._crashed)

    @property
    def pending_events(self) -> int:
        """Number of live entries in the heap (cancelled entries excluded).

        O(1): backed by a counter maintained at schedule/cancel/pop time.
        """
        return self._live

    @property
    def steps(self) -> int:
        """Callbacks executed so far (profiling/test counter)."""
        return self._step_count

    @property
    def compactions(self) -> int:
        """Lazy heap compactions performed so far."""
        return self._compactions

    @property
    def dispatch_batches(self) -> int:
        """Runs of two or more same-timestamp entries drained in one pass."""
        return self._batches
