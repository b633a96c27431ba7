"""Shared resources for simulated hardware components.

Three primitives cover everything the machine model needs:

- :class:`Resource` — a counted FIFO resource (a CPU core, a DMA engine).
  Requests are granted strictly in arrival order, which models the
  "remote host CPU must stop computing to service a copy" effect that the
  zero-copy experiments (paper Fig. 9) depend on.
- :class:`Mailbox` — an unbounded FIFO channel of messages with blocking
  receive; the MPI layer's matching queues are built on it.
- :class:`TokenBucket` — a counter that processes can wait on to reach a
  threshold; used for barriers and collective completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Optional

from .engine import Engine, Event, SimulationError

__all__ = ["Resource", "Mailbox", "TokenBucket", "acquire_run_release"]


class Resource:
    """A counted FIFO resource.

    ``capacity`` concurrent holders are allowed; further requests queue in
    strict FIFO order.  A request is an :class:`Event` that succeeds when the
    slot is granted; the holder must call :meth:`release` exactly once.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # Utilisation accounting: integral of busy slots over time.
        self._busy_integral = 0.0
        self._last_change = engine.now

    # -- accounting ------------------------------------------------------
    def _account(self) -> None:
        now = self.engine.now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    def busy_time(self) -> float:
        """Slot-seconds of occupancy so far (capacity-1 → busy seconds)."""
        self._account()
        return self._busy_integral

    # -- protocol ---------------------------------------------------------
    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        self._account()
        ev = self.engine.event(f"{self.name}.request")
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def cancel(self, ev: Event) -> bool:
        """Withdraw a queued, not-yet-granted request; True if it was queued.

        Needed when the requester is torn down (node crash, cancelled
        protocol): a granted-to-nobody slot would otherwise leak capacity
        the moment a release transfers it to the stale event.
        """
        try:
            self._queue.remove(ev)
            return True
        except ValueError:
            return False

    def release(self) -> None:
        """Release one held slot, granting the next queued request if any."""
        self._account()
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(self)  # slot transfers directly; _in_use unchanged
        else:
            self._in_use -= 1

    def occupy(self, duration: float) -> Generator:
        """Process helper: acquire, hold for ``duration``, release."""
        yield self.request()
        try:
            yield self.engine.timeout(duration)
        finally:
            self.release()


def acquire_run_release(resource: Resource, duration: float) -> Generator:
    """Convenience alias of :meth:`Resource.occupy` usable as a subprocess."""
    yield from resource.occupy(duration)


class Mailbox:
    """Unbounded FIFO message channel with blocking receive and peeking.

    ``recv(match)`` returns the first queued message satisfying ``match``
    (or any message when ``match`` is None); if none is queued, the caller
    blocks until a matching message is put.  Match order follows MPI
    semantics: queued messages are scanned oldest-first.
    """

    def __init__(self, engine: Engine, name: str = "mailbox"):
        self.engine = engine
        self.name = name
        self._messages: deque[Any] = deque()
        self._waiters: deque[tuple[Optional[Callable[[Any], bool]], Event]] = deque()

    def put(self, message: Any) -> None:
        """Deposit a message, waking the oldest matching waiter if any."""
        for i, (match, ev) in enumerate(self._waiters):
            if match is None or match(message):
                del self._waiters[i]
                ev.succeed(message)
                return
        self._messages.append(message)

    def recv(self, match: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event yielding the first matching message."""
        for i, msg in enumerate(self._messages):
            if match is None or match(msg):
                del self._messages[i]
                ev = self.engine.event(f"{self.name}.recv")
                ev.succeed(msg)
                return ev
        ev = self.engine.event(f"{self.name}.recv")
        self._waiters.append((match, ev))
        return ev

    def poll(self, match: Optional[Callable[[Any], bool]] = None) -> Optional[Any]:
        """Non-blocking receive: pop and return a match, or None."""
        for i, msg in enumerate(self._messages):
            if match is None or match(msg):
                del self._messages[i]
                return msg
        return None

    def __len__(self) -> int:
        return len(self._messages)


class TokenBucket:
    """A monotone counter processes can wait on.

    Used for barrier/collective completion: each participant ``add``s a
    token; ``wait_for(n)`` fires when the count reaches ``n``.
    """

    def __init__(self, engine: Engine, name: str = "tokens"):
        self.engine = engine
        self.name = name
        self.count = 0
        self._thresholds: list[tuple[int, Event]] = []

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("cannot add negative tokens")
        self.count += n
        fired = [(t, ev) for (t, ev) in self._thresholds if self.count >= t]
        self._thresholds = [(t, ev) for (t, ev) in self._thresholds if self.count < t]
        for _t, ev in fired:
            ev.succeed(self.count)

    def wait_for(self, threshold: int) -> Event:
        ev = self.engine.event(f"{self.name}.wait_for({threshold})")
        if self.count >= threshold:
            ev.succeed(self.count)
        else:
            self._thresholds.append((threshold, ev))
        return ev
