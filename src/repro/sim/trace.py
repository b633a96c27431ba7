"""Structured tracing and per-rank time accounting.

The tracer answers "where did the time go" questions the paper's analysis
asks: how much of each rank's wall-clock went to computing, to waiting on
communication, to copying buffers.  The overlap benchmarks and the
ablation reports are built on these buckets.

Tracing of individual events is off by default (zero overhead besides the
accounting adds); enable it to get an ordered event log for debugging or
for the example scripts that visualise the pipeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

__all__ = ["TraceEvent", "Tracer", "TimeBuckets"]

# Canonical accounting buckets; anything else is accepted but not summarised.
BUCKETS = ("compute", "comm_wait", "copy", "mpi_overhead", "sync_wait")


@dataclass
class TraceEvent:
    """One logged happening in the simulation."""

    time: float
    rank: int
    kind: str
    detail: str = ""
    data: Any = None


@dataclass
class TimeBuckets:
    """Accumulated seconds per activity for one rank."""

    compute: float = 0.0
    comm_wait: float = 0.0
    copy: float = 0.0
    mpi_overhead: float = 0.0
    sync_wait: float = 0.0
    other: float = 0.0

    def total(self) -> float:
        return (self.compute + self.comm_wait + self.copy
                + self.mpi_overhead + self.sync_wait + self.other)

    def add(self, bucket: str, dt: float) -> None:
        if bucket in BUCKETS:
            setattr(self, bucket, getattr(self, bucket) + dt)
        else:
            self.other += dt


class Tracer:
    """Collects accounting buckets and (optionally) an ordered event log."""

    def __init__(self, record_events: bool = False):
        self.record_events = record_events
        self.events: list[TraceEvent] = []
        self._buckets: dict[int, TimeBuckets] = defaultdict(TimeBuckets)
        self.counters: dict[str, int] = defaultdict(int)

    # -- accounting --------------------------------------------------------
    def account(self, rank: int, bucket: str, dt: float) -> None:
        """Charge ``dt`` seconds of ``bucket`` activity to ``rank``."""
        if dt < 0:
            raise ValueError(f"negative accounting interval {dt}")
        self._buckets[rank].add(bucket, dt)

    def bump(self, counter: str, n: int = 1) -> None:
        """Increment a named counter (messages sent, gets issued, ...)."""
        self.counters[counter] += n

    def health(self) -> dict[str, int]:
        """Health counters: the ``fault:*`` namespace plus the watchdog's
        ``engine:stalls_diagnosed``.

        Populated only when fault machinery is active: injected get
        failures, retries, reliable-protocol fallbacks, window
        activations, and — with a failure detector installed —
        suspicion/confirmation transitions, epoch-fence rejections, and
        watchdog-diagnosed stalls.  The always-on engine fast-path
        counters (``engine:ff_jumps`` etc.) stay out, so an empty dict still
        certifies a run saw no fault machinery at all.
        """
        out = {name[len("fault:"):]: val
               for name, val in self.counters.items()
               if name.startswith("fault:")}
        if "engine:stalls_diagnosed" in self.counters:
            out["stalls_diagnosed"] = self.counters["engine:stalls_diagnosed"]
        return out

    def buckets(self, rank: int) -> TimeBuckets:
        return self._buckets[rank]

    def all_buckets(self) -> dict[int, TimeBuckets]:
        return dict(self._buckets)

    def total(self, bucket: str) -> float:
        """Sum of one bucket across all ranks."""
        return sum(getattr(b, bucket) for b in self._buckets.values())

    # -- event log -----------------------------------------------------------
    def log(self, time: float, rank: int, kind: str, detail: str = "",
            data: Any = None) -> None:
        if self.record_events:
            self.events.append(TraceEvent(time, rank, kind, detail, data))

    def events_of(self, rank: Optional[int] = None,
                  kind: Optional[str] = None) -> list[TraceEvent]:
        """Filter the event log (requires record_events=True)."""
        out: Iterable[TraceEvent] = self.events
        if rank is not None:
            out = (e for e in out if e.rank == rank)
        if kind is not None:
            out = (e for e in out if e.kind == kind)
        return list(out)

    def summary(self) -> dict[str, float]:
        """Machine-wide totals per bucket, plus counters."""
        out: dict[str, float] = {b: self.total(b) for b in BUCKETS}
        out["other"] = sum(b.other for b in self._buckets.values())
        for name, val in self.counters.items():
            out[f"count:{name}"] = val
        return out
