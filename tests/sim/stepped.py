"""The step-by-step oracle the simulator's fast paths are checked against.

The product engine and flow network take several exact shortcuts: the
engine drains a whole same-instant run of heap entries in one pass, and
the network scopes each reallocation to the touched component, fills
per path class, merges identical same-instant transfers into carrier
flows and shares one completion entry per cohort (see the
:mod:`repro.sim.network` docstring).  Every one of them must leave every
observable bitwise unchanged.  This module keeps the plain version each
shortcut is measured against:

- :class:`SteppedEngine` pops, claims and fires one heap entry per loop
  pass;
- :class:`SteppedFlowNetwork` recomputes max-min rates over *every*
  active flow with the flat per-flow progressive-filling loop, settles
  flow by flow, schedules one completion entry per flow, and marks the
  departed flow's links dirty on every departure and abort — no scoping,
  no path classes, no carriers, no cohorts, no disjoint-join shortcut.

:func:`flow_network` builds a bare network on either side, and
:func:`stepped_machines` builds every :class:`~repro.sim.cluster.Machine`
constructed inside its block on the oracle, including the machines the
public entry points (``srumma_multiply`` and friends) build themselves.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Iterator

from repro.sim import cluster
from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.network import Flow, FlowNetwork, Link, _flow_eps

__all__ = ["SteppedEngine", "SteppedFlowNetwork", "flow_network",
           "stepped_machines"]


class SteppedEngine(Engine):
    """The engine with one-at-a-time dispatch: one heap entry per pass."""

    def run(self, until=None, max_steps: int = 50_000_000,
            raise_crashes: bool = True) -> float:
        self._collect_crashes = not raise_crashes
        self._running = True
        heap = self._heap
        steps = self._step_count
        try:
            while heap:
                t, _seq, call = heap[0]
                if until is not None and t > until:
                    self.now = until
                    break
                heapq.heappop(heap)
                if call.cancelled:
                    continue
                if t < self.now - 1e-12:
                    raise SimulationError("event heap time went backwards")
                self.now = t
                # Claimed before firing: it has left the heap, so a later
                # cancel() of this call must be a no-op.
                call.cancelled = True
                self._live -= 1
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"exceeded {max_steps} engine steps"
                        + self._crash_detail())
                call.fn()
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._step_count = steps
            self._running = False
            self._collect_crashes = False
        return self.now


class SteppedFlowNetwork(FlowNetwork):
    """Full-recompute max-min allocation, one completion entry per flow."""

    def abort(self, done: Event) -> bool:
        latent = self._latent.pop(done, None)
        if latent is not None:
            self.engine.cancel(latent)
            self.aborted_flows += 1
            return True
        for flow in self._flows:
            if flow.done is done:
                break
        else:
            return False
        self._settle_flow(flow)
        self._remove(flow, completed=False)
        self.aborted_flows += 1
        self._mark_dirty(flow.path)
        return True

    def _start_flow(self, flow: Flow) -> None:
        self._latent.pop(flow.done, None)
        now = self.engine.now
        flow.started_at = now
        flow._last_update = now
        flow._seq = self._flow_seq
        self._flow_seq += 1
        self._flows[flow] = None
        for link in flow.path:
            link.flows[flow] = None
        self._mark_dirty(flow.path)

    def _finish_flow(self, flow: Flow) -> None:
        if flow not in self._flows:
            return
        self._settle_flow(flow)
        if flow.remaining > _flow_eps(flow):
            raise SimulationError(
                f"flow {flow.label!r} finished with {flow.remaining} bytes left")
        self._remove(flow)
        flow.done.succeed(flow.size)
        self._mark_dirty(flow.path)

    def _scope_flows(self, dirty: dict[Link, None]) -> list[Flow]:
        return list(self._flows)

    def _allocate(self, scope: list[Flow]) -> list[Flow]:
        self.reallocations += 1
        self.realloc_flow_touches += len(scope)
        rates = self._fill(scope)
        drained: list[Flow] = []
        for flow in scope:
            rate = rates.get(flow, 0.0)
            if rate <= 0:
                raise SimulationError(
                    f"flow {flow.label!r} allocated zero rate — disconnected path?")
            if rate == flow.rate and flow._sched is not None:
                continue
            self._settle_flow(flow)
            flow.rate = rate
            self._cancel_sched(flow)
            if flow.remaining <= _flow_eps(flow):
                self._remove(flow)
                flow.done.succeed(flow.size)
                drained.append(flow)
                continue
            flow._sched = self.engine._schedule(
                flow.remaining / flow.rate,
                lambda f=flow: self._finish_flow(f))
        return drained

    @staticmethod
    def _fill(scope: list[Flow]) -> dict[Flow, float]:
        """One progressive-filling pass: the per-flow round loop."""
        unfrozen: dict[Flow, None] = dict.fromkeys(scope)
        residual: dict[Link, float] = {}
        link_unfrozen: dict[Link, dict[Flow, None]] = {}
        for f in unfrozen:
            for link in f.path:
                if link not in residual:
                    residual[link] = link.bandwidth
                link_unfrozen.setdefault(link, {})[f] = None

        rates: dict[Flow, float] = {}
        while unfrozen:
            # Bottleneck link: smallest per-flow fair share among links that
            # still carry unfrozen flows; the first strict minimum wins.
            bottleneck = None
            best_share = None
            for link, fset in link_unfrozen.items():
                if not fset:
                    continue
                share = residual[link] / len(fset)
                if best_share is None or share < best_share:
                    best_share = share
                    bottleneck = link
            if bottleneck is None:
                break
            for f in list(link_unfrozen[bottleneck]):
                rates[f] = best_share
                unfrozen.pop(f, None)
                for link in f.path:
                    link_unfrozen[link].pop(f, None)
                    if link is not bottleneck:
                        residual[link] -= best_share
            residual[bottleneck] = 0.0
            link_unfrozen[bottleneck].clear()
        return rates


def flow_network(oracle: bool) -> FlowNetwork:
    """A fresh network on its own engine: the oracle's or the product's."""
    if oracle:
        return SteppedFlowNetwork(SteppedEngine())
    return FlowNetwork(Engine())


@contextlib.contextmanager
def stepped_machines() -> Iterator[None]:
    """Build every ``Machine`` constructed in the block on the oracle.

    Swaps the engine and network classes ``repro.sim.cluster`` builds a
    machine from, so entry points that make their own machine run on the
    oracle too; a machine keeps its oracle parts after the block exits.
    """
    saved = cluster.Engine, cluster.FlowNetwork
    cluster.Engine, cluster.FlowNetwork = SteppedEngine, SteppedFlowNetwork
    try:
        yield
    finally:
        cluster.Engine, cluster.FlowNetwork = saved
