"""Flow-level network model with max-min fair bandwidth sharing.

Transfers (flows) traverse a *path* of directed :class:`Link` resources —
typically ``[source NIC egress, fabric, destination NIC ingress]``.  At any
instant the rate of every active flow is the max-min fair allocation computed
by progressive filling; when a flow starts or finishes, affected rates are
recomputed and the corresponding in-flight completion events rescheduled.

This is the mechanism behind the paper's diagonal-shift experiment
(§3.1, Fig. 4): when all processors of one node fetch from the same remote
node, their flows share that node's NIC and each progresses at ``1/k`` of the
link rate; the diagonal shift spreads flows across distinct NIC pairs so each
gets the full rate.

The model is deliberately flow-level (no packets): transfer time for an
uncontended flow over a path with bottleneck bandwidth ``B`` and latency
``L`` is exactly ``L + nbytes / B``, matching the ``t_s + n * t_w`` cost model
of §2.1.

Allocator scaling
-----------------
Recomputing the global allocation on every flow arrival/departure is
quadratic-ish in active flows and floods the engine heap with cancelled
completion entries.  The allocator instead:

- restricts each recomputation to the *connected component* of links
  actually touched by the arriving/departing flow (two flows interact only
  if a chain of shared links connects them, so rates outside the component
  provably cannot change);
- skips reallocation entirely when it cannot change any rate (a flow
  joining or leaving an otherwise-empty set of links);
- coalesces all membership changes of one simulated instant into a single
  reallocation pass (a zero-delay flush event);
- settles and reschedules a flow only when its allocated rate actually
  changed, so an undisturbed flow's completion entry stays valid;
- groups identical-path flows during progressive filling — they are
  symmetric under max-min fairness and provably freeze together at the
  same share — so a round's bookkeeping scales with distinct path classes,
  and finds the bottleneck link through a lazily-invalidated min-heap
  instead of a linear scan over every link in the component;
- merges identical transfers born at one instant into a single *carrier*
  flow, and lets flows whose new completion instants are bitwise
  identical share one scheduled *cohort* entry, so the engine jumps
  straight to the closed-form completion time and services the whole
  cohort in member order.

Every one of these is exact, not approximate: ``tests/sim/stepped.py``
keeps the step-by-step oracle (full recompute over every active flow,
the flat progressive-filling loop, one completion entry per flow), and
the equivalence property tests assert ``==`` on every observable against
it.  The invariants that make this hold are written up in
``docs/performance.md``.
"""

from __future__ import annotations

import heapq
import operator
from typing import Optional, Sequence, Union

from .engine import Engine, Event, SimulationError, _ScheduledCall

_heappush = heapq.heappush
_heappop = heapq.heappop
_SEQ = operator.attrgetter("_seq")

__all__ = ["Link", "Flow", "FlowNetwork"]

# Flows with fewer remaining bytes than this are considered complete; guards
# against float dust keeping a flow alive forever.  The tolerance must scale
# with the flow size: every reallocation event settles remaining-bytes with
# rate*dt arithmetic, so a megabyte flow legitimately accumulates more
# absolute rounding error than a 100-byte one.
_EPS_BYTES = 1e-6


def _flow_eps(flow: "Flow") -> float:
    return _EPS_BYTES + 1e-9 * flow.size


class Link:
    """A directed link with fixed capacity in bytes/second."""

    __slots__ = ("name", "bandwidth", "flows", "_bytes_carried", "_mark")

    def __init__(self, name: str, bandwidth: float):
        if bandwidth <= 0:
            raise ValueError(f"link {name!r} needs positive bandwidth, got {bandwidth}")
        self.name = name
        self.bandwidth = float(bandwidth)
        # Insertion-ordered (dict-as-set): iteration order must be
        # deterministic and independent of object addresses, or simulated
        # event ordering would vary with Python allocation history.
        self.flows: dict["Flow", None] = {}
        self._bytes_carried = 0.0
        self._mark = 0  # visited stamp for component walks (see _scope_flows)

    @property
    def bytes_carried(self) -> float:
        """Total bytes that have crossed this link (for trace/asserts)."""
        return self._bytes_carried

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth:.3g} B/s, {len(self.flows)} flows>"


class Flow:
    """One in-flight transfer across a path of links.

    A flow normally carries exactly one logical transfer.  Under flow
    aggregation (see :meth:`FlowNetwork._merge_fresh`) one Flow object can
    *carry* several identical transfers — same path, same size, born at
    the same instant — in which case ``weight`` is the member count and
    ``fanout`` lists each member's ``(seq, done-event, label)`` in start
    order.  Every per-member quantity (``remaining``, ``rate``, the
    completion instant) is bitwise identical across members by
    construction, so the carrier stores it once.
    """

    __slots__ = (
        "size", "remaining", "path", "rate", "done", "started_at",
        "_sched", "_last_update", "_seq", "label", "_mark",
        "weight", "fanout",
    )

    def __init__(self, size: float, path: Sequence[Link], done: Event, label: str = ""):
        self.size = float(size)
        self.remaining = float(size)
        self.path = tuple(path)
        self.rate = 0.0
        self.done = done
        self.started_at: float = 0.0
        self._sched: Union[_ScheduledCall, "_Cohort", None] = None
        self._last_update: float = 0.0
        self._seq = 0  # global start order; keys deterministic scope ordering
        self.label = label
        self._mark = 0  # visited stamp for component walks (see _scope_flows)
        self.weight = 1
        self.fanout: Optional[list] = None  # [(seq, done, label), ...] when merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Flow {self.label!r} {self.remaining:.0f}/{self.size:.0f}B "
                f"@{self.rate:.3g}B/s>")


class _Cohort:
    """One scheduled engine entry servicing a whole completion cohort.

    Members are flows rescheduled in the same allocation pass whose new
    completion instants are bitwise identical.  Their stepped-mode heap
    entries would occupy consecutive seqs with nothing scheduled between
    them, so firing the members in insertion order from a single entry
    reproduces the exact one-entry-per-flow event order.  A member that is
    individually cancelled (abort, re-allocation) just leaves the cohort;
    the engine entry itself is cancelled only when the last member leaves.
    """

    __slots__ = ("net", "members", "call")

    def __init__(self, net: "FlowNetwork"):
        self.net = net
        self.members: dict[Flow, None] = {}
        self.call: Optional[_ScheduledCall] = None

    def fire(self) -> None:
        net = self.net
        # Aggregated fan-out: one entry may finish several carriers, each
        # carrying several logical transfers.  Stepped mode fires the
        # per-member completion entries in scheduling-seq order, which
        # within one cohort is member start order — so emit every member
        # completion sorted by member seq, with carrier bookkeeping done
        # at its first member's position (exactly where stepped mode
        # removes the flow) and byte accounting folded in the same member
        # order stepped settles would have used.
        entries: list[tuple[int, Flow, Event]] = []
        for flow in self.members:
            fo = flow.fanout
            if fo is None:
                entries.append((flow._seq, flow, flow.done))
            else:
                for seq, done, _label in fo:
                    entries.append((seq, flow, done))
        if len(entries) > 1:
            net.ff_jumps += 1
            entries.sort(key=operator.itemgetter(0))
        sink: dict[Link, list] = {}
        finished: set[Flow] = set()
        for seq, flow, done in entries:
            fo = flow.fanout
            if fo is None:
                # A synchronous completion callback may have aborted a
                # later cohort member; _cancel_sched pops it, so honour
                # the live membership exactly like the stepped loop does.
                if flow not in self.members:
                    continue
            else:
                for e in fo:
                    if e[1] is done:
                        break
                else:
                    continue  # member aborted out of the carrier mid-fire
            if flow not in finished:
                finished.add(flow)
                if not net._finish_carrier(flow, sink):
                    continue
                done.succeed(flow.size)
                if any(link.flows for link in flow.path):
                    net._mark_dirty(flow.path)
            else:
                done.succeed(flow.size)
        net._fold_bytes(sink)


class FlowNetwork:
    """Tracks active flows and keeps their rates max-min fair."""

    def __init__(self, engine: Engine):
        self.engine = engine
        # Flows started since the last flush — the merge candidates for
        # carrier flows (see _merge_fresh).
        self._fresh: list[Flow] = []
        # Cache of per-path (distinct links, has-duplicates) facts; path
        # tuples recur across thousands of passes.
        self._path_info: dict[tuple, tuple[tuple, bool]] = {}
        # Registry insertion order stops matching _seq order once a
        # carrier's first member aborts (the carrier inherits the next
        # member's seq but keeps its registry slot); the _scope_flows
        # filter shortcut is disabled from then on.
        self._seq_order_dirty = False
        # Insertion-ordered registry of active flows (see Link.flows).
        self._flows: dict[Flow, None] = {}
        self.completed_flows = 0
        self.aborted_flows = 0
        self._flow_seq = 0
        # Flows still in their latency phase, keyed by completion event:
        # not yet in _flows, but abort() must be able to cancel them or a
        # timed-out request would leak its scheduled _start_flow call.
        self._latent: dict[Event, _ScheduledCall] = {}
        # Links whose membership changed since the last reallocation pass,
        # awaiting the same-instant flush.
        self._dirty: dict[Link, None] = {}
        self._flush_pending = False
        # Monotone stamp marking flows/links visited by the current
        # component walk — replaces per-pass visited sets, whose hashing
        # dominated _scope_flows at thousands of ranks.
        self._scope_stamp = 0
        # Profiling counters (see docs/performance.md).
        self.reallocations = 0
        self.realloc_flow_touches = 0
        # Hit counters: cohort entries that serviced >=2 completions in one
        # jump, and flows that shared a multi-member path class during
        # grouped filling.  Surfaced as engine:* health counters and in the
        # wall-clock bench JSON so future PRs can see when the fast paths
        # stop firing.
        self.ff_jumps = 0
        self.flows_aggregated = 0

    # -- public API -------------------------------------------------------
    def transfer(self, nbytes: float, path: Sequence[Link], latency: float = 0.0,
                 label: str = "") -> Event:
        """Start a transfer; the returned event fires when the last byte lands.

        ``latency`` is a fixed startup delay (the ``t_s`` term) served before
        the bandwidth phase begins; it does not consume link capacity.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        done = self.engine.event(f"xfer:{label}")
        if nbytes == 0:
            if latency > 0:
                # Guarded: a cancelled request may have failed `done` first.
                self.engine._schedule(
                    latency,
                    lambda: done.succeed(0.0) if not done.triggered else None)
            else:
                done.succeed(0.0)
            return done
        if not path:
            raise ValueError("a nonzero transfer needs a non-empty link path")
        flow = Flow(nbytes, path, done, label=label)
        if latency > 0:
            self._latent[done] = self.engine._schedule(
                latency, lambda: self._start_flow(flow))
        else:
            self._start_flow(flow)
        return done

    @property
    def active_flow_count(self) -> int:
        return len(self._flows)

    def flow_rates(self) -> list[tuple[str, float]]:
        """``(label, rate)`` for every logical in-flight transfer.

        Fan-out aware: a carrier flow reports one entry per merged member
        (all bitwise at the carrier's rate), so observers see the same
        logical traffic whether or not anything was merged.
        """
        out: list[tuple[str, float]] = []
        for f in self._flows:
            fo = f.fanout
            if fo is None:
                out.append((f.label, f.rate))
            else:
                rate = f.rate
                for _seq, _done, label in fo:
                    out.append((label, rate))
        return out

    def set_bandwidth(self, link: Link, bandwidth: float) -> None:
        """Change a link's capacity mid-simulation (fault injection).

        In-flight flows are settled at their old rates up to this instant,
        then the link's connected component is re-allocated max-min fairly —
        exactly the arrival/departure machinery, triggered by a capacity
        change instead of a membership change.  A no-op when the bandwidth
        is unchanged, so restoring after a fault window costs nothing if
        nothing else moved the value meanwhile.
        """
        if bandwidth <= 0:
            raise ValueError(
                f"link {link.name!r} needs positive bandwidth, got {bandwidth}")
        bandwidth = float(bandwidth)
        if bandwidth == link.bandwidth:
            return
        link.bandwidth = bandwidth
        # Only flows constrained by this link (directly or through a chain
        # of shared links) can change rate; an idle link just carries the
        # new capacity forward to future joins.
        if link.flows:
            self._mark_dirty([link])

    def abort(self, done: Event) -> bool:
        """Tear down the in-flight flow whose completion event is ``done``.

        Settles the flow's progress to the current instant, removes it from
        its links *without* counting it as completed, and re-settles the
        shares of flows that were contending with it.  A flow still in its
        latency phase is cancelled before it ever joins a link.  Returns
        ``False`` when no flow (latent or active) carries the event —
        i.e. it already finished.
        """
        latent = self._latent.pop(done, None)
        if latent is not None:
            self.engine.cancel(latent)
            self.aborted_flows += 1
            return True
        for flow in self._flows:
            if flow.done is done:
                break
            fo = flow.fanout
            if fo is not None and any(e[1] is done for e in fo):
                break
        else:
            return False
        if flow.weight > 1:
            return self._abort_member(flow, done)
        self._settle_flow(flow)
        self._remove(flow, completed=False)
        self.aborted_flows += 1
        if any(link.flows for link in flow.path):
            self._mark_dirty(flow.path)
        return True

    def _abort_member(self, flow: Flow, done: Event) -> bool:
        """Split one aborted member out of a multi-transfer carrier.

        The member's bytes carried since the last settle are accounted
        exactly as the stepped abort's settle would (same ``rate * dt``
        product), but the carrier itself is *not* settled: the surviving
        members' remaining-bytes arithmetic must stay a single
        ``rate * dt`` step per rate change, exactly as stepped survivors
        — which only settle when their allocation actually changes —
        would accumulate it.
        """
        fo = flow.fanout
        for i, entry in enumerate(fo):
            if entry[1] is done:
                break
        dt = self.engine.now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            for link in flow.path:
                link._bytes_carried += moved
        fo.pop(i)
        flow.weight -= 1
        if i == 0:
            # The carrier's identity (seq, done, label) tracks its first
            # surviving member so scope ordering matches stepped mode.
            flow._seq, flow.done, flow.label = fo[0]
            self._seq_order_dirty = True
        self.aborted_flows += 1
        self._mark_dirty(flow.path)
        return True

    # -- internals ----------------------------------------------------------
    def _start_flow(self, flow: Flow) -> None:
        self._latent.pop(flow.done, None)
        now = self.engine.now
        flow.started_at = now
        flow._last_update = now
        flow._seq = self._flow_seq
        self._flow_seq += 1
        self._flows[flow] = None
        if not any(link.flows for link in flow.path):
            # Disjoint uncontended join: no existing flow shares any link
            # with this one, so no existing rate can change, and this
            # flow's max-min rate is exactly its path's bottleneck
            # bandwidth (the singleton fair share bw/1 == bw).  Skip the
            # reallocation pass entirely.
            for link in flow.path:
                link.flows[flow] = None
            flow.rate = min(link.bandwidth for link in flow.path)
            flow._sched = self.engine._schedule(
                flow.remaining / flow.rate, lambda: self._finish_flow(flow))
            return
        for link in flow.path:
            link.flows[flow] = None
        self._fresh.append(flow)
        self._mark_dirty(flow.path)

    def _finish_flow(self, flow: Flow) -> None:
        if flow not in self._flows:
            return
        self._settle_flow(flow)
        # Tolerate small residue from float arithmetic.
        if flow.remaining > _flow_eps(flow):
            raise SimulationError(
                f"flow {flow.label!r} finished with {flow.remaining} bytes left")
        self._remove(flow)
        flow.done.succeed(flow.size)
        if any(link.flows for link in flow.path):
            # Departure frees capacity for whoever shared these links; a
            # flow that was alone on its whole path affects nobody.
            self._mark_dirty(flow.path)

    def _finish_carrier(self, flow: Flow, sink: dict) -> bool:
        """Bookkeep a carrier's completion; the caller emits the fan-out.

        The cohort fire loop owns the per-member ``succeed`` order, so this
        only settles (deferred, into ``sink``) and removes the carrier.
        Returns ``False`` when the flow already left the network.
        """
        if flow not in self._flows:
            return False
        self._settle_deferred(flow, sink)
        if flow.remaining > _flow_eps(flow):
            raise SimulationError(
                f"flow {flow.label!r} finished with {flow.remaining} bytes left")
        self._remove(flow)
        return True

    def _remove(self, flow: Flow, completed: bool = True) -> None:
        self._flows.pop(flow, None)
        for link in flow.path:
            link.flows.pop(flow, None)
        self._cancel_sched(flow)
        if completed:
            self.completed_flows += flow.weight

    def _cancel_sched(self, flow: Flow) -> None:
        """Drop a flow's pending completion, whether solo or cohort-shared.

        Removing one member of a cohort must not cancel the shared engine
        entry while other members still ride it — this is what keeps a
        mid-phase ``set_bandwidth`` (fault brownout) exact under
        fast-forward: the re-allocated flows leave their cohorts and get
        fresh completions, while undisturbed members' jump stays valid.
        """
        sched = flow._sched
        if sched is None:
            return
        flow._sched = None
        if type(sched) is _Cohort:
            sched.members.pop(flow, None)
            if not sched.members and sched.call is not None:
                self.engine.cancel(sched.call)
        else:
            self.engine.cancel(sched)

    def _settle_flow(self, flow: Flow) -> None:
        """Advance one flow's remaining-bytes to the current instant."""
        now = self.engine.now
        dt = now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            flow.remaining -= moved
            for link in flow.path:
                link._bytes_carried += moved
            flow._last_update = now
        if flow.remaining < 0:
            flow.remaining = 0.0

    def _settle_deferred(self, flow: Flow, sink: dict) -> None:
        """Settle a flow, deferring its byte accounting into ``sink``.

        Stepped mode adds each member's ``rate * dt`` to its links at the
        member's own position in the pass; with carriers in play the
        additions must be re-interleaved by member seq before touching the
        links' float accumulators, or ``bytes_carried`` would drift by
        association.  ``sink`` maps each link to ``(member seq, moved)``
        contributions; :meth:`_fold_bytes` folds them in seq order at the
        end of the pass.
        """
        now = self.engine.now
        dt = now - flow._last_update
        if dt > 0:
            moved = flow.rate * dt
            flow.remaining -= moved
            fo = flow.fanout
            if fo is None:
                seq = flow._seq
                for link in flow.path:
                    contribs = sink.get(link)
                    if contribs is None:
                        contribs = sink[link] = []
                    contribs.append((seq, moved))
            else:
                for link in flow.path:
                    contribs = sink.get(link)
                    if contribs is None:
                        contribs = sink[link] = []
                    for seq, _done, _label in fo:
                        contribs.append((seq, moved))
            flow._last_update = now
        if flow.remaining < 0:
            flow.remaining = 0.0

    def _fold_bytes(self, sink: dict) -> None:
        """Fold deferred byte contributions in member-seq order (see
        :meth:`_settle_deferred`); bitwise-reproduces the stepped order of
        additions onto each link's accumulator."""
        getter = operator.itemgetter(0)
        for link, contribs in sink.items():
            if len(contribs) > 1:
                contribs.sort(key=getter)
            total = link._bytes_carried
            for _seq, moved in contribs:
                total += moved
            link._bytes_carried = total

    # -- reallocation -------------------------------------------------------
    def _mark_dirty(self, links: Sequence[Link]) -> None:
        for link in links:
            self._dirty[link] = None
        if not self._flush_pending:
            self._flush_pending = True
            if self.engine._running:
                # Coalesce: every membership change of this instant lands in
                # one pass when the zero-delay flush fires.
                self.engine._schedule(0.0, self._flush)
            else:
                # Called outside the event loop (setup code, tests): keep
                # the old synchronous semantics so rates are immediately
                # observable.
                self._flush()

    def _flush(self) -> None:
        self._flush_pending = False
        if self._fresh:
            self._merge_fresh()
        dirty, self._dirty = self._dirty, {}
        while dirty:
            scope = self._scope_flows(dirty)
            drained = self._allocate(scope) if scope else ()
            # A flow that settled to zero during the pass was removed
            # mid-allocation; its departure frees capacity, so re-run on
            # the links it vacated (same instant, usually empty).
            dirty = {}
            for flow in drained:
                for link in flow.path:
                    if link.flows:
                        dirty[link] = None

    def _merge_fresh(self) -> None:
        """Collapse identical fresh transfers into carrier flows.

        Flows started since the last pass with the same path and size are
        indistinguishable under max-min fairness: every future allocation
        hands them bitwise-identical rates, so their remaining-bytes and
        completion instants stay bitwise-identical forever.  Merging them
        into the earliest member (the *carrier*, ``weight`` = member
        count, ``fanout`` = per-member completion bookkeeping) makes every
        later pass and cohort pay per *class* instead of per transfer.
        Only never-allocated same-instant flows merge — anything already
        carrying a rate took part in a pass and stays solo.
        """
        fresh = self._fresh
        self._fresh = []
        now = self.engine.now
        flows = self._flows
        buckets: dict[tuple, list[Flow]] = {}
        for f in fresh:
            if (f.rate == 0.0 and f._sched is None and f.started_at == now
                    and f.weight == 1 and f in flows):
                key = (f.path, f.size)
                group = buckets.get(key)
                if group is None:
                    buckets[key] = [f]
                else:
                    group.append(f)
        for group in buckets.values():
            if len(group) < 2:
                continue
            carrier = group[0]
            carrier.weight = len(group)
            carrier.fanout = [(m._seq, m.done, m.label) for m in group]
            for m in group[1:]:
                del flows[m]
                for link in m.path:
                    del link.flows[m]

    def _scope_flows(self, dirty: dict[Link, None]) -> list[Flow]:
        """Flows whose rates the pending membership changes could affect.

        The connected component(s) of the dirty links under the "shares a
        link with" relation, in global start order (``_seq``) so the
        progressive filling visits flows and links in exactly the order a
        full recompute over every active flow would, restricted to the
        component.
        """
        self._scope_stamp += 1
        stamp = self._scope_stamp
        stack = list(dirty)
        for link in stack:
            link._mark = stamp
        found: list[Flow] = []
        append = found.append
        while stack:
            link = stack.pop()
            for flow in link.flows:
                if flow._mark != stamp:
                    flow._mark = stamp
                    append(flow)
                    for other in flow.path:
                        if other._mark != stamp:
                            other._mark = stamp
                            stack.append(other)
        if not self._seq_order_dirty and len(found) * 4 >= len(self._flows):
            # The registry is insertion-ordered and flows are never
            # re-registered, so filtering it against the component IS the
            # ``_seq`` sort — and for components spanning most of the
            # registry a linear filter beats an O(k log k) sort.
            return [f for f in self._flows if f._mark == stamp]
        found.sort(key=_SEQ)
        return found

    def _allocate(self, scope: list[Flow]) -> list[Flow]:
        """Progressive-filling max-min fair rates over ``scope``.

        Settles and reschedules only flows whose allocation changed; an
        undisturbed flow's completion entry stays valid, so the engine heap
        is not flooded with cancellations.  Returns flows that settled to
        zero and completed during the pass.
        """
        self.reallocations += 1
        self.realloc_flow_touches += len(scope)

        # One share per path class: identical-path flows provably share a
        # rate.
        get_share = self._fill_grouped(scope).get

        engine = self.engine
        drained: list[Flow] = []
        cohorts: dict[float, _Cohort] = {}
        # Deferred byte contributions (see _settle_deferred) and drained
        # carriers' later-member completions, emitted at each member's seq
        # slot so every succeed/_schedule call lands in the exact global
        # order the one-flow-per-member stepped loop would produce.
        sink: dict[Link, list] = {}
        pending: list = []
        for flow in scope:
            while pending and pending[0][0] < flow._seq:
                _s, done, size = _heappop(pending)
                done.succeed(size)
            rate = get_share(flow.path, 0.0)
            if rate <= 0:
                raise SimulationError(
                    f"flow {flow.label!r} allocated zero rate — disconnected path?")
            if rate == flow.rate and flow._sched is not None:
                # Allocation unchanged: the scheduled completion is still
                # exact, and skipping the settle keeps remaining-bytes
                # arithmetic identical to a full recompute.
                continue
            self._settle_deferred(flow, sink)
            flow.rate = rate
            self._cancel_sched(flow)
            if flow.remaining <= _flow_eps(flow):
                # Settled to zero at this very instant (its completion was
                # due now): complete it here rather than re-scheduling.
                self._remove(flow)
                flow.done.succeed(flow.size)
                fo = flow.fanout
                if fo is not None:
                    for seq, done, _label in fo[1:]:
                        _heappush(pending, (seq, done, flow.size))
                drained.append(flow)
                continue
            eta = flow.remaining / flow.rate
            # Flows completing at the bitwise-same instant share one engine
            # entry.  Keyed by the absolute time the engine would file the
            # entry under (now + eta, the same sum _schedule computes), so
            # members whose etas differ in the last bit but land on the
            # same heap key still coalesce in scheduling order.
            at = engine.now + eta
            cohort = cohorts.get(at)
            if cohort is None:
                cohort = _Cohort(self)
                cohort.call = engine._schedule(eta, cohort.fire)
                cohorts[at] = cohort
            cohort.members[flow] = None
            flow._sched = cohort
        while pending:
            _s, done, size = _heappop(pending)
            done.succeed(size)
        if sink:
            self._fold_bytes(sink)
        return drained

    def _fill_grouped(self, scope: list[Flow]) -> dict[tuple, float]:
        """Progressive filling over identical-path groups.

        Identical-path flows are symmetric under max-min fairness — same
        constraint set, so they freeze in the same round at the same share
        — which lets *all* per-round bookkeeping run per path class
        instead of per flow: the return value maps each path class to its
        share, and the only per-flow work in the whole pass is the initial
        two-dict-op grouping.  Bitwise equivalence to the flat per-flow
        round loop (the oracle's ``_fill`` in ``tests/sim/stepped.py``)
        rests on four facts: (1) shares are computed as ``residual / count``
        with ``count`` the same per-flow membership total the flat pass
        uses; (2) within one round every frozen flow subtracts the *same*
        ``best_share``, so regrouping the per-member subtractions by path
        class leaves each link's (sequential, same-value) subtraction
        chain — and hence its residual bits — unchanged; (3) the
        bottleneck is chosen by min ``(share, first-occurrence index)``
        through a lazily re-keyed heap, which is exactly the flat pass's
        first-strict-win linear scan; (4) registering links per group in
        group-insertion order reproduces the flat pass's first-occurrence
        order, because a link's earliest carrier group is by definition
        the group of the earliest scope flow whose path contains it.
        """
        if len(scope) == 1:
            # Singleton component: one path class, so the bottleneck is
            # min over links of bandwidth/weight.  Division by a positive
            # count is monotone and ties share one value, so taking min
            # before dividing is bitwise the flat pass's scan.
            f0 = scope[0]
            w = f0.weight
            bw = min(link.bandwidth for link in f0.path)
            if w > 1:
                self.flows_aggregated += w
                return {f0.path: bw / w}
            return {f0.path: bw}

        groups: dict[tuple[Link, ...], int] = {}
        total = 0
        for f in scope:
            p = f.path
            w = f.weight
            total += w
            groups[p] = groups.get(p, 0) + w

        # Link tables in the flat pass's first-occurrence order, built per
        # path class (weight ``w``), never per flow.
        residual: dict[Link, float] = {}
        order: dict[Link, int] = {}
        link_count: dict[Link, int] = {}
        link_groups: dict[Link, dict[tuple[Link, ...], None]] = {}
        ginfo: dict[tuple[Link, ...], tuple[int, tuple, bool]] = {}
        path_info = self._path_info
        aggregated = 0
        for path, w in groups.items():
            if w > 1:
                aggregated += w
            cached = path_info.get(path)
            if cached is None:
                distinct = path
                dups = False
                if len(path) > 1 and len(set(path)) != len(path):
                    distinct = tuple(dict.fromkeys(path))
                    dups = True
                cached = path_info[path] = (distinct, dups)
            distinct, dups = cached
            ginfo[path] = (w, distinct, dups)
            for link in distinct:
                cnt = link_count.get(link)
                if cnt is None:
                    residual[link] = link.bandwidth
                    order[link] = len(order)
                    link_count[link] = w
                    link_groups[link] = {path: None}
                else:
                    link_count[link] = cnt + w
                    link_groups[link][path] = None
        self.flows_aggregated += aggregated

        heap: list[tuple[float, int, int, Link]] = []
        version: dict[Link, int] = {}
        for link, cnt in link_count.items():
            version[link] = 0
            _heappush(heap, (residual[link] / cnt, order[link], 0, link))

        shares: dict[tuple, float] = {}
        remaining = total
        while remaining:
            bottleneck = None
            while heap:
                best_share, _idx, ver, link = _heappop(heap)
                if ver == version[link] and link_count[link] > 0:
                    bottleneck = link
                    break
            if bottleneck is None:
                break  # all remaining flows have no constraining link
            changed: dict[Link, None] = {}
            for path in list(link_groups[bottleneck]):
                w, distinct, dups = ginfo[path]
                shares[path] = best_share
                if dups:
                    # Raw path order, one subtraction per member per
                    # occurrence — the same count of identical-value
                    # subtractions the flat pass applies.
                    for link in path:
                        if link is not bottleneck:
                            r = residual[link]
                            for _ in range(w):
                                r -= best_share
                            residual[link] = r
                    for link in distinct:
                        if link is not bottleneck:
                            link_count[link] -= w
                            del link_groups[link][path]
                            changed[link] = None
                elif w == 1:
                    for link in distinct:
                        if link is not bottleneck:
                            residual[link] -= best_share
                            link_count[link] -= 1
                            del link_groups[link][path]
                            changed[link] = None
                else:
                    for link in distinct:
                        if link is not bottleneck:
                            r = residual[link]
                            for _ in range(w):
                                r -= best_share
                            residual[link] = r
                            link_count[link] -= w
                            del link_groups[link][path]
                            changed[link] = None
                remaining -= w
            residual[bottleneck] = 0.0
            link_count[bottleneck] = 0
            link_groups[bottleneck].clear()
            for link in changed:
                cnt = link_count[link]
                if cnt > 0:
                    ver = version[link] + 1
                    version[link] = ver
                    _heappush(heap,
                              (residual[link] / cnt, order[link], ver, link))
        return shares
