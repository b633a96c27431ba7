"""Failure detection and membership: suspicion, confirmation, epochs.

PR 5's crash protocol worked off *oracle* knowledge: the instant a node
died, every survivor knew.  Real clusters only ever **suspect** failure
through missed heartbeats.  This module holds the cluster's imperfect
knowledge — who is suspected, who has been confirmed dead, which
membership *epoch* we are in — separately from the oracle hardware state
(`Machine.dead_nodes`), so the two can disagree: a live node can be
falsely confirmed dead (heartbeats lost or partitioned away), and a dead
node can go undetected for a detection interval.

State machine (per node, at the monitor):

    alive --missed heartbeats--> suspected --confirm_grace more
      ^                            |          silence--> confirmed-dead
      |<--heartbeat arrives--------+  (false suspicion)      |
                                                   rejoin    v
                                          rejoined <--- (sticky: the
                                       (replica target    node's ranks
                                        again, ranks      never return)
                                        stay dead)

Knowledge is **per observer**: the monitor (the leader tier's node-0
leader) detects transitions and disseminates them as real flows on the
simulated network, so each node's *view* lags the monitor by the
dissemination latency and ranks can transiently disagree — exactly the
window in which duplicate work arises.

Epoch fencing makes that duplicate work safe.  Every confirmation (and
rejoin) bumps the membership ``epoch``.  A C-block write-back is stamped
with the **ownership generation** under which the writer's work on that
block began: the original owner stamps the generation it observed at
start (0, normally), and a recovery participant stamps the generation the
recovery *claim* recorded.  Claiming a dead rank's block
(:meth:`Membership.claim`) fences it to the current epoch; an
:meth:`admit_write` with a stale stamp is rejected and counted
(``fault:stale_epoch_rejected``).  Fencing at claim time — not at
confirmation — means a false confirmation that *nobody acts on* leaves
the original owner's commit admissible, so the run stays correct even
when every survivor has already left the recovery phase.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Machine

__all__ = ["Membership", "ALIVE", "SUSPECTED", "DEAD", "REJOINED"]

ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "confirmed-dead"
REJOINED = "rejoined"


class _View:
    """One node's (possibly stale) copy of the monitor's membership map."""

    __slots__ = ("version", "epoch", "confirmed", "suspected", "rejoined")

    def __init__(self) -> None:
        self.version = 0
        self.epoch = 0
        self.confirmed: frozenset[int] = frozenset()
        self.suspected: frozenset[int] = frozenset()
        self.rejoined: frozenset[int] = frozenset()


class Membership:
    """The cluster's imperfect failure knowledge and its epoch fence.

    One instance per :class:`~repro.sim.cluster.Machine` when a detector
    is configured (``machine.membership``); ``None`` keeps every caller on
    the exact oracle code path.
    """

    def __init__(self, machine: "Machine", monitor_node: int = 0):
        self.machine = machine
        self.monitor_node = monitor_node
        nnodes = len(machine.nodes)
        #: Authoritative state at the monitor.
        self.state: dict[int, str] = {j: ALIVE for j in range(nnodes)}
        self.version = 0
        self.epoch = 0
        #: Per-rank ownership-generation fence set by recovery claims.
        self._fence: dict[int, int] = {}
        #: Per-node views, updated by dissemination flows.
        self.views: list[_View] = [_View() for _ in range(nnodes)]
        #: Monitor-side transition tallies keyed by node (for RankStats).
        self.suspect_counts: dict[int, int] = {}
        self.false_suspicion_counts: dict[int, int] = {}
        #: Stale write-backs rejected, keyed by the fenced owner rank.
        self.rejected_counts: dict[int, int] = {}

    # -- monitor-side transitions -----------------------------------------
    def suspect(self, node: int) -> bool:
        """alive -> suspected (monitor).  Returns True if it transitioned."""
        if self.state.get(node) != ALIVE:
            return False
        self.state[node] = SUSPECTED
        self.version += 1
        self.suspect_counts[node] = self.suspect_counts.get(node, 0) + 1
        self.machine.tracer.bump("fault:suspected")
        return True

    def clear_suspicion(self, node: int) -> bool:
        """suspected -> alive: a heartbeat arrived; the suspicion was false."""
        if self.state.get(node) != SUSPECTED:
            return False
        self.state[node] = ALIVE
        self.version += 1
        self.false_suspicion_counts[node] = (
            self.false_suspicion_counts.get(node, 0) + 1)
        self.machine.tracer.bump("fault:false_suspicions")
        return True

    def confirm(self, node: int) -> bool:
        """suspected -> confirmed-dead; bumps the membership epoch.

        Sticky: the node's ranks are written off whether or not the node
        actually died (the machine decides what physically follows — see
        :meth:`Machine.notify_confirmed`).
        """
        if self.state.get(node) != SUSPECTED:
            return False
        self.state[node] = DEAD
        self.version += 1
        self.epoch += 1
        self.machine.tracer.bump("fault:confirmed_dead")
        return True

    def rejoin(self, node: int) -> bool:
        """confirmed-dead -> rejoined: the hardware is back as a replica
        target; the ranks stay dead and the epoch bumps again."""
        if self.state.get(node) != DEAD:
            return False
        self.state[node] = REJOINED
        self.version += 1
        self.epoch += 1
        self.machine.tracer.bump("fault:node_rejoin")
        return True

    def snapshot(self) -> tuple[int, int, frozenset, frozenset, frozenset]:
        """The monitor's map, frozen for a dissemination flow's payload."""
        confirmed = frozenset(j for j, s in self.state.items()
                              if s in (DEAD, REJOINED))
        suspected = frozenset(j for j, s in self.state.items()
                              if s == SUSPECTED)
        rejoined = frozenset(j for j, s in self.state.items()
                             if s == REJOINED)
        return (self.version, self.epoch, confirmed, suspected, rejoined)

    # -- dissemination ------------------------------------------------------
    def deliver(self, observer_node: int,
                payload: tuple[int, int, frozenset, frozenset, frozenset]
                ) -> None:
        """Land a dissemination message at ``observer_node``'s view.

        Monotone in ``version``: a reordered older message never rolls a
        view back.
        """
        version, epoch, confirmed, suspected, rejoined = payload
        view = self.views[observer_node]
        if version <= view.version:
            return
        view.version = version
        view.epoch = epoch
        view.confirmed = confirmed
        view.suspected = suspected
        view.rejoined = rejoined

    # -- observer-side queries ---------------------------------------------
    def sees_confirmed(self, observer_node: int, target_node: int) -> bool:
        """Does ``observer_node`` currently believe ``target_node``'s ranks
        are confirmed dead?  (Sticky through rejoin: the ranks stay gone.)"""
        return target_node in self.views[observer_node].confirmed

    def sees_suspected(self, observer_node: int, target_node: int) -> bool:
        return target_node in self.views[observer_node].suspected

    def sees_unreachable(self, observer_node: int, target_node: int) -> bool:
        """Should transfers from ``observer_node`` avoid ``target_node``?

        Confirmed-dead nodes are routed around; a **rejoined** node is a
        valid transfer target again (fresh checkpoint-replica home), and a
        merely *suspected* node keeps receiving traffic — the retry ladder,
        not rerouting, is the answer to suspicion.
        """
        view = self.views[observer_node]
        return (target_node in view.confirmed
                and target_node not in view.rejoined)

    # -- epoch fencing ------------------------------------------------------
    def claim(self, rank: int) -> int:
        """Fence ``rank``'s block to the current epoch; recovery owns it now.

        Returns the generation (epoch) recovery write-backs must stamp.
        Idempotent: a second claim returns the existing fence.
        """
        if rank not in self._fence:
            self._fence[rank] = self.epoch
        return self._fence[rank]

    def generation(self, rank: int) -> int:
        """The ownership generation a writer starting now would observe."""
        return self._fence.get(rank, 0)

    def admit_write(self, rank: int, stamp: int) -> bool:
        """Epoch fence: admit a write-back for ``rank``'s block iff its
        stamp is not stale.  Rejections are counted — they are the duplicate
        write-backs the fence exists to absorb."""
        if stamp >= self._fence.get(rank, 0):
            return True
        self.rejected_counts[rank] = self.rejected_counts.get(rank, 0) + 1
        self.machine.tracer.bump("fault:stale_epoch_rejected")
        return False

    def fenced_ranks(self) -> list[int]:
        return sorted(self._fence)
