"""Machine instance: nodes, CPUs, NICs, memory controllers, and paths.

A :class:`Machine` turns a :class:`~repro.machines.spec.MachineSpec` plus a
rank count into live simulation objects:

- one :class:`~repro.sim.resources.Resource` per CPU (rank) — compute and
  host-copy work serialises here, which is how a non-zero-copy get steals
  cycles from the remote rank's computation;
- per node: NIC egress and ingress :class:`~repro.sim.network.Link`\\ s and a
  memory-controller link, all shared max-min fairly by concurrent flows;
- path helpers mapping (source rank, destination rank, protocol) to the link
  path a transfer crosses.

Ranks are assigned to nodes in blocks: ranks ``[i*cpn, (i+1)*cpn)`` live on
node ``i``.  *Shared-memory domains* equal nodes on clusters and the whole
machine on scalable shared-memory systems (SGI Altix, Cray X1) — matching the
paper's note that the Altix was treated as a single 128-CPU domain even
though it is built from 2-CPU bricks.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..machines.spec import MachineSpec
from .engine import Engine, Event
from .network import FlowNetwork, Link
from .resources import Resource
from .trace import Tracer

__all__ = ["Node", "Machine"]


class Node:
    """One SMP node (or NUMA brick): CPUs + NIC + memory controller."""

    def __init__(self, engine: Engine, index: int, ncpus: int,
                 nic_bandwidth: float, mem_bandwidth: float):
        self.index = index
        self.cpus = [Resource(engine, capacity=1, name=f"node{index}.cpu{i}")
                     for i in range(ncpus)]
        self.nic_out = Link(f"node{index}.nic_out", nic_bandwidth)
        self.nic_in = Link(f"node{index}.nic_in", nic_bandwidth)
        self.mem = Link(f"node{index}.mem", mem_bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.index} cpus={len(self.cpus)}>"


class Machine:
    """A running simulated machine hosting ``nranks`` processes."""

    def __init__(self, spec: MachineSpec, nranks: int,
                 engine: Optional[Engine] = None,
                 tracer: Optional[Tracer] = None):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.spec = spec
        self.nranks = nranks
        self.engine = engine if engine is not None else Engine()
        self.tracer = tracer if tracer is not None else Tracer()
        self.net = FlowNetwork(self.engine)
        # OS timeslice for CPU occupancy, set by interference injection
        # (None = compute holds the CPU uninterrupted; daemons then cannot
        # preempt, which is unrealistic under contention).
        self.preemption_quantum: Optional[float] = None
        # Fault injector installed by repro.sim.faults.install_faults
        # (None = healthy machine; every fault hook checks this first so
        # the healthy path schedules the exact pre-fault event sequence).
        self.faults = None
        # Hard-failure state: nodes killed by a NodeCrash plan event, plus
        # listeners (comm runtime, rank supervisor) notified at the kill
        # instant so they can fail in-flight work and interrupt dead ranks.
        self.dead_nodes: set[int] = set()
        self._crash_listeners: list = []
        self._crash_base_bw: dict[int, tuple[float, float, float]] = {}
        # Failure-detection state, installed by install_faults when the
        # plan carries a DetectorConfig / watchdog_grace.  None keeps every
        # caller on the oracle code path (exact pre-detection behaviour).
        self.membership = None  # repro.sim.membership.Membership
        self.watchdog = None    # repro.sim.engine.ProgressWatchdog

        cpn = spec.cpus_per_node
        nnodes = spec.nodes_for(nranks)
        self.nodes: list[Node] = []
        for i in range(nnodes):
            ncpus = min(cpn, nranks - i * cpn)
            self.nodes.append(Node(
                self.engine, i, ncpus,
                nic_bandwidth=spec.network.bandwidth,
                mem_bandwidth=spec.memory.node_bandwidth,
            ))

    # -- topology queries ----------------------------------------------------
    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.spec.cpus_per_node

    def domain_of(self, rank: int) -> int:
        """Shared-memory domain id of ``rank`` (paper: 'cluster locality')."""
        self._check_rank(rank)
        if self.spec.shared_memory_scope == "machine":
            return 0
        return self.node_of(rank)

    def same_domain(self, a: int, b: int) -> bool:
        """True when ranks a and b can reach each other via load/store."""
        return self.domain_of(a) == self.domain_of(b)

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def ranks_in_domain(self, domain: int) -> list[int]:
        """All ranks belonging to a shared-memory domain."""
        if self.spec.shared_memory_scope == "machine":
            if domain != 0:
                raise ValueError("machine-scope has a single domain 0")
            return list(range(self.nranks))
        cpn = self.spec.cpus_per_node
        return [r for r in range(domain * cpn, min((domain + 1) * cpn, self.nranks))]

    @property
    def n_domains(self) -> int:
        if self.spec.shared_memory_scope == "machine":
            return 1
        return len(self.nodes)

    def domain_leader(self, domain: int) -> int:
        """The leader rank of a shared-memory domain (lowest rank).

        The hierarchical algorithm's leader tier and membership
        dissemination both address domains through this rank.
        """
        return self.ranks_in_domain(domain)[0]

    def cpu(self, rank: int) -> Resource:
        """The CPU resource owned by ``rank``."""
        node = self.nodes[self.node_of(rank)]
        return node.cpus[rank % self.spec.cpus_per_node]

    # -- transfer paths ------------------------------------------------------
    def network_path(self, src_rank: int, dst_rank: int) -> list[Link]:
        """Links crossed by a NIC-level transfer from src's memory to dst's."""
        sn, dn = self.node_of(src_rank), self.node_of(dst_rank)
        if sn == dn:
            # Loopback through the node's memory system.
            return [self.nodes[sn].mem]
        return [self.nodes[sn].nic_out, self.nodes[dn].nic_in]

    def shmem_path(self, src_rank: int, dst_rank: int) -> list[Link]:
        """Links crossed by a direct load/store block copy within a domain.

        Same node: the memory controller.  Different nodes of a machine-wide
        shared-memory system: the NUMA fabric between the bricks.
        """
        if not self.same_domain(src_rank, dst_rank):
            raise ValueError(
                f"ranks {src_rank} and {dst_rank} are not in one shared-memory "
                f"domain on {self.spec.name}")
        sn, dn = self.node_of(src_rank), self.node_of(dst_rank)
        if sn == dn:
            return [self.nodes[sn].mem]
        return [self.nodes[sn].nic_out, self.nodes[dn].nic_in]

    # -- cost helpers ----------------------------------------------------------
    def dgemm_time(self, m: int, n: int, k: int, remote_uncached: bool = False) -> float:
        """Seconds one rank spends in the serial kernel for an m*k @ k*n block."""
        return self.spec.cpu.dgemm_time(m, n, k, remote_uncached=remote_uncached)

    def transfer(self, nbytes: float, path: Sequence[Link], latency: float = 0.0,
                 label: str = "") -> Event:
        """Start a flow on the machine's network; returns its completion event.

        Completions feed the progress watchdog when one is armed.  (The
        detector's heartbeat/dissemination flows deliberately bypass this
        method: a stalled computation with a live heartbeat plane must
        still be diagnosed as a stall.)
        """
        ev = self.net.transfer(nbytes, path, latency=latency, label=label)
        if self.watchdog is not None:
            ev.add_callback(self.watchdog.beat)
        return ev

    def cpu_busy(self, rank: int, seconds: float):
        """Occupy simulated time for CPU work ``rank`` performs *now*.

        The single dilation point for straggler injection: with no fault
        plan this is exactly ``yield engine.timeout(seconds)``; with one,
        the plan's straggler windows stretch the wall time.  Returns the
        wall seconds actually spent, so callers can account real elapsed
        time into trace buckets (equal to ``seconds`` when healthy).
        """
        faults = self.faults
        if faults is None:
            yield self.engine.timeout(seconds)
            return seconds
        wall = faults.wall_time(rank, self.engine.now, seconds)
        yield self.engine.timeout(wall)
        if self.watchdog is not None:
            self.watchdog.beat()
        return wall

    # -- hard node failure ---------------------------------------------------
    def on_node_crash(self, fn) -> None:
        """Register ``fn(node_index)`` to run at each node-kill instant.

        Listeners fire in registration order, synchronously inside the
        injector's crash process — before any event scheduled after the
        crash — so they can cancel in-flight transfers deterministically.
        """
        self._crash_listeners.append(fn)

    def kill_node(self, node: int, residual: float = 1e-4) -> None:
        """Hard-fail ``node``: its links crawl at ``residual``, ranks die.

        The links cannot carry literal zero bandwidth (in-flight bytes
        must land so survivors' timeouts race something finite), so the
        NIC and memory controller drop to ``base * residual``.  The CPUs
        are not freed here — the crash listeners interrupt the rank
        processes, whose unwinding releases them.
        """
        if node in self.dead_nodes:
            return
        n = self.nodes[node]
        self._crash_base_bw[node] = (
            n.nic_out.bandwidth, n.nic_in.bandwidth, n.mem.bandwidth)
        self.dead_nodes.add(node)
        for link, base in zip((n.nic_out, n.nic_in, n.mem),
                              self._crash_base_bw[node]):
            self.net.set_bandwidth(link, base * residual)
        for fn in list(self._crash_listeners):
            fn(node)

    def revive_node(self, node: int) -> None:
        """Restore a dead node's links (its ranks stay dead — recovery has
        already reassigned their work; late hardware only helps routing)."""
        if node not in self.dead_nodes:
            return
        self.dead_nodes.discard(node)
        n = self.nodes[node]
        base = self._crash_base_bw.pop(node)
        for link, bw in zip((n.nic_out, n.nic_in, n.mem), base):
            self.net.set_bandwidth(link, bw)

    def node_is_dead(self, node: int) -> bool:
        return node in self.dead_nodes

    def rank_is_dead(self, rank: int) -> bool:
        """True when ``rank`` lives on a node that has hard-failed."""
        return bool(self.dead_nodes) and self.node_of(rank) in self.dead_nodes

    def presumed_dead(self, caller: int, target: int) -> bool:
        """Does ``caller`` *believe* ``target``'s node is gone?

        Without a detector this is the oracle truth (`rank_is_dead`) —
        exactly the PR 5 behaviour.  With one it is ``caller``'s possibly
        stale, possibly wrong membership view: a confirmed-dead node is
        routed around even if it is actually alive (false suspicion), and
        a dead node keeps receiving traffic until detection catches up.
        """
        if self.membership is None:
            return bool(self.dead_nodes) and self.node_of(target) in self.dead_nodes
        return self.membership.sees_unreachable(
            self.node_of(caller), self.node_of(target))

    def notify_confirmed(self, node: int) -> None:
        """Membership confirmed ``node`` dead: act on that *belief*.

        If the node really crashed, the crash listeners fire now — at
        detection time, not the oracle kill instant — failing in-flight
        transfers and releasing robust waits.  If the confirmation is
        false (partitioned-but-alive node), nothing is swept: its traffic
        is slow, not lost, and must be left to complete after heal.
        Listeners are idempotent, so a listener that already ran for this
        node is a no-op.
        """
        if node in self.dead_nodes:
            for fn in list(self._crash_listeners):
                fn(node)

    def replica_of(self, rank: int, spread: int = 0) -> int:
        """A live rank standing in for ``rank``'s data after a crash.

        Replication is *declustered* (chained-declustering style): a dead
        rank's panels have a copy reachable from every surviving node, so
        reconstruction reads spread machine-wide instead of funnelling
        through one buddy NIC.  ``spread`` selects which shard serves a
        particular reader — callers pass their own rank, giving each
        reader a distinct (but deterministic) replica node while keeping
        ``spread=0`` the canonical one-node-over mirror.  Walks
        node-by-node (``+cpus_per_node`` mod nranks) from the selected
        start to the first rank on a live node.
        """
        return self._replica_walk(rank, spread, self.rank_is_dead)

    def replica_for(self, caller: int, rank: int, spread: int = 0) -> int:
        """Like :meth:`replica_of`, but judged by ``caller``'s belief.

        With no detector installed this is oracle :meth:`replica_of`.
        With one, the walk skips nodes ``caller`` presumes dead — so a
        falsely-confirmed node's data is served from replicas, and a
        rejoined node is a valid replica home again.
        """
        if self.membership is None:
            return self._replica_walk(rank, spread, self.rank_is_dead)
        return self._replica_walk(
            rank, spread, lambda r: self.presumed_dead(caller, r))

    def _replica_walk(self, rank: int, spread: int, is_dead) -> int:
        if not is_dead(rank):
            return rank
        cpn = self.spec.cpus_per_node
        r = (rank + cpn * (spread % len(self.nodes))) % self.nranks
        for _ in range(len(self.nodes)):
            r = (r + cpn) % self.nranks
            if not is_dead(r):
                return r
        raise RuntimeError("no live node remains to serve replicas")

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Machine {self.spec.name} nranks={self.nranks} "
                f"nodes={len(self.nodes)}>")
