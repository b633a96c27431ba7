"""Deterministic, seeded fault injection: brownouts, outages, stragglers.

The paper's overlap claim has a flip side the healthy-machine simulator
cannot show: a pipeline that hides communication behind computation also
*absorbs* transient network degradation and slow CPUs, while synchronous
broadcast pipelines amplify them (every panel waits for the unluckiest
rank).  This module injects that degradation deterministically so the
comparison is exact:

- :class:`FaultPlan` is pure data — frozen dataclasses of absolute-time
  windows plus a seed — picklable across worker processes and canonical
  enough to participate in the content-addressed result-cache key.
- :class:`FaultInjector` applies the plan on the engine clock: brownout /
  outage windows rescale NIC :class:`~repro.sim.network.Link` bandwidth
  (re-settling in-flight flows max-min fairly via
  :meth:`~repro.sim.network.FlowNetwork.set_bandwidth`), straggler windows
  dilate CPU work issued through :meth:`~repro.sim.cluster.Machine.cpu_busy`,
  and seeded draws fail individual remote RMA gets
  (:class:`~repro.comm.base.GetFailedError`, retried by the SRUMMA layer).

Determinism guarantees (``docs/resilience.md``):

1. Same plan + seed => bit-identical simulation, across runs and across
   ``--jobs`` values: every fault event is a function of the plan and the
   engine clock, never of wall time or interpreter state.
2. ``machine.faults is None`` (no plan) is the *exact* pre-fault code
   path: every hook is guarded, so healthy runs schedule the identical
   event sequence they did before fault injection existed.
3. Get-failure and corruption draws hash a per-*(kind, rank)* issue
   counter with splitmix64 (:func:`unit_uniform`) — no ``random.Random``
   state, so each rank's stream is platform-independent, unaffected by
   unrelated code drawing numbers, and unaffected by how many draws any
   *other* rank made.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .engine import Interrupt, Process, ProgressWatchdog
from .membership import ALIVE, SUSPECTED, Membership

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import Machine
    from .network import Link

__all__ = [
    "LinkBrownout",
    "NicOutage",
    "StragglerWindow",
    "NodeCrash",
    "NetworkPartition",
    "NodeRejoin",
    "DetectorConfig",
    "FaultPlan",
    "FaultInjector",
    "install_faults",
    "standard_degraded_plan",
    "unit_uniform",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def unit_uniform(seed: int, n: int) -> float:
    """Deterministic uniform in ``[0, 1)`` for draw ``n`` of stream ``seed``.

    A stateless splitmix64 hash: the value depends only on ``(seed, n)``,
    so fault draws are reproducible whatever else the process computed.
    """
    z = _splitmix64((seed & _MASK64) ^ _splitmix64(n & _MASK64))
    return (z >> 11) * (1.0 / (1 << 53))


def _check_window(what: str, t_start: float, t_end: float) -> None:
    if t_start < 0:
        raise ValueError(f"{what} starts before t=0: {t_start}")
    if t_end <= t_start:
        raise ValueError(f"{what} window [{t_start}, {t_end}] is empty")


@dataclass(frozen=True)
class LinkBrownout:
    """One node's NIC bandwidth multiplied by ``factor`` over a window."""

    node: int
    t_start: float
    t_end: float
    factor: float
    direction: str = "both"
    """``"out"`` (egress), ``"in"`` (ingress), or ``"both"``."""

    def __post_init__(self):
        _check_window("brownout", self.t_start, self.t_end)
        if not (0.0 < self.factor <= 1.0):
            raise ValueError(f"brownout factor must be in (0, 1], got {self.factor}")
        if self.direction not in ("out", "in", "both"):
            raise ValueError(f"unknown brownout direction {self.direction!r}")


@dataclass(frozen=True)
class NicOutage:
    """A (near-)total NIC failure: both directions drop to ``residual``.

    The flow model cannot carry literal zero bandwidth (an in-flight byte
    must land eventually), so an outage is a brownout to a tiny residual
    fraction — transfers crawl rather than stall forever, which also gives
    retry/backoff something to time out against.
    """

    node: int
    t_start: float
    t_end: float
    residual: float = 1e-4

    def __post_init__(self):
        _check_window("outage", self.t_start, self.t_end)
        if not (0.0 < self.residual <= 1.0):
            raise ValueError(f"outage residual must be in (0, 1], got {self.residual}")


@dataclass(frozen=True)
class StragglerWindow:
    """One rank's CPU runs ``slowdown`` times slower over a window."""

    rank: int
    t_start: float
    t_end: float
    slowdown: float

    def __post_init__(self):
        _check_window("straggler", self.t_start, self.t_end)
        if self.slowdown < 1.0:
            raise ValueError(f"straggler slowdown must be >= 1, got {self.slowdown}")


@dataclass(frozen=True)
class NodeCrash:
    """A hard node failure: CPUs, NIC, and memory die at ``t_fail``.

    Unlike an outage, a crash is *permanent* from the algorithms' point of
    view (``t_recover`` optionally revives the links late, but the ranks
    that lived on the node never come back — the run must survive without
    them).  The links drop to a tiny ``residual`` bandwidth rather than
    literal zero for the same reason outages do: the flow model needs
    in-flight bytes to land eventually so survivors' timeouts can race
    something finite.
    """

    node: int
    t_fail: float
    t_recover: Optional[float] = None
    residual: float = 1e-4

    def __post_init__(self):
        if self.t_fail <= 0:
            raise ValueError(f"crash t_fail must be positive, got {self.t_fail}")
        if self.t_recover is not None and self.t_recover <= self.t_fail:
            raise ValueError(
                f"crash t_recover {self.t_recover} must follow t_fail {self.t_fail}")
        if not (0.0 < self.residual <= 1.0):
            raise ValueError(f"crash residual must be in (0, 1], got {self.residual}")


@dataclass(frozen=True)
class NetworkPartition:
    """A link-set cut: the listed nodes lose the network, *nobody dies*.

    The nodes' NIC links drop to ``residual`` bandwidth from ``t_start``
    and heal at ``t_heal``.  On this NIC-level topology that isolates the
    listed nodes from the rest of the machine (and from each other);
    intra-node memory traffic is untouched, so the nodes' ranks keep
    computing.  Unlike a crash nothing is swept: in-flight transfers
    crawl through the residual and complete after heal.  Under a failure
    detector a long enough partition manufactures *false* suspicions —
    the canonical imperfect-detection scenario.
    """

    nodes: tuple[int, ...]
    t_start: float
    t_heal: float
    residual: float = 1e-4

    def __post_init__(self):
        _check_window("partition", self.t_start, self.t_heal)
        if not self.nodes:
            raise ValueError("partition needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"partition lists a node twice: {self.nodes}")
        if not (0.0 < self.residual <= 1.0):
            raise ValueError(
                f"partition residual must be in (0, 1], got {self.residual}")


@dataclass(frozen=True)
class NodeRejoin:
    """A crashed node's hardware returns at ``t_rejoin`` as a *fresh* node.

    The ranks that lived on it never come back (their work was
    reassigned); what rejoins is capacity — the node becomes a valid
    checkpoint-replica and transfer target again.  Requires a detector:
    the rejoin is observed through resumed heartbeats and bumps the
    membership epoch, so write-backs fenced before the rejoin stay
    rejected.  The matching :class:`NodeCrash` must not set
    ``t_recover`` (rejoin supersedes it).
    """

    node: int
    t_rejoin: float

    def __post_init__(self):
        if self.t_rejoin <= 0:
            raise ValueError(
                f"rejoin t_rejoin must be positive, got {self.t_rejoin}")


@dataclass(frozen=True)
class DetectorConfig:
    """Failure-detector knobs: heartbeats, suspicion, confirmation.

    Every node sends a ``heartbeat_bytes`` flow to the monitor (the node-0
    leader) every ``period`` simulated seconds.  The monitor suspects a
    node when its silence exceeds the detector's bound — a fixed
    ``timeout`` in ``"timeout"`` mode, or an adaptive phi-accrual bound in
    ``"phi"`` mode (``phi = silence / (mean_interarrival * ln 10)``
    against ``phi_threshold``, so congestion that slows *everyone's*
    heartbeats raises the bar instead of firing it).  A suspected node
    that stays silent ``confirm_grace`` longer is confirmed dead; a
    heartbeat arriving first clears the (false) suspicion.  Every
    transition is disseminated to all node leaders as real flows, so
    views disagree transiently.
    """

    mode: str = "timeout"
    period: float = 0.002
    timeout: float = 0.01
    confirm_grace: float = 0.005
    phi_threshold: float = 8.0
    heartbeat_bytes: float = 64.0
    dissemination_bytes: float = 64.0
    heartbeat_loss_prob: float = 0.0
    """Per-heartbeat seeded drop probability (per-node splitmix64 stream)
    — the false-positive-rate knob for the detection experiment."""

    def __post_init__(self):
        if self.mode not in ("timeout", "phi"):
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.period <= 0:
            raise ValueError(f"detector period must be positive, got {self.period}")
        if self.timeout <= self.period:
            raise ValueError(
                f"detector timeout {self.timeout} must exceed the heartbeat "
                f"period {self.period}")
        if self.confirm_grace < 0:
            raise ValueError(
                f"confirm_grace must be >= 0, got {self.confirm_grace}")
        if self.phi_threshold <= 0:
            raise ValueError(
                f"phi_threshold must be positive, got {self.phi_threshold}")
        if self.heartbeat_bytes <= 0 or self.dissemination_bytes <= 0:
            raise ValueError("heartbeat/dissemination bytes must be positive")
        if not (0.0 <= self.heartbeat_loss_prob < 1.0):
            raise ValueError(
                f"heartbeat_loss_prob must be in [0, 1), got "
                f"{self.heartbeat_loss_prob}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of injected degradation.

    Pure data: nested frozen dataclasses and scalars only, so a plan is
    hashable, picklable (crosses ``run_points`` worker boundaries), and
    canonicalises field-by-field into the result-cache key — a degraded
    run can never collide with a healthy one.
    """

    brownouts: tuple[LinkBrownout, ...] = ()
    outages: tuple[NicOutage, ...] = ()
    stragglers: tuple[StragglerWindow, ...] = ()
    crashes: tuple[NodeCrash, ...] = ()

    get_fail_prob: float = 0.0
    """Per-get probability that a remote-domain RMA get fails (seeded draw
    per issue, not true randomness)."""

    seed: int = 0
    """Stream seed for the get-failure draws."""

    max_retries: int = 3
    """Failed gets are re-issued up to this many times with exponential
    backoff before falling back to the reliable blocking-copy protocol."""

    backoff_base: float = 1e-4
    backoff_factor: float = 2.0
    """Retry ``i`` sleeps ``backoff_base * backoff_factor**i`` simulated
    seconds before re-issuing — deterministic exponential backoff."""

    detect_timeout: float = 1e-4
    """Simulated seconds before an injected get failure is observable (the
    NIC/driver error-detection delay)."""

    get_timeout: Optional[float] = None
    """Optional per-wait bound: a robust wait treats a get still pending
    after this many simulated seconds as failed (None = wait forever)."""

    corruption_rate: float = 0.0
    """Per-get probability that a remote-domain RMA get delivers silently
    corrupted data (a seeded bit flip), detectable only by the ABFT
    checksum layer."""

    checkpoint_interval: int = 4
    """Tasks between in-simulation C-block checkpoints when a crash plan
    is active (lower = less re-execution after a crash, more put traffic)."""

    partitions: tuple[NetworkPartition, ...] = ()
    rejoins: tuple[NodeRejoin, ...] = ()

    detector: Optional[DetectorConfig] = None
    """None = oracle failure knowledge (exact PR 5 behaviour); a config
    replaces it with heartbeat-driven suspicion/confirmation."""

    watchdog_grace: Optional[float] = None
    """Arm the engine progress watchdog: a supervised wait that sees no
    simulation progress at all for this many simulated seconds raises a
    diagnosed StallError instead of hanging (None = no watchdog)."""

    def __post_init__(self):
        if not (0.0 <= self.get_fail_prob <= 1.0):
            raise ValueError(f"get_fail_prob must be in [0, 1], got {self.get_fail_prob}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.detect_timeout < 0:
            raise ValueError(f"detect_timeout must be >= 0, got {self.detect_timeout}")
        if self.get_timeout is not None and self.get_timeout <= 0:
            raise ValueError(f"get_timeout must be positive, got {self.get_timeout}")
        if not (0.0 <= self.corruption_rate <= 1.0):
            raise ValueError(
                f"corruption_rate must be in [0, 1], got {self.corruption_rate}")
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}")
        if self.watchdog_grace is not None and self.watchdog_grace <= 0:
            raise ValueError(
                f"watchdog_grace must be positive, got {self.watchdog_grace}")
        seen_crash_nodes = set()
        for c in self.crashes:
            if c.node in seen_crash_nodes:
                raise ValueError(f"node {c.node} crashes more than once")
            seen_crash_nodes.add(c.node)
        for p in self.partitions:
            clash = set(p.nodes) & seen_crash_nodes
            if clash:
                raise ValueError(
                    f"node(s) {sorted(clash)} appear in both a partition and "
                    f"a crash — partition models link loss without death")
        seen_rejoin_nodes = set()
        for rj in self.rejoins:
            if self.detector is None:
                raise ValueError(
                    "node rejoin requires a detector: the rejoin is observed "
                    "through resumed heartbeats and bumps the membership epoch")
            if rj.node in seen_rejoin_nodes:
                raise ValueError(f"node {rj.node} rejoins more than once")
            seen_rejoin_nodes.add(rj.node)
            match = [c for c in self.crashes if c.node == rj.node]
            if not match:
                raise ValueError(
                    f"rejoin node {rj.node} has no matching crash")
            crash = match[0]
            if crash.t_recover is not None:
                raise ValueError(
                    f"rejoin node {rj.node} also sets crash t_recover — "
                    f"rejoin supersedes it; drop t_recover")
            if rj.t_rejoin <= crash.t_fail:
                raise ValueError(
                    f"rejoin at {rj.t_rejoin} must follow the node's crash "
                    f"at {crash.t_fail}")
        if self.detector is not None:
            # The monitor hosts the detector; losing it would mean electing
            # a new one, which this model does not simulate.
            if 0 in seen_crash_nodes:
                raise ValueError(
                    "the monitor node (0) cannot crash while a detector is "
                    "configured")
            for p in self.partitions:
                if 0 in p.nodes:
                    raise ValueError(
                        "the monitor node (0) cannot be partitioned while a "
                        "detector is configured")
        # Straggler windows on one rank must not overlap: the piecewise
        # wall-time walk assumes at most one active slowdown per rank.
        by_rank: dict[int, list[StragglerWindow]] = {}
        for w in self.stragglers:
            by_rank.setdefault(w.rank, []).append(w)
        for rank, windows in by_rank.items():
            windows = sorted(windows, key=lambda w: w.t_start)
            for prev, nxt in zip(windows, windows[1:]):
                if nxt.t_start < prev.t_end:
                    raise ValueError(
                        f"straggler windows overlap on rank {rank}: "
                        f"[{prev.t_start}, {prev.t_end}] and "
                        f"[{nxt.t_start}, {nxt.t_end}]")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (not self.brownouts and not self.outages
                and not self.stragglers and not self.crashes
                and not self.partitions and not self.rejoins
                and self.detector is None
                and self.watchdog_grace is None
                and self.get_fail_prob == 0.0
                and self.corruption_rate == 0.0)

    def backoff(self, attempt: int) -> float:
        """Backoff delay before re-issue ``attempt`` (0-based)."""
        return self.backoff_base * self.backoff_factor ** attempt

    def describe(self) -> str:
        parts = []
        if self.brownouts:
            parts.append(f"{len(self.brownouts)} brownout(s)")
        if self.outages:
            parts.append(f"{len(self.outages)} outage(s)")
        if self.stragglers:
            parts.append(f"{len(self.stragglers)} straggler(s)")
        if self.crashes:
            parts.append(f"{len(self.crashes)} crash(es)")
        if self.partitions:
            parts.append(f"{len(self.partitions)} partition(s)")
        if self.rejoins:
            parts.append(f"{len(self.rejoins)} rejoin(s)")
        if self.detector is not None:
            parts.append(f"detector={self.detector.mode}")
        if self.watchdog_grace is not None:
            parts.append(f"watchdog={self.watchdog_grace:g}s")
        if self.get_fail_prob > 0:
            parts.append(f"get_fail_prob={self.get_fail_prob:g}")
        if self.corruption_rate > 0:
            parts.append(f"corruption_rate={self.corruption_rate:g}")
        return ", ".join(parts) if parts else "no faults"

    # -- JSON round-trip (--fault-plan FILE) -------------------------------
    def to_json_dict(self) -> dict:
        return {
            "brownouts": [dataclasses.asdict(b) for b in self.brownouts],
            "outages": [dataclasses.asdict(o) for o in self.outages],
            "stragglers": [dataclasses.asdict(s) for s in self.stragglers],
            "crashes": [dataclasses.asdict(c) for c in self.crashes],
            "partitions": [{**dataclasses.asdict(p), "nodes": list(p.nodes)}
                           for p in self.partitions],
            "rejoins": [dataclasses.asdict(rj) for rj in self.rejoins],
            "detector": (None if self.detector is None
                         else dataclasses.asdict(self.detector)),
            "watchdog_grace": self.watchdog_grace,
            "get_fail_prob": self.get_fail_prob,
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "detect_timeout": self.detect_timeout,
            "get_timeout": self.get_timeout,
            "corruption_rate": self.corruption_rate,
            "checkpoint_interval": self.checkpoint_interval,
        }

    @staticmethod
    def _nested(cls_, blob, what: str):
        """Build a nested plan dataclass, rejecting unknown keys clearly
        (a bare ``cls(**blob)`` would raise an opaque TypeError)."""
        if not isinstance(blob, dict):
            raise ValueError(f"a {what} must be a JSON object, got "
                             f"{type(blob).__name__}")
        known = {f.name for f in dataclasses.fields(cls_)}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
        kwargs = dict(blob)
        if cls_ is NetworkPartition and "nodes" in kwargs:
            if not isinstance(kwargs["nodes"], (list, tuple)):
                raise ValueError(f"partition nodes must be a list, got "
                                 f"{type(kwargs['nodes']).__name__}")
            kwargs["nodes"] = tuple(kwargs["nodes"])
        return cls_(**kwargs)

    @classmethod
    def from_json_dict(cls, blob: dict) -> "FaultPlan":
        if not isinstance(blob, dict):
            raise ValueError("a fault plan must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        kwargs = dict(blob)
        kwargs["brownouts"] = tuple(
            cls._nested(LinkBrownout, b, "brownout")
            for b in blob.get("brownouts", ()))
        kwargs["outages"] = tuple(
            cls._nested(NicOutage, o, "outage")
            for o in blob.get("outages", ()))
        kwargs["stragglers"] = tuple(
            cls._nested(StragglerWindow, s, "straggler")
            for s in blob.get("stragglers", ()))
        kwargs["crashes"] = tuple(
            cls._nested(NodeCrash, c, "crash")
            for c in blob.get("crashes", ()))
        kwargs["partitions"] = tuple(
            cls._nested(NetworkPartition, p, "partition")
            for p in blob.get("partitions", ()))
        kwargs["rejoins"] = tuple(
            cls._nested(NodeRejoin, rj, "rejoin")
            for rj in blob.get("rejoins", ()))
        det = blob.get("detector")
        kwargs["detector"] = (None if det is None
                              else cls._nested(DetectorConfig, det, "detector"))
        return cls(**kwargs)

    def save(self, path: os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: os.PathLike) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def standard_degraded_plan(horizon: float, seed: int = 0) -> "FaultPlan":
    """The resilience experiment's canonical brownout+straggler plan.

    ``horizon`` is the slowest algorithm's *healthy* completion time; the
    windows are fractions of it so one plan stresses every algorithm over
    comparable phases of its run.  The brownout deliberately outlives the
    horizon: the degraded runs finish later than the healthy ones, and a
    window that lapsed mid-run would dilute the comparison.  ``seed``
    jitters the window edges (a few percent) so distinct ``--fault-seed``
    values produce visibly distinct — but equally deterministic — plans.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")

    def jit(i: int, width: float = 0.06) -> float:
        return 1.0 + width * (unit_uniform(seed, 0x5EED + i) - 0.5)

    return FaultPlan(
        brownouts=(
            LinkBrownout(node=0, t_start=0.05 * horizon * jit(0),
                         t_end=4.0 * horizon, factor=0.25 * jit(1)),
        ),
        outages=(
            NicOutage(node=1, t_start=0.20 * horizon * jit(2),
                      t_end=0.35 * horizon * jit(3), residual=1e-3),
        ),
        stragglers=(
            StragglerWindow(rank=3, t_start=0.10 * horizon * jit(4),
                            t_end=0.80 * horizon * jit(5),
                            slowdown=1.3 * jit(6)),
        ),
        get_fail_prob=0.01,
        seed=seed,
    )


class FaultInjector:
    """Live plan application: window processes + seeded draws + dilation.

    Created by :func:`install_faults` (one per :class:`Machine`), which
    also sets ``machine.faults`` — the flag every hook in the comm and
    compute layers checks before deviating from the healthy code path.
    """

    def __init__(self, machine: "Machine", plan: FaultPlan):
        nnodes = len(machine.nodes)
        for b in plan.brownouts:
            if not (0 <= b.node < nnodes):
                raise ValueError(f"brownout node {b.node} out of range [0, {nnodes})")
        for o in plan.outages:
            if not (0 <= o.node < nnodes):
                raise ValueError(f"outage node {o.node} out of range [0, {nnodes})")
        for c in plan.crashes:
            if not (0 <= c.node < nnodes):
                raise ValueError(f"crash node {c.node} out of range [0, {nnodes})")
        for p in plan.partitions:
            for node in p.nodes:
                if not (0 <= node < nnodes):
                    raise ValueError(
                        f"partition node {node} out of range [0, {nnodes})")
            if len(set(p.nodes)) >= nnodes:
                raise ValueError("a partition must leave at least one node "
                                 "on the majority side")
        for rj in plan.rejoins:
            if not (0 <= rj.node < nnodes):
                raise ValueError(f"rejoin node {rj.node} out of range [0, {nnodes})")
        for s in plan.stragglers:
            machine._check_rank(s.rank)
        if plan.crashes and len({c.node for c in plan.crashes}) >= nnodes:
            raise ValueError("a crash plan must leave at least one node alive")
        self.machine = machine
        self.plan = plan
        # Detector bookkeeping (monitor side), populated when a detector
        # is configured: last heartbeat-arrival instant and a short window
        # of recent inter-arrival intervals per node (for phi mode), plus
        # the instant each current suspicion was raised.
        self._hb_last: dict[int, float] = {}
        self._hb_intervals: dict[int, list[float]] = {}
        self._suspected_at: dict[int, float] = {}
        # Per-(kind, rank) draw counters: each rank consumes its own
        # splitmix64 stream, so adding draws on one rank never perturbs
        # another rank's failure sequence (stable under --jobs reordering
        # and under topology changes that shift issue interleaving).
        self._draws: dict[tuple[int, int], int] = {}
        # Window bookkeeping: base bandwidth captured at first touch, plus
        # the multiset of active factors per link.  Restoring recomputes
        # base * prod(active) from scratch, so when the last window closes
        # the link is back at its *exact* original bandwidth (no drift from
        # repeated multiply/divide).
        self._base_bw: dict["Link", float] = {}
        self._active: dict["Link", list[float]] = {}
        self._straggle: dict[int, tuple[StragglerWindow, ...]] = {}
        for w in plan.stragglers:
            self._straggle.setdefault(w.rank, ())
        for rank in self._straggle:
            self._straggle[rank] = tuple(sorted(
                (w for w in plan.stragglers if w.rank == rank),
                key=lambda w: w.t_start))

    # -- injector processes ------------------------------------------------
    def start(self) -> list[Process]:
        """Spawn one engine process per fault window; returns them so the
        run's supervisor can interrupt leftovers when the last rank ends."""
        engine = self.machine.engine
        procs = []
        for i, b in enumerate(self.plan.brownouts):
            links = self._nic_links(b.node, b.direction)
            procs.append(engine.spawn(
                self._window(links, b.t_start, b.t_end, b.factor, "brownout"),
                name=f"fault-brownout{i}@node{b.node}"))
        for i, o in enumerate(self.plan.outages):
            links = self._nic_links(o.node, "both")
            procs.append(engine.spawn(
                self._window(links, o.t_start, o.t_end, o.residual, "outage"),
                name=f"fault-outage{i}@node{o.node}"))
        for i, c in enumerate(self.plan.crashes):
            procs.append(engine.spawn(
                self._crash(c), name=f"fault-crash{i}@node{c.node}"))
        for i, p in enumerate(self.plan.partitions):
            procs.append(engine.spawn(
                self._partition(p), name=f"fault-partition{i}"))
        for i, rj in enumerate(self.plan.rejoins):
            procs.append(engine.spawn(
                self._rejoin(rj), name=f"fault-rejoin{i}@node{rj.node}"))
        if self.plan.detector is not None:
            monitor = self.machine.membership.monitor_node
            for node in range(len(self.machine.nodes)):
                if node == monitor:
                    continue
                procs.append(engine.spawn(
                    self._heartbeat(node), name=f"fault-heartbeat@node{node}"))
            procs.append(engine.spawn(self._monitor(), name="fault-monitor"))
        return procs

    @property
    def has_crashes(self) -> bool:
        return bool(self.plan.crashes)

    def _crash(self, crash: NodeCrash):
        engine = self.machine.engine
        try:
            yield engine.timeout(crash.t_fail - engine.now)
        except Interrupt:
            return  # run ended before the node died
        self.machine.kill_node(crash.node, residual=crash.residual)
        self.machine.tracer.bump("fault:node_crash")
        if crash.t_recover is None:
            return
        try:
            yield engine.timeout(crash.t_recover - crash.t_fail)
        except Interrupt:
            return  # run ended before recovery; the node stays dead
        self.machine.revive_node(crash.node)
        self.machine.tracer.bump("fault:node_recover")

    def _partition(self, part: NetworkPartition):
        """Cut the listed nodes' NICs to residual; heal on schedule.

        Reuses the multiplicative window machinery (`_apply`/`_clear`), so
        a partition composes with brownouts/outages and restores exact
        base bandwidth when the last window closes.  Never touches
        ``dead_nodes`` or the crash listeners: nothing is swept, ranks
        keep computing, and in-flight transfers crawl through the
        residual until heal.
        """
        engine = self.machine.engine
        links: list["Link"] = []
        for node in part.nodes:
            links.extend(self._nic_links(node, "both"))
        try:
            yield engine.timeout(part.t_start - engine.now)
        except Interrupt:
            return  # run ended before the cut
        for link in links:
            self._apply(link, part.residual)
        self.machine.tracer.bump("fault:partition")
        healed = False
        try:
            yield engine.timeout(part.t_heal - part.t_start)
            healed = True
        except Interrupt:
            pass  # run ended mid-partition; still restore below
        finally:
            for link in links:
                self._clear(link, part.residual)
        if healed:
            self.machine.tracer.bump("fault:partition_healed")

    def _rejoin(self, rejoin: NodeRejoin):
        """Bring a crashed node's hardware back at ``t_rejoin``.

        Only the links revive here; the membership transition (and its
        epoch bump) happens when the monitor hears the node's *resumed
        heartbeats* — rejoin is detected the same imperfect way death is.
        """
        engine = self.machine.engine
        try:
            yield engine.timeout(rejoin.t_rejoin - engine.now)
        except Interrupt:
            return  # run ended before the rejoin
        if not self.machine.node_is_dead(rejoin.node):
            return  # the crash never fired (run ended first)
        self.machine.revive_node(rejoin.node)
        self.machine.tracer.bump("fault:node_recover")

    # -- failure detector ----------------------------------------------------
    def _hb_path(self, src_node: int, dst_node: int):
        """The link path a heartbeat/dissemination flow crosses; flows go
        leader-to-leader (first rank of each node, the leader tier)."""
        cpn = self.machine.spec.cpus_per_node
        return self.machine.network_path(src_node * cpn, dst_node * cpn)

    def _heartbeat(self, node: int):
        """Daemon: ``node``'s leader sends a heartbeat flow every period.

        Fire-and-forget — the sender never blocks on delivery, so a
        partitioned node keeps emitting heartbeats that crawl through the
        residual bandwidth and arrive (very) late.  Flows bypass
        ``Machine.transfer`` so they never feed the progress watchdog: a
        stalled computation with a healthy heartbeat plane is still a
        stall.
        """
        machine = self.machine
        det = self.plan.detector
        monitor = machine.membership.monitor_node
        lat = machine.spec.network.latency
        while True:
            try:
                yield machine.engine.timeout(det.period)
            except Interrupt:
                return  # run ended
            if machine.node_is_dead(node):
                continue  # dead hardware is silent (resumes after rejoin)
            if self._draw(self._HBLOSS_KIND, node, det.heartbeat_loss_prob):
                machine.tracer.bump("fault:heartbeat_lost")
                continue
            ev = machine.net.transfer(
                det.heartbeat_bytes, self._hb_path(node, monitor),
                latency=lat, label=f"heartbeat node{node}")
            ev.add_callback(
                lambda _ev, node=node: self._hb_arrived(node)
                if _ev.ok else None)

    def _hb_arrived(self, node: int) -> None:
        """Monitor-side heartbeat arrival: record it, undo false states."""
        machine = self.machine
        membership = machine.membership
        now = machine.engine.now
        last = self._hb_last.get(node)
        if last is not None:
            window = self._hb_intervals.setdefault(node, [])
            window.append(now - last)
            if len(window) > 16:
                del window[0]
        self._hb_last[node] = now
        if membership.clear_suspicion(node):
            # The node spoke while suspected: the suspicion was false.
            self._suspected_at.pop(node, None)
            self._disseminate()
        elif membership.rejoin(node):
            # A confirmed-dead node spoke: it is back (really rejoined, or
            # falsely confirmed and now healed) — fresh capacity, new epoch.
            self._disseminate()

    def _silence_bound(self, node: int) -> float:
        """Silence (seconds since last heartbeat) that triggers suspicion."""
        det = self.plan.detector
        if det.mode == "timeout":
            return det.timeout
        # Phi-accrual with an exponential inter-arrival model:
        # phi(t) = t_silence / (mean_interarrival * ln 10); suspicion at
        # phi >= threshold.  Congestion that slows everyone's heartbeats
        # grows the observed mean and raises the bound instead of firing.
        window = self._hb_intervals.get(node)
        mean = (sum(window) / len(window)) if window else det.period
        return max(det.phi_threshold * mean * math.log(10.0),
                   2.0 * det.period)

    def _monitor(self):
        """Daemon: the node-0 leader's detector sweep, one pass per period.

        alive -> suspected when silence exceeds the detector bound;
        suspected -> confirmed-dead after ``confirm_grace`` more seconds
        without an arrival (arrivals clear suspicion asynchronously via
        :meth:`_hb_arrived`).  Every transition re-disseminates the map.
        """
        machine = self.machine
        membership = machine.membership
        det = self.plan.detector
        monitor = membership.monitor_node
        engine = machine.engine
        while True:
            try:
                yield engine.timeout(det.period)
            except Interrupt:
                return  # run ended
            now = engine.now
            changed = False
            for node in range(len(machine.nodes)):
                if node == monitor:
                    continue
                silence = now - self._hb_last.get(node, 0.0)
                state = membership.state.get(node)
                if state == ALIVE:
                    if silence > self._silence_bound(node):
                        if membership.suspect(node):
                            self._suspected_at[node] = now
                            changed = True
                elif state == SUSPECTED:
                    held = now - self._suspected_at.get(node, now)
                    if held >= det.confirm_grace:
                        if membership.confirm(node):
                            self._suspected_at.pop(node, None)
                            # Act on the belief (sweep in-flight work) only
                            # if the node actually died — see
                            # Machine.notify_confirmed.
                            machine.notify_confirmed(node)
                            changed = True
            if changed:
                self._disseminate()

    def _disseminate(self) -> None:
        """Push the monitor's membership map to every node leader.

        The monitor's own view updates instantly; every other leader gets
        a real flow, so views lag by network latency (much more for a
        partitioned observer) and ranks disagree transiently.  Delivery
        is version-monotone, so reordered updates cannot roll back.
        """
        machine = self.machine
        membership = machine.membership
        det = self.plan.detector
        monitor = membership.monitor_node
        payload = membership.snapshot()
        membership.deliver(monitor, payload)
        lat = machine.spec.network.latency
        for node in range(len(machine.nodes)):
            if node == monitor or machine.node_is_dead(node):
                continue
            ev = machine.net.transfer(
                det.dissemination_bytes, self._hb_path(monitor, node),
                latency=lat, label=f"membership node{node}")
            ev.add_callback(
                lambda _ev, node=node, payload=payload:
                membership.deliver(node, payload) if _ev.ok else None)

    def _nic_links(self, node: int, direction: str) -> list["Link"]:
        n = self.machine.nodes[node]
        if direction == "out":
            return [n.nic_out]
        if direction == "in":
            return [n.nic_in]
        return [n.nic_out, n.nic_in]

    def _window(self, links, t_start: float, t_end: float, factor: float,
                kind: str):
        engine = self.machine.engine
        try:
            yield engine.timeout(t_start - engine.now)
        except Interrupt:
            return  # run ended before the window opened
        for link in links:
            self._apply(link, factor)
        self.machine.tracer.bump(f"fault:{kind}")
        try:
            yield engine.timeout(t_end - t_start)
        except Interrupt:
            pass  # run ended mid-window; still restore below
        finally:
            for link in links:
                self._clear(link, factor)

    def _apply(self, link: "Link", factor: float) -> None:
        base = self._base_bw.setdefault(link, link.bandwidth)
        active = self._active.setdefault(link, [])
        active.append(factor)
        bw = base
        for f in active:
            bw *= f
        self.machine.net.set_bandwidth(link, bw)

    def _clear(self, link: "Link", factor: float) -> None:
        active = self._active.get(link, [])
        if factor in active:
            active.remove(factor)
        bw = self._base_bw.get(link, link.bandwidth)
        for f in active:
            bw *= f
        self.machine.net.set_bandwidth(link, bw)

    # -- seeded get failures & corruptions ---------------------------------
    _GET_FAIL_KIND = 0xFA11
    _CORRUPT_KIND = 0xC0DE
    _HBLOSS_KIND = 0x4EA7  # heartbeat-drop stream, keyed per *node*

    def _draw(self, kind: int, rank: int, p: float) -> bool:
        """One seeded draw from ``rank``'s private ``kind`` stream.

        The counter always advances (even when ``p`` is zero) so the
        stream position is a pure function of how many draws this rank
        made, never of the probability knobs.  The stream seed folds
        ``(kind, rank)`` into the plan seed with splitmix64, so streams
        are mutually independent: draws on one rank cannot perturb
        another rank's sequence.
        """
        key = (kind, rank)
        n = self._draws.get(key, 0)
        self._draws[key] = n + 1
        if p <= 0.0:
            return False
        stream = _splitmix64(
            (self.plan.seed & _MASK64) ^ _splitmix64((kind << 32) | (rank & 0xFFFFFFFF)))
        return unit_uniform(stream, n) < p

    def draw_get_failure(self, rank: int) -> bool:
        """Seeded per-``rank`` draw for one failable get issue."""
        return self._draw(self._GET_FAIL_KIND, rank, self.plan.get_fail_prob)

    def draw_corruption(self, rank: int) -> bool:
        """Seeded per-``rank`` draw: does this get deliver flipped bits?"""
        return self._draw(self._CORRUPT_KIND, rank, self.plan.corruption_rate)

    # -- straggler dilation -------------------------------------------------
    def wall_time(self, rank: int, start: float, work: float) -> float:
        """Wall seconds ``rank`` needs for ``work`` CPU-seconds from ``start``.

        Walks the rank's (non-overlapping, sorted) straggler windows: work
        inside a window progresses at ``1/slowdown``.  The plan is static,
        so this closed-form walk is equivalent to rescaling the busy
        timeout at every window edge — with one engine event instead of
        one per edge.
        """
        windows = self._straggle.get(rank)
        if not windows or work <= 0.0:
            return work
        t = start
        remaining = work
        wall = 0.0
        for w in windows:
            if remaining <= 0.0:
                break
            if t < w.t_start:
                healthy = min(remaining, w.t_start - t)
                wall += healthy
                t += healthy
                remaining -= healthy
                if remaining <= 0.0:
                    break
            if t < w.t_end:
                # CPU-work achievable before the window closes.
                cap = (w.t_end - t) / w.slowdown
                done = min(remaining, cap)
                wall += done * w.slowdown
                t += done * w.slowdown
                remaining -= done
        return wall + remaining


def install_faults(machine: "Machine", plan: FaultPlan) -> FaultInjector:
    """Attach a plan to a machine; hooks activate via ``machine.faults``.

    A detector config also installs a :class:`~repro.sim.membership.Membership`
    on the machine (switching every failure-knowledge query from the
    oracle to heartbeat-driven views), and ``watchdog_grace`` arms the
    engine :class:`~repro.sim.engine.ProgressWatchdog`.
    """
    if machine.faults is not None:
        raise ValueError("machine already has a fault plan installed")
    injector = FaultInjector(machine, plan)
    machine.faults = injector
    if plan.detector is not None:
        machine.membership = Membership(machine)
    if plan.watchdog_grace is not None:
        machine.watchdog = ProgressWatchdog(
            machine.engine, plan.watchdog_grace, tracer=machine.tracer)
    return injector
