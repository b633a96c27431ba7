"""Hierarchical two-level SRUMMA (after arXiv 1306.4161).

The flat algorithms treat every rank as a grid cell, so at thousands of
ranks each NIC serves ``O(sqrt(P))`` partners and every panel crosses the
network once *per rank*.  The hierarchical variant matches the machine's
two communication tiers instead:

**Inter-node tier** — one *leader* rank per shared-memory domain joins a
``pn x qn`` grid of domains.  A, B, and C are block-distributed over that
grid in domain-sized blocks owned by the leaders, and the leaders run a
SUMMA pass over k-panels: the owner column of an A panel broadcasts it
along each domain row, the owner row of a B panel along each domain
column.  Only leaders touch the NICs, so per-node network volume scales
with the *domain* grid, not the rank grid.

**Intra-node tier** — every rank of a domain (leader included) computes an
``m``-slice of its domain's C block directly against the leader's panel
buffers through load/store (the SRUMMA cluster-flavour rule: same-domain
operands are views, not copies).  A dissemination barrier over the domain
ranks fences each panel: one before the slice products (panel data must
have landed) and one after (the leader must not overwrite a buffer a
sibling is still reading).

Payloads follow the repo convention: :func:`hierarchical_multiply` with
``payload="real"`` moves numpy data and verifies against the numpy
product; ``payload="synthetic"`` runs the identical schedule timing-only
(the large-rank benchmark path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..baselines.summa import k_panels
from ..comm.base import RankContext
from ..distarray.distribution import Block2D, choose_grid
from ..machines.spec import MachineSpec

__all__ = ["HierarchicalResult", "hierarchical_rank", "hierarchical_multiply",
           "default_kb_nodes"]


def default_kb_nodes(k: int, n_domains: int) -> int:
    """Inter-node panel width: the runner's empirical rule applied to the
    *domain* grid (panels per leader block, not per rank block)."""
    q = max(1, int(math.isqrt(n_domains)))
    kb = max(32, min(256, k // (2 * q)))
    return max(1, min(kb, k))


@dataclass
class HierarchicalResult:
    elapsed: float
    gflops: float
    m: int
    n: int
    k: int
    nranks: int
    node_grid: tuple[int, int]
    kb: int
    run: object
    c: Optional[np.ndarray] = None
    max_error: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<HierarchicalResult {self.m}x{self.n}x{self.k} "
                f"P={self.nranks} grid={self.node_grid} "
                f"{self.gflops:.2f} GFLOP/s>")


def hierarchical_rank(ctx: RankContext, dist_a: Block2D, dist_b: Block2D,
                      dist_c: Block2D, kb: int, leaders: list[int],
                      panels_shared: dict,
                      a_local: Optional[np.ndarray],
                      b_local: Optional[np.ndarray],
                      c_local: Optional[np.ndarray],
                      real: bool = True) -> Generator:
    """Per-rank two-level SRUMMA (generator).

    ``dist_*`` are *domain-grid* distributions (one block per shared-memory
    domain, owned by that domain's leader).  ``leaders`` maps domain id ->
    leader rank.  ``panels_shared`` is the cross-rank panel exchange area:
    leaders publish their received (a_pan, b_pan) buffers per domain so
    siblings can slice them zero-copy — the simulated load/store access.
    Pass ``real=False`` (and None buffers) for a synthetic run; siblings
    always receive None buffers, so payload mode must be explicit.
    """
    machine = ctx.machine
    domain = machine.domain_of(ctx.rank)
    pn, qn = dist_c.p, dist_c.q
    if domain >= pn * qn:
        return None
    di, dj = dist_c.coords_of(domain)
    leader = leaders[domain]
    is_leader = ctx.rank == leader

    # Leader row/column groups of the domain grid (inter-node tier).
    row_group = [leaders[dist_c.rank_of(di, j)] for j in range(qn)]
    col_group = [leaders[dist_c.rank_of(i, dj)] for i in range(pn)]
    # Every rank of this domain (intra-node tier fences).
    domain_ranks = machine.ranks_in_domain(domain)

    r0, r1 = dist_c.row_range(di)
    c0, c1 = dist_c.col_range(dj)
    node_m = r1 - r0
    node_n = c1 - c0

    # Row-split of the domain's C block among its ranks: rank at position
    # ``pos`` of the domain computes rows [lo, hi) of the node block.
    pos = domain_ranks.index(ctx.rank)
    nloc = len(domain_ranks)
    lo = pos * node_m // nloc
    hi = (pos + 1) * node_m // nloc
    my_m = hi - lo
    penalty = (not is_leader
               and ctx.shmem.direct_access_penalty(leader))

    for t, (k_lo, k_hi) in enumerate(k_panels(dist_a, dist_b, kb)):
        kk = k_hi - k_lo
        if is_leader:
            # --- inter-node tier: leader SUMMA broadcasts -----------------
            a_owner_col = dist_a.owner_of_col(k_lo)
            a_root = leaders[dist_a.rank_of(di, a_owner_col)]
            b_owner_row = dist_b.owner_of_row(k_lo)
            b_root = leaders[dist_b.rank_of(b_owner_row, dj)]
            if real:
                a_pan = np.empty((node_m, kk))
                if ctx.rank == a_root and node_m:
                    A0, _ = dist_a.col_range(a_owner_col)
                    a_pan[...] = a_local[:, k_lo - A0:k_hi - A0]
                b_pan = np.empty((kk, node_n))
                if ctx.rank == b_root and node_n:
                    B0, _ = dist_b.row_range(b_owner_row)
                    b_pan[...] = b_local[k_lo - B0:k_hi - B0, :]
                if node_m:
                    yield from ctx.mpi.bcast(a_pan, root=a_root,
                                             group=row_group,
                                             tag=5_000_000 + 2 * t)
                if node_n:
                    yield from ctx.mpi.bcast(b_pan, root=b_root,
                                             group=col_group,
                                             tag=5_000_001 + 2 * t)
                panels_shared[domain] = (a_pan, b_pan)
            else:
                if node_m:
                    yield from ctx.mpi.bcast(None, root=a_root,
                                             group=row_group,
                                             tag=5_000_000 + 2 * t,
                                             nbytes=node_m * kk * 8.0)
                if node_n:
                    yield from ctx.mpi.bcast(None, root=b_root,
                                             group=col_group,
                                             tag=5_000_001 + 2 * t,
                                             nbytes=kk * node_n * 8.0)
        # --- intra-node tier: fence, slice products, fence ----------------
        # First fence: the leader's panels have landed before any sibling
        # loads from them.
        yield from ctx.mpi.barrier(group=domain_ranks, tag=6_000_000 + 2 * t)
        if my_m and node_n and kk:
            if real:
                a_pan, b_pan = panels_shared[domain]
                c_sub = c_local if is_leader else None
                if c_sub is None:
                    c_sub = panels_shared[("c", domain)]
                yield from ctx.dgemm(a_pan[lo:hi, :], b_pan,
                                     c_sub[lo:hi, :],
                                     remote_uncached=penalty)
            else:
                yield from ctx.dgemm_flops(my_m, node_n, kk,
                                           remote_uncached=penalty)
        # Second fence: nobody still reads the buffers the leader is about
        # to refill with panel t+1.
        yield from ctx.mpi.barrier(group=domain_ranks, tag=6_000_001 + 2 * t)
    return None


def hierarchical_multiply(spec: MachineSpec, nranks: int, m: int, n: int,
                          k: int, kb: Optional[int] = None,
                          payload: str = "real", verify: bool = True,
                          seed: int = 0, interference=None, faults=None
                          ) -> HierarchicalResult:
    """Run ``C = A @ B`` with the two-level hierarchical SRUMMA."""
    from ..comm.base import run_parallel
    from ..sim.cluster import Machine

    if payload not in ("real", "synthetic"):
        raise ValueError(f"payload must be 'real' or 'synthetic', not {payload!r}")
    real = payload == "real"

    # The domain layout comes from the machine, so build it first and run
    # the ranks on the same instance.
    machine = Machine(spec, nranks)
    n_domains = machine.n_domains
    pn, qn = choose_grid(n_domains)
    dist_a = Block2D(m, k, pn, qn)
    dist_b = Block2D(k, n, pn, qn)
    dist_c = Block2D(m, n, pn, qn)
    if kb is None:
        kb = default_kb_nodes(k, n_domains)
    if kb < 1:
        raise ValueError(f"panel width kb must be >= 1, got {kb}")
    leaders = [machine.domain_leader(d) for d in range(n_domains)]

    if real:
        rng = np.random.default_rng(seed)
        a_ref = rng.standard_normal((m, k))
        b_ref = rng.standard_normal((k, n))

    panels_shared: dict = {}
    c_blocks: dict[int, np.ndarray] = {}
    spans: dict[int, tuple[float, float]] = {}

    def rank_fn(ctx):
        a_loc = b_loc = c_loc = None
        domain = ctx.machine.domain_of(ctx.rank)
        if real and domain < pn * qn and ctx.rank == leaders[domain]:
            di, dj = dist_c.coords_of(domain)
            a_loc = a_ref[dist_a.block_slices(di, dj)].copy()
            b_loc = b_ref[dist_b.block_slices(di, dj)].copy()
            c_loc = np.zeros(dist_c.block_shape(di, dj))
            c_blocks[domain] = c_loc
            # Siblings write their C row-slices through load/store into
            # the leader's block.
            panels_shared[("c", domain)] = c_loc
        yield from ctx.mpi.barrier()
        t0 = ctx.now
        yield from hierarchical_rank(ctx, dist_a, dist_b, dist_c, kb,
                                     leaders, panels_shared,
                                     a_loc, b_loc, c_loc, real=real)
        spans[ctx.rank] = (t0, ctx.now)

    run = run_parallel(machine, None, rank_fn, interference=interference,
                       faults=faults)
    elapsed = (max(sp[1] for sp in spans.values())
               - min(sp[0] for sp in spans.values()))
    gflops = 2.0 * m * n * k / elapsed / 1e9 if elapsed > 0 else float("inf")
    result = HierarchicalResult(
        elapsed=elapsed, gflops=gflops, m=m, n=n, k=k, nranks=nranks,
        node_grid=(pn, qn), kb=kb, run=run)
    if real:
        c_full = np.zeros((m, n))
        for domain, blk in c_blocks.items():
            di, dj = dist_c.coords_of(domain)
            c_full[dist_c.block_slices(di, dj)] = blk
        result.c = c_full
        if verify:
            expected = a_ref @ b_ref
            result.max_error = float(np.max(np.abs(c_full - expected)))
            tol = 1e-8 * max(1, k)
            if result.max_error > tol:
                raise AssertionError(
                    f"hierarchical result wrong: "
                    f"max|err|={result.max_error:.3e} > tol={tol:.3e} "
                    f"(m={m}, n={n}, k={k}, node grid={pn}x{qn})")
    return result
