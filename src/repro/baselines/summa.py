"""SUMMA (van de Geijn & Watts 1997) — the algorithm inside pdgemm.

``C (m x n)`` is block-distributed on a ``p x q`` grid.  The inner dimension
is processed in panels of width ``kb``:

- the grid *column* owning panel ``t`` of A broadcasts its local
  ``(local_m x kb)`` piece along each process row;
- the grid *row* owning panel ``t`` of B broadcasts its ``(kb x local_n)``
  piece along each process column;
- every rank runs the rank-``kb`` update ``C_loc += A_pan @ B_pan``.

All data movement is two-sided MPI broadcast — the sender-receiver
synchronisation SRUMMA's one-sided gets avoid; with panels above the eager
threshold each broadcast hop is a rendezvous (no overlap).

This module implements the plain block-distributed variant used for the
SUMMA-vs-SRUMMA comparisons; the block-cyclic production variant is
:mod:`repro.baselines.pdgemm`.  Untransposed case only (the paper's SUMMA
comparisons are untransposed; transpose handling lives in pdgemm via
redistribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..comm.base import RankContext
from ..distarray.distribution import Block2D, choose_grid
from ..machines.spec import MachineSpec

__all__ = ["summa_rank", "summa_multiply", "SummaResult", "k_panels"]

DEFAULT_KB = 64


@dataclass
class SummaResult:
    elapsed: float
    gflops: float
    m: int
    n: int
    k: int
    nranks: int
    grid: tuple[int, int]
    kb: int
    run: object
    c: Optional[np.ndarray] = None
    max_error: Optional[float] = None


def k_panels(dist_a: Block2D, dist_b: Block2D, kb: int) -> list[tuple[int, int]]:
    """Panel intervals: ownership-aligned cuts subdivided to width <= kb."""
    cuts = sorted(set(dist_a.col_breakpoints()) | set(dist_b.row_breakpoints()))
    panels = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        start = lo
        while start < hi:
            stop = min(start + kb, hi)
            panels.append((start, stop))
            start = stop
    return panels


def summa_rank(ctx: RankContext, dist_a: Block2D, dist_b: Block2D,
               dist_c: Block2D, kb: int,
               a_local: Optional[np.ndarray], b_local: Optional[np.ndarray],
               c_local: Optional[np.ndarray]) -> Generator:
    """Per-rank SUMMA.  Pass None locals for a synthetic run."""
    p, q = dist_c.p, dist_c.q
    if ctx.rank >= p * q:
        return None
    pi, pj = dist_c.coords_of(ctx.rank)
    real = c_local is not None
    r0, r1 = dist_c.row_range(pi)
    c0, c1 = dist_c.col_range(pj)
    my_m = r1 - r0
    my_n = c1 - c0
    row_group = [dist_c.rank_of(pi, j) for j in range(q)]
    col_group = [dist_c.rank_of(i, pj) for i in range(p)]

    for t, (k_lo, k_hi) in enumerate(k_panels(dist_a, dist_b, kb)):
        kk = k_hi - k_lo
        # --- A panel: owner column broadcasts along each row -----------------
        a_owner_col = dist_a.owner_of_col(k_lo)
        a_root = dist_a.rank_of(pi, a_owner_col)
        if real:
            a_pan = np.empty((my_m, kk))
            if ctx.rank == a_root and my_m:
                A0, _ = dist_a.col_range(a_owner_col)
                a_pan[...] = a_local[:, k_lo - A0:k_hi - A0]
            if my_m:
                yield from ctx.mpi.bcast(a_pan, root=a_root, group=row_group,
                                         tag=3_000_000 + 2 * t)
        else:
            if my_m:
                yield from ctx.mpi.bcast(None, root=a_root, group=row_group,
                                         tag=3_000_000 + 2 * t,
                                         nbytes=my_m * kk * 8.0)
        # --- B panel: owner row broadcasts along each column -----------------
        b_owner_row = dist_b.owner_of_row(k_lo)
        b_root = dist_b.rank_of(b_owner_row, pj)
        if real:
            b_pan = np.empty((kk, my_n))
            if ctx.rank == b_root and my_n:
                B0, _ = dist_b.row_range(b_owner_row)
                b_pan[...] = b_local[k_lo - B0:k_hi - B0, :]
            if my_n:
                yield from ctx.mpi.bcast(b_pan, root=b_root, group=col_group,
                                         tag=3_000_001 + 2 * t)
        else:
            if my_n:
                yield from ctx.mpi.bcast(None, root=b_root, group=col_group,
                                         tag=3_000_001 + 2 * t,
                                         nbytes=kk * my_n * 8.0)
        # --- local rank-kb update ------------------------------------------------
        if my_m and my_n:
            if real:
                yield from ctx.dgemm(a_pan, b_pan, c_local)
            else:
                yield from ctx.dgemm_flops(my_m, my_n, kk)
    return None


def summa_multiply(spec: MachineSpec, nranks: int, m: int, n: int, k: int,
                   p: Optional[int] = None, q: Optional[int] = None,
                   kb: int = DEFAULT_KB, payload: str = "real",
                   verify: bool = True, seed: int = 0,
                   interference=None, faults=None) -> SummaResult:
    """Run ``C = A @ B`` with SUMMA on a simulated machine."""
    from ..comm.base import run_parallel

    if payload not in ("real", "synthetic"):
        raise ValueError(f"payload must be 'real' or 'synthetic', not {payload!r}")
    if kb < 1:
        raise ValueError(f"panel width kb must be >= 1, got {kb}")
    if p is None or q is None:
        p, q = choose_grid(nranks)
    if p * q > nranks:
        raise ValueError(f"grid {p}x{q} needs more than {nranks} ranks")
    real = payload == "real"

    dist_a = Block2D(m, k, p, q)
    dist_b = Block2D(k, n, p, q)
    dist_c = Block2D(m, n, p, q)

    if real:
        rng = np.random.default_rng(seed)
        a_ref = rng.standard_normal((m, k))
        b_ref = rng.standard_normal((k, n))

    c_blocks: dict[int, np.ndarray] = {}
    spans: dict[int, tuple[float, float]] = {}

    def rank_fn(ctx):
        a_loc = b_loc = c_loc = None
        if real and ctx.rank < p * q:
            pi, pj = dist_c.coords_of(ctx.rank)
            a_loc = a_ref[dist_a.block_slices(pi, pj)].copy()
            b_loc = b_ref[dist_b.block_slices(pi, pj)].copy()
            c_loc = np.zeros(dist_c.block_shape(pi, pj))
            c_blocks[ctx.rank] = c_loc
        yield from ctx.mpi.barrier()
        t0 = ctx.now
        yield from summa_rank(ctx, dist_a, dist_b, dist_c, kb,
                              a_loc, b_loc, c_loc)
        spans[ctx.rank] = (t0, ctx.now)

    run = run_parallel(spec, nranks, rank_fn, interference=interference,
                       faults=faults)
    elapsed = (max(sp[1] for sp in spans.values())
               - min(sp[0] for sp in spans.values()))
    gflops = 2.0 * m * n * k / elapsed / 1e9 if elapsed > 0 else float("inf")
    result = SummaResult(elapsed=elapsed, gflops=gflops, m=m, n=n, k=k,
                         nranks=nranks, grid=(p, q), kb=kb, run=run)
    if real:
        c_full = np.zeros((m, n))
        for rank, blk in c_blocks.items():
            pi, pj = dist_c.coords_of(rank)
            c_full[dist_c.block_slices(pi, pj)] = blk
        result.c = c_full
        if verify:
            expected = a_ref @ b_ref
            result.max_error = float(np.max(np.abs(c_full - expected)))
            tol = 1e-8 * max(1, k)
            if result.max_error > tol:
                raise AssertionError(
                    f"SUMMA result wrong: max|err|={result.max_error:.3e}")
    return result
