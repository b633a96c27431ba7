"""Front-door API: one call multiplies two distributed matrices with SRUMMA.

:func:`srumma_multiply` builds the machine, creates the distributed
matrices, runs one simulated process per rank, verifies the numerical result
against numpy, and reports virtual-time performance::

    from repro import srumma_multiply
    from repro.machines import LINUX_MYRINET

    res = srumma_multiply(LINUX_MYRINET, nranks=16, m=512, n=512, k=512)
    print(res.gflops, res.max_error)

``payload="synthetic"`` runs the identical communication/compute schedule
without real numpy data — used by the large-N benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..comm.base import ParallelRun, run_parallel
from ..distarray.distribution import Block2D, choose_grid
from ..distarray.global_array import GlobalArray
from ..machines.spec import MachineSpec
from .srumma import RankStats, SrummaOptions, srumma_rank

__all__ = ["MultiplyResult", "srumma_multiply", "make_operands",
           "measured_omega"]


def measured_omega(result: "MultiplyResult") -> float:
    """The paper's overlap degree omega, measured from a run.

    omega = (non-overlapped communication) / (total communication time) —
    the fraction of transfer time the CPUs actually sat blocked on
    (§2.1: 'the degree of overlapping'; §4.1: 'we were able to overlap
    more than 90% of the communication ... thus omega is less than 10%').
    Returns 0 when the run had no communication.
    """
    comm_total = sum(s.comm_time for s in result.stats)
    if comm_total <= 0:
        return 0.0
    blocked = result.run.tracer.total("comm_wait")
    return min(1.0, max(0.0, blocked / comm_total))


@dataclass
class MultiplyResult:
    """Outcome of one distributed multiplication."""

    elapsed: float
    """Virtual seconds from the post-setup barrier to the last rank's finish."""

    gflops: float
    """Aggregate 2*m*n*k / elapsed, in GFLOP/s."""

    m: int
    n: int
    k: int
    nranks: int
    grid: tuple[int, int]
    run: ParallelRun
    stats: list[RankStats]
    c: Optional[np.ndarray] = None
    """The assembled result matrix (real payload only)."""

    max_error: Optional[float] = None
    """Max abs deviation from the numpy reference (real payload + verify)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MultiplyResult {self.m}x{self.n}x{self.k} P={self.nranks} "
                f"{self.gflops:.2f} GFLOP/s>")


def make_operands(m: int, n: int, k: int, transa: bool, transb: bool,
                  seed: int = 0, dtype=np.float64):
    """Reference operands in *stored* orientation.

    Returns ``(a_stored, b_stored, expected_c)`` where ``a_stored`` is
    ``k x m`` when ``transa`` else ``m x k`` (likewise for B), and
    ``expected_c = op(a) @ op(b)``.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, m) if transa else (m, k)).astype(dtype)
    b = rng.standard_normal((n, k) if transb else (k, n)).astype(dtype)
    expected = (a.T if transa else a) @ (b.T if transb else b)
    return a, b, expected


def srumma_multiply(spec: MachineSpec, nranks: int, m: int, n: int, k: int,
                    transa: bool = False, transb: bool = False,
                    p: Optional[int] = None, q: Optional[int] = None,
                    options: Optional[SrummaOptions] = None,
                    payload: str = "real", verify: bool = True,
                    seed: int = 0, dtype=np.float64,
                    alpha: float = 1.0, beta: float = 0.0,
                    interference=None, faults=None) -> MultiplyResult:
    """Run ``C = alpha * op(A) @ op(B) + beta * C`` with SRUMMA.

    With ``beta != 0`` the initial C is a seeded random matrix (so the
    accumulate path is actually exercised and verified).

    Parameters
    ----------
    spec, nranks:
        Machine model and process count.
    m, n, k:
        Global dimensions of ``op(A) (m x k)``, ``op(B) (k x n)``, ``C (m x n)``.
    transa, transb:
        Transpose flags; the stored matrices then have swapped dims.
    p, q:
        Process grid (default: most-square factorisation of ``nranks``).
    options:
        :class:`SrummaOptions` switches; default is the paper's best config.
    payload:
        ``"real"`` moves numpy data and can verify; ``"synthetic"`` runs the
        identical schedule timing-only.
    verify:
        Compare the assembled C against numpy (real payload only).
    """
    if payload not in ("real", "synthetic"):
        raise ValueError(f"payload must be 'real' or 'synthetic', not {payload!r}")
    if p is None or q is None:
        p, q = choose_grid(nranks)
    if p * q > nranks:
        raise ValueError(f"grid {p}x{q} needs more than {nranks} ranks")

    dist_a = Block2D(k if transa else m, m if transa else k, p, q)
    dist_b = Block2D(n if transb else k, k if transb else n, p, q)
    dist_c = Block2D(m, n, p, q)

    real = payload == "real"
    if real:
        a_ref, b_ref, prod = make_operands(m, n, k, transa, transb,
                                           seed=seed, dtype=dtype)
        if beta != 0.0:
            rng = np.random.default_rng(seed + 1)
            c0 = rng.standard_normal((m, n)).astype(dtype)
        else:
            c0 = None
        c_expected = alpha * prod + (beta * c0 if c0 is not None else 0.0)

    spans: dict[int, tuple[float, float]] = {}

    def rank_fn(ctx):
        if real:
            ga_a = GlobalArray.create(ctx, "A", *a_ref.shape, p=p, q=q, dtype=dtype)
            ga_b = GlobalArray.create(ctx, "B", *b_ref.shape, p=p, q=q, dtype=dtype)
            ga_c = GlobalArray.create(ctx, "C", m, n, p=p, q=q, dtype=dtype)
            ga_a.load(a_ref)
            ga_b.load(b_ref)
            if c0 is not None:
                ga_c.load(c0)
            args = (ga_a, ga_b, ga_c)
        else:
            args = (dist_a, dist_b, dist_c)
        yield from ctx.mpi.barrier()
        t0 = ctx.now
        stats = yield from srumma_rank(ctx, *args, transa=transa,
                                       transb=transb, options=options,
                                       alpha=alpha, beta=beta)
        spans[ctx.rank] = (t0, ctx.now)
        return stats

    run = run_parallel(spec, nranks, rank_fn, interference=interference,
                       faults=faults)
    t_start = min(s[0] for s in spans.values())
    t_end = max(s[1] for s in spans.values())
    elapsed = t_end - t_start
    flops = 2.0 * m * n * k
    gflops = flops / elapsed / 1e9 if elapsed > 0 else float("inf")

    result = MultiplyResult(
        elapsed=elapsed, gflops=gflops, m=m, n=n, k=k, nranks=nranks,
        grid=(p, q), run=run, stats=list(run.results),
    )
    if real:
        result.c = GlobalArray.assemble(run.armci, "C", dist_c, dtype=dtype)
        if verify:
            result.max_error = float(np.max(np.abs(result.c - c_expected)))
            tol = 1e-8 * max(1, k)
            if result.max_error > tol:
                raise AssertionError(
                    f"SRUMMA result wrong: max|err|={result.max_error:.3e} "
                    f"> tol={tol:.3e} (m={m}, n={n}, k={k}, grid={p}x{q}, "
                    f"transa={transa}, transb={transb})")
    return result
