"""Global Arrays-style distributed dense matrix over ARMCI segments.

A :class:`GlobalArray` is created *collectively*: every rank calls
:meth:`GlobalArray.create` with identical arguments (mirroring
``ARMCI_Malloc`` / ``GA_Create``), each registering its own block of the
regular 2D block distribution.  The handle then offers:

- one-sided patch access (``get_patch`` / ``nb_get_patch`` — ARMCI gets from
  whichever rank owns the patch),
- direct shared-memory views of patches inside the caller's domain
  (``view_patch`` — the zero-copy access path of the shared-memory SRUMMA
  flavour),
- local-block access and initialisation helpers.

A *patch* here is a rectangular section of the global index space that lies
entirely inside one owner's block — which is all SRUMMA and the baselines
ever need, since their task decompositions follow block boundaries.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..comm.armci import ArmciRuntime
from ..comm.base import CommError, RankContext, Request
from .distribution import Block2D

__all__ = ["GlobalArray"]


class GlobalArray:
    """Per-rank handle to one distributed matrix."""

    def __init__(self, ctx: RankContext, name: str, dist: Block2D,
                 dtype: Any = np.float64):
        if dist.nranks > ctx.nranks:
            raise ValueError(
                f"distribution needs {dist.nranks} ranks, machine has {ctx.nranks}")
        self.ctx = ctx
        self.name = name
        self.dist = dist
        self.dtype = np.dtype(dtype)
        self._key = f"ga:{name}"

    # -- creation ---------------------------------------------------------
    @classmethod
    def create(cls, ctx: RankContext, name: str, m: int, n: int,
               p: Optional[int] = None, q: Optional[int] = None,
               dtype: Any = np.float64, dist=None) -> "GlobalArray":
        """Collectively create an ``m x n`` array on a ``p x q`` grid.

        Every rank must call this with the same arguments.  Defaults to the
        most-square grid over all ranks (:func:`choose_grid`).  Pass an
        explicit ``dist`` (e.g. an
        :class:`~repro.distarray.distribution.IrregularBlock2D`) to
        override the regular distribution entirely; ``m``/``n`` must then
        match it.
        """
        from .distribution import choose_grid

        if dist is not None:
            if (dist.m, dist.n) != (m, n):
                raise ValueError(
                    f"dist is {dist.m}x{dist.n} but m,n = {m},{n}")
        else:
            if p is None or q is None:
                p, q = choose_grid(ctx.nranks)
            dist = Block2D(m, n, p, q)
        ga = cls(ctx, name, dist, dtype)
        pi, pj = dist.coords_of(ctx.rank) if ctx.rank < dist.nranks else (None, None)
        if pi is not None:
            shape = dist.block_shape(pi, pj)
        else:
            shape = (0, 0)  # ranks beyond the grid hold nothing
        ctx.armci.malloc(ga._key, shape, dtype=dtype)
        return ga

    # -- identity -----------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.dist.m, self.dist.n)

    @property
    def grid(self) -> tuple[int, int]:
        return (self.dist.p, self.dist.q)

    def my_coords(self) -> Optional[tuple[int, int]]:
        """This rank's grid position, or None if outside the grid."""
        if self.ctx.rank >= self.dist.nranks:
            return None
        return self.dist.coords_of(self.ctx.rank)

    # -- local access -----------------------------------------------------------
    def local(self) -> np.ndarray:
        """This rank's own block (a live reference)."""
        return self.ctx.armci.local(self._key)

    def local_slices(self) -> Optional[tuple[slice, slice]]:
        """Global-index slices of this rank's block."""
        coords = self.my_coords()
        if coords is None:
            return None
        return self.dist.block_slices(*coords)

    def load(self, global_matrix: np.ndarray) -> None:
        """Fill the local block from a full global matrix (test/init helper)."""
        if global_matrix.shape != self.shape:
            raise ValueError(
                f"global matrix shape {global_matrix.shape} != {self.shape}")
        sl = self.local_slices()
        if sl is not None:
            self.local()[...] = global_matrix[sl]

    def fenced_write_block(self, rank: int, data: np.ndarray,
                           stamp: int) -> bool:
        """Epoch-fenced wholesale write-back of ``rank``'s block.

        The landing half of a completed C-block put: applies ``data`` to
        ``rank``'s segment *iff* the membership epoch fence admits the
        stamp.  A stale stamp — the writer's ownership generation predates
        a recovery claim on this block — is rejected here at the distarray
        layer and counted (``fault:stale_epoch_rejected``), which is what
        makes duplicate work from false suspicions harmless: the
        presumed-dead owner's late commit cannot clobber the recovered
        block.  Without a membership subsystem every write is admitted.

        Wholesale (not ``+=``) so a retried put is idempotent: re-applying
        the same staged array yields the same segment contents.
        """
        membership = self.ctx.machine.membership
        if membership is not None and not membership.admit_write(rank, stamp):
            return False
        seg = self.ctx.armci._rt.segment(rank, self._key)
        if seg.shape != data.shape:
            raise CommError(
                f"fenced write shape mismatch: {data.shape} vs {seg.shape}")
        seg[...] = data
        return True

    # -- patch addressing ---------------------------------------------------------
    def patch_owner(self, rows: tuple[int, int], cols: tuple[int, int]) -> int:
        """Rank owning the patch ``[r0,r1) x [c0,c1)``; must be one block."""
        return self.dist.patch_owner(rows, cols)

    def _local_index(self, owner: int, rows: tuple[int, int],
                     cols: tuple[int, int]) -> tuple[slice, slice]:
        return self.dist.local_index(owner, rows, cols)

    # -- owner-relative access (the task loop already knows owners/indices) ---------
    def nb_get_owner_patch(self, owner: int, index: tuple[slice, slice],
                           out: np.ndarray, reliable: bool = False) -> Request:
        """Nonblocking get of ``owner``'s block section ``index`` into ``out``.

        ``reliable=True`` requests the guaranteed-delivery blocking-copy
        protocol (the fault-injection retry fallback)."""
        return self.ctx.armci.nb_get(owner, self._key, out, src_index=index,
                                     reliable=reliable)

    def view_owner_patch(self, owner: int,
                         index: tuple[slice, slice]) -> np.ndarray:
        """Direct load/store reference to ``owner``'s block section."""
        return self.ctx.shmem.view(owner, self._key, index=index)

    def owner_patch_checksums(self, owner: int, index: tuple[slice, slice]):
        """Owner-side ABFT reference sums for a block section.

        Models the checksum vectors the owner maintains alongside its
        block and ships with every panel; read outside simulated time
        (the wire/compute overhead is charged by the verifier, see
        :mod:`repro.distarray.abft`).
        """
        from .abft import panel_checksums

        src = self.ctx.armci._rt.segment(owner, self._key)
        return panel_checksums(src[index])

    def copy_owner_patch(self, owner: int, index: tuple[slice, slice],
                         out: np.ndarray):
        """Explicit shared-memory copy of an owner's block section (generator)."""
        yield from self.ctx.shmem.copy(owner, self._key, out, src_index=index)

    # -- one-sided access -----------------------------------------------------------
    def nb_get_patch(self, rows: tuple[int, int], cols: tuple[int, int],
                     out: np.ndarray, out_index=None) -> Request:
        """Nonblocking ARMCI get of a patch into ``out[out_index]``."""
        owner = self.patch_owner(rows, cols)
        src_index = self._local_index(owner, rows, cols)
        return self.ctx.armci.nb_get(owner, self._key, out,
                                     src_index=src_index, out_index=out_index)

    def get_patch(self, rows: tuple[int, int], cols: tuple[int, int],
                  out: np.ndarray, out_index=None):
        """Blocking get of a patch (generator)."""
        req = self.nb_get_patch(rows, cols, out, out_index)
        yield from self.ctx.wait(req)
        return req

    def put_patch(self, rows: tuple[int, int], cols: tuple[int, int],
                  data: np.ndarray):
        """Blocking put of ``data`` into a patch (generator)."""
        owner = self.patch_owner(rows, cols)
        dst_index = self._local_index(owner, rows, cols)
        yield from self.ctx.armci.put(owner, self._key, data, dst_index=dst_index)

    # -- multi-owner regions (the GA_Get / GA_Put user-level semantics) -----------
    def _region_patches(self, rows: tuple[int, int], cols: tuple[int, int]):
        """Split an arbitrary rectangle at ownership boundaries."""
        r0, r1 = rows
        c0, c1 = cols
        if not (0 <= r0 < r1 <= self.dist.m and 0 <= c0 < c1 <= self.dist.n):
            raise IndexError(
                f"region [{r0}:{r1}, {c0}:{c1}] outside or empty in "
                f"{self.dist.m}x{self.dist.n}")
        r_edges = [r0] + [p for p in self.dist.row_breakpoints()
                          if r0 < p < r1] + [r1]
        c_edges = [c0] + [p for p in self.dist.col_breakpoints()
                          if c0 < p < c1] + [c1]
        for pr0, pr1 in zip(r_edges[:-1], r_edges[1:]):
            for pc0, pc1 in zip(c_edges[:-1], c_edges[1:]):
                yield (pr0, pr1), (pc0, pc1)

    def get_region(self, rows: tuple[int, int], cols: tuple[int, int],
                   out: np.ndarray):
        """Blocking get of an arbitrary rectangle, possibly spanning many
        owners (generator; the ``GA_Get`` semantics).  All patch gets are
        issued nonblocking and completed together."""
        if out.shape != (rows[1] - rows[0], cols[1] - cols[0]):
            raise ValueError(
                f"out shape {out.shape} != region "
                f"({rows[1] - rows[0]}, {cols[1] - cols[0]})")
        reqs = []
        for prows, pcols in self._region_patches(rows, cols):
            oidx = (slice(prows[0] - rows[0], prows[1] - rows[0]),
                    slice(pcols[0] - cols[0], pcols[1] - cols[0]))
            reqs.append(self.nb_get_patch(prows, pcols, out, out_index=oidx))
        yield from self.ctx.wait_all(reqs)

    def put_region(self, rows: tuple[int, int], cols: tuple[int, int],
                   data: np.ndarray):
        """Blocking put of an arbitrary rectangle spanning many owners
        (generator; the ``GA_Put`` semantics)."""
        if data.shape != (rows[1] - rows[0], cols[1] - cols[0]):
            raise ValueError(
                f"data shape {data.shape} != region "
                f"({rows[1] - rows[0]}, {cols[1] - cols[0]})")
        reqs = []
        for prows, pcols in self._region_patches(rows, cols):
            owner = self.patch_owner(prows, pcols)
            dst_index = self._local_index(owner, prows, pcols)
            piece = data[prows[0] - rows[0]:prows[1] - rows[0],
                         pcols[0] - cols[0]:pcols[1] - cols[0]]
            reqs.append(self.ctx.armci.nb_put(owner, self._key, piece,
                                              dst_index=dst_index))
        yield from self.ctx.wait_all(reqs)

    # -- direct shared-memory access ---------------------------------------------------
    def can_view_patch(self, rows: tuple[int, int], cols: tuple[int, int]) -> bool:
        """True when the patch owner is in this rank's shared-memory domain."""
        return self.ctx.shmem.can_access(self.patch_owner(rows, cols))

    def view_patch(self, rows: tuple[int, int],
                   cols: tuple[int, int]) -> np.ndarray:
        """Direct load/store reference to a patch (zero simulated cost).

        Raises :class:`CommError` when the owner is outside this rank's
        shared-memory domain.
        """
        owner = self.patch_owner(rows, cols)
        index = self._local_index(owner, rows, cols)
        return self.ctx.shmem.view(owner, self._key, index=index)

    # -- verification helpers (outside simulated time) ------------------------------------
    @staticmethod
    def assemble(runtime: ArmciRuntime, name: str, dist: Block2D,
                 dtype: Any = np.float64) -> np.ndarray:
        """Gather the full matrix from the segment registry (test helper)."""
        out = np.zeros((dist.m, dist.n), dtype=dtype)
        key = f"ga:{name}"
        for pi in range(dist.p):
            for pj in range(dist.q):
                rank = dist.rank_of(pi, pj)
                if not runtime.has_segment(rank, key):
                    raise CommError(f"rank {rank} never created array {name!r}")
                out[dist.block_slices(pi, pj)] = runtime.segment(rank, key)
        return out
