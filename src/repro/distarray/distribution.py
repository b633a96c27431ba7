"""Matrix distributions over a 2D process grid.

Two distributions cover the paper:

- :class:`Block2D` — the regular block distribution SRUMMA assumes (§2, Fig. 2):
  the global ``m x n`` matrix is cut into a ``p x q`` grid of contiguous
  blocks, block ``(i, j)`` owned by the rank at grid position ``(i, j)``.
- :class:`BlockCyclic2D` — the ScaLAPACK-style distribution `pdgemm` uses:
  ``mb x nb`` tiles dealt round-robin to the grid.

Both use row-major rank numbering: rank = ``i * q + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["choose_grid", "Block2D", "IrregularBlock2D", "BlockCyclic2D"]


def choose_grid(nranks: int) -> tuple[int, int]:
    """Pick the most-square ``p x q`` factorisation with ``p >= q``.

    128 -> (16, 8); 16 -> (4, 4); 6 -> (3, 2); primes degrade to (P, 1).
    """
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    q = int(math.isqrt(nranks))
    while nranks % q != 0:
        q -= 1
    return nranks // q, q


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class Block2D:
    """Regular 2D block distribution of an ``m x n`` matrix on a ``p x q`` grid.

    Rows are cut into ``p`` contiguous chunks of ``ceil(m/p)`` (the last
    chunks may be smaller or empty when ``p`` does not divide ``m``);
    columns likewise into ``q`` chunks of ``ceil(n/q)``.
    """

    m: int
    n: int
    p: int
    q: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"negative matrix dims {self.m}x{self.n}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"grid must be positive, got {self.p}x{self.q}")

    # -- grid <-> rank ------------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.p * self.q

    def rank_of(self, pi: int, pj: int) -> int:
        """Row-major rank of grid position (pi, pj)."""
        if not (0 <= pi < self.p and 0 <= pj < self.q):
            raise IndexError(f"grid position ({pi},{pj}) outside {self.p}x{self.q}")
        return pi * self.q + pj

    def coords_of(self, rank: int) -> tuple[int, int]:
        """Grid position (pi, pj) of a row-major rank."""
        if not (0 <= rank < self.nranks):
            raise IndexError(f"rank {rank} outside grid of {self.nranks}")
        return divmod(rank, self.q)

    # -- block geometry --------------------------------------------------------
    @property
    def block_rows(self) -> int:
        """Nominal block height ceil(m/p)."""
        return _ceil_div(self.m, self.p) if self.m else 0

    @property
    def block_cols(self) -> int:
        """Nominal block width ceil(n/q)."""
        return _ceil_div(self.n, self.q) if self.n else 0

    def row_range(self, pi: int) -> tuple[int, int]:
        """Global row interval [lo, hi) owned by grid row pi."""
        if not (0 <= pi < self.p):
            raise IndexError(f"grid row {pi} outside {self.p}")
        b = self.block_rows
        lo = min(pi * b, self.m)
        hi = min((pi + 1) * b, self.m)
        return lo, hi

    def col_range(self, pj: int) -> tuple[int, int]:
        """Global column interval [lo, hi) owned by grid column pj."""
        if not (0 <= pj < self.q):
            raise IndexError(f"grid col {pj} outside {self.q}")
        b = self.block_cols
        lo = min(pj * b, self.n)
        hi = min((pj + 1) * b, self.n)
        return lo, hi

    def block_shape(self, pi: int, pj: int) -> tuple[int, int]:
        r0, r1 = self.row_range(pi)
        c0, c1 = self.col_range(pj)
        return r1 - r0, c1 - c0

    def block_slices(self, pi: int, pj: int) -> tuple[slice, slice]:
        """Global-index slices of block (pi, pj)."""
        r0, r1 = self.row_range(pi)
        c0, c1 = self.col_range(pj)
        return slice(r0, r1), slice(c0, c1)

    # -- ownership -----------------------------------------------------------
    def owner_of_row(self, i: int) -> int:
        if not (0 <= i < self.m):
            raise IndexError(f"row {i} outside matrix of {self.m}")
        return i // self.block_rows

    def owner_of_col(self, j: int) -> int:
        if not (0 <= j < self.n):
            raise IndexError(f"col {j} outside matrix of {self.n}")
        return j // self.block_cols

    def owner_of(self, i: int, j: int) -> int:
        """Rank owning global element (i, j)."""
        return self.rank_of(self.owner_of_row(i), self.owner_of_col(j))

    # -- patch addressing ------------------------------------------------------
    def patch_owner(self, rows: tuple[int, int], cols: tuple[int, int]) -> int:
        """Rank owning the patch ``[r0,r1) x [c0,c1)``; must be one block."""
        r0, r1 = rows
        c0, c1 = cols
        if not (0 <= r0 < r1 <= self.m and 0 <= c0 < c1 <= self.n):
            raise IndexError(
                f"patch [{r0}:{r1}, {c0}:{c1}] outside or empty in "
                f"{self.m}x{self.n}")
        pi = self.owner_of_row(r0)
        pj = self.owner_of_col(c0)
        if self.owner_of_row(r1 - 1) != pi or self.owner_of_col(c1 - 1) != pj:
            raise ValueError(
                f"patch [{r0}:{r1}, {c0}:{c1}] spans multiple owner blocks")
        return self.rank_of(pi, pj)

    def local_index(self, owner: int, rows: tuple[int, int],
                    cols: tuple[int, int]) -> tuple[slice, slice]:
        """Slices of a patch inside the owner's stored block."""
        pi, pj = self.coords_of(owner)
        r_lo, _ = self.row_range(pi)
        c_lo, _ = self.col_range(pj)
        return (slice(rows[0] - r_lo, rows[1] - r_lo),
                slice(cols[0] - c_lo, cols[1] - c_lo))

    # -- partitions (for task construction) -------------------------------------
    def row_breakpoints(self) -> list[int]:
        """Sorted global row indices where ownership changes: 0..m inclusive."""
        pts = {0, self.m}
        for pi in range(self.p):
            lo, hi = self.row_range(pi)
            pts.add(lo)
            pts.add(hi)
        return sorted(pts)

    def col_breakpoints(self) -> list[int]:
        pts = {0, self.n}
        for pj in range(self.q):
            lo, hi = self.col_range(pj)
            pts.add(lo)
            pts.add(hi)
        return sorted(pts)

    def iter_blocks(self) -> Iterator[tuple[int, int]]:
        for pi in range(self.p):
            for pj in range(self.q):
                yield pi, pj


@dataclass(frozen=True)
class IrregularBlock2D:
    """Non-uniform 2D block distribution with explicit cut points.

    The Global Arrays toolkit supports irregular distributions (different
    processes owning different-sized blocks — e.g. to match basis-function
    shells in NWChem); SRUMMA's task construction only relies on ownership
    *breakpoints*, so it runs unchanged on this class.  The paper's claim
    that the algorithm is "more general" than Cannon-style shifting rests
    exactly on this: one-sided gets need no matching send schedule, so
    blocks of unequal size cost nothing extra in coordination.

    ``row_edges``/``col_edges`` are strictly increasing tuples starting at
    0 and ending at ``m``/``n``; grid row ``i`` owns global rows
    ``[row_edges[i], row_edges[i+1])``.
    """

    m: int
    n: int
    row_edges: tuple
    col_edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "row_edges", tuple(self.row_edges))
        object.__setattr__(self, "col_edges", tuple(self.col_edges))
        for name, edges, total in (("row_edges", self.row_edges, self.m),
                                   ("col_edges", self.col_edges, self.n)):
            if len(edges) < 2 or edges[0] != 0 or edges[-1] != total:
                raise ValueError(
                    f"{name} must run from 0 to {total}, got {edges}")
            if any(b < a for a, b in zip(edges, edges[1:])):
                raise ValueError(f"{name} must be non-decreasing: {edges}")

    # -- grid geometry ------------------------------------------------------
    @property
    def p(self) -> int:
        return len(self.row_edges) - 1

    @property
    def q(self) -> int:
        return len(self.col_edges) - 1

    @property
    def nranks(self) -> int:
        return self.p * self.q

    def rank_of(self, pi: int, pj: int) -> int:
        if not (0 <= pi < self.p and 0 <= pj < self.q):
            raise IndexError(f"grid position ({pi},{pj}) outside {self.p}x{self.q}")
        return pi * self.q + pj

    def coords_of(self, rank: int) -> tuple[int, int]:
        if not (0 <= rank < self.nranks):
            raise IndexError(f"rank {rank} outside grid of {self.nranks}")
        return divmod(rank, self.q)

    # -- block geometry ---------------------------------------------------------
    def row_range(self, pi: int) -> tuple[int, int]:
        if not (0 <= pi < self.p):
            raise IndexError(f"grid row {pi} outside {self.p}")
        return self.row_edges[pi], self.row_edges[pi + 1]

    def col_range(self, pj: int) -> tuple[int, int]:
        if not (0 <= pj < self.q):
            raise IndexError(f"grid col {pj} outside {self.q}")
        return self.col_edges[pj], self.col_edges[pj + 1]

    def block_shape(self, pi: int, pj: int) -> tuple[int, int]:
        r0, r1 = self.row_range(pi)
        c0, c1 = self.col_range(pj)
        return r1 - r0, c1 - c0

    def block_slices(self, pi: int, pj: int) -> tuple[slice, slice]:
        r0, r1 = self.row_range(pi)
        c0, c1 = self.col_range(pj)
        return slice(r0, r1), slice(c0, c1)

    # -- ownership ---------------------------------------------------------------
    def owner_of_row(self, i: int) -> int:
        if not (0 <= i < self.m):
            raise IndexError(f"row {i} outside matrix of {self.m}")
        # Rightmost edge <= i; empty blocks are skipped automatically since
        # bisect lands past zero-width intervals.
        import bisect

        return bisect.bisect_right(self.row_edges, i) - 1

    def owner_of_col(self, j: int) -> int:
        if not (0 <= j < self.n):
            raise IndexError(f"col {j} outside matrix of {self.n}")
        import bisect

        return bisect.bisect_right(self.col_edges, j) - 1

    def owner_of(self, i: int, j: int) -> int:
        return self.rank_of(self.owner_of_row(i), self.owner_of_col(j))

    # -- patch addressing (same contract as Block2D) -------------------------------
    def patch_owner(self, rows: tuple[int, int], cols: tuple[int, int]) -> int:
        r0, r1 = rows
        c0, c1 = cols
        if not (0 <= r0 < r1 <= self.m and 0 <= c0 < c1 <= self.n):
            raise IndexError(
                f"patch [{r0}:{r1}, {c0}:{c1}] outside or empty in "
                f"{self.m}x{self.n}")
        pi = self.owner_of_row(r0)
        pj = self.owner_of_col(c0)
        if self.owner_of_row(r1 - 1) != pi or self.owner_of_col(c1 - 1) != pj:
            raise ValueError(
                f"patch [{r0}:{r1}, {c0}:{c1}] spans multiple owner blocks")
        return self.rank_of(pi, pj)

    def local_index(self, owner: int, rows: tuple[int, int],
                    cols: tuple[int, int]) -> tuple[slice, slice]:
        pi, pj = self.coords_of(owner)
        r_lo, _ = self.row_range(pi)
        c_lo, _ = self.col_range(pj)
        return (slice(rows[0] - r_lo, rows[1] - r_lo),
                slice(cols[0] - c_lo, cols[1] - c_lo))

    # -- partitions -----------------------------------------------------------------
    def row_breakpoints(self) -> list[int]:
        return sorted(set(self.row_edges))

    def col_breakpoints(self) -> list[int]:
        return sorted(set(self.col_edges))

    def iter_blocks(self) -> Iterator[tuple[int, int]]:
        for pi in range(self.p):
            for pj in range(self.q):
                yield pi, pj


@dataclass(frozen=True)
class BlockCyclic2D:
    """ScaLAPACK block-cyclic distribution: ``mb x nb`` tiles dealt cyclically.

    Tile (I, J) (tile-grid indices) lives on grid position
    ``(I mod p, J mod q)``.  Local storage is packed: a rank's tiles are
    concatenated in tile order, giving a ``local_rows x local_cols`` array
    whose row ``r`` corresponds to global row :meth:`to_global_row`.
    """

    m: int
    n: int
    mb: int
    nb: int
    p: int
    q: int

    def __post_init__(self):
        if self.mb < 1 or self.nb < 1:
            raise ValueError(f"tile dims must be positive, got {self.mb}x{self.nb}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"grid must be positive, got {self.p}x{self.q}")
        if self.m < 0 or self.n < 0:
            raise ValueError(f"negative matrix dims {self.m}x{self.n}")

    @property
    def nranks(self) -> int:
        return self.p * self.q

    def rank_of(self, pi: int, pj: int) -> int:
        return pi * self.q + pj

    def coords_of(self, rank: int) -> tuple[int, int]:
        if not (0 <= rank < self.nranks):
            raise IndexError(f"rank {rank} outside grid of {self.nranks}")
        return divmod(rank, self.q)

    # -- tile grid ------------------------------------------------------------
    @property
    def tiles_m(self) -> int:
        return _ceil_div(self.m, self.mb) if self.m else 0

    @property
    def tiles_n(self) -> int:
        return _ceil_div(self.n, self.nb) if self.n else 0

    def tile_owner(self, ti: int, tj: int) -> tuple[int, int]:
        return ti % self.p, tj % self.q

    def tile_shape(self, ti: int, tj: int) -> tuple[int, int]:
        rows = min(self.mb, self.m - ti * self.mb)
        cols = min(self.nb, self.n - tj * self.nb)
        return rows, cols

    # -- local packed layout ------------------------------------------------------
    def local_row_tiles(self, pi: int) -> list[int]:
        """Tile-row indices owned by grid row pi, in order."""
        return list(range(pi, self.tiles_m, self.p))

    def local_col_tiles(self, pj: int) -> list[int]:
        return list(range(pj, self.tiles_n, self.q))

    def local_rows(self, pi: int) -> int:
        return sum(self.tile_shape(ti, 0)[0] for ti in self.local_row_tiles(pi))

    def local_cols(self, pj: int) -> int:
        return sum(self.tile_shape(0, tj)[1] for tj in self.local_col_tiles(pj))

    def local_shape(self, rank: int) -> tuple[int, int]:
        pi, pj = self.coords_of(rank)
        return self.local_rows(pi), self.local_cols(pj)

    def global_rows_of(self, pi: int) -> list[int]:
        """Global row indices owned by grid row pi, in packed order."""
        out = []
        for ti in self.local_row_tiles(pi):
            r0 = ti * self.mb
            out.extend(range(r0, min(r0 + self.mb, self.m)))
        return out

    def global_cols_of(self, pj: int) -> list[int]:
        out = []
        for tj in self.local_col_tiles(pj):
            c0 = tj * self.nb
            out.extend(range(c0, min(c0 + self.nb, self.n)))
        return out
