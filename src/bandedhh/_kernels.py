"""The apply engine: one cached, band-compact WY plan behind every G product.

Reflections i = s .. e - 1 of a banded product only touch rows s .. e - 1 + w,
so the block H_s ... H_{e-1} is I - V T V' with V of size (e - s + w) x
(e - s) (Schreiber & Van Loan's compact WY form, restricted to the band).
T comes from T^-1 = diag(1/beta) + striu(V'V) (Joffrain et al., ACM TOMS
32(2), 2006), computed for a whole stack of blocks with one np.linalg.inv
call and no loop per reflection. G x applies the blocks last to first, each
as two matrix-vector products against V and one against T; G' x applies
them first to last with T'. Both work unchanged on one or many columns.

A plan is built once per block size and cached on the BandedReflectors,
whose arrays are read-only so that it cannot go stale. It costs about one
more copy of the free entries, k (w + b) floats, plus one b x b triangular T
(b (b + 1) / 2 nonzeros) per block, held while the factor lives.
"""

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 32


@dataclass(frozen=True)
class BlockedWY:
    """Reflections start_index .. start_index + b - 1 as I - V T V'.

    v_block is band-compact: its rows are rows start_index ..
    start_index + b - 1 + w of the full reflection vectors, unit pivots
    written out, and every row outside that range of those vectors is zero.
    t_block is b x b upper triangular with the betas on its diagonal; a
    skipped reflection (beta = 0) has an exactly zero row and column, so it
    acts as the identity. Both arrays are read-only.
    """

    v_block: np.ndarray
    t_block: np.ndarray
    start_index: int

    @property
    def block_size(self) -> int:
        return self.t_block.shape[0]

    def overhead_floats(self) -> int:
        """Scalars T adds on top of the banded data: b(b + 1)/2."""
        b = self.block_size
        return b * (b + 1) // 2


def build_blocks(g, start: int, size: int, count: int) -> list[BlockedWY]:
    """count consecutive blocks of size reflections each, from reflection start."""
    if count == 0:
        return []
    w = g.bandwidth
    stop = start + count * size
    # V' row by row: reflection j is [1, tail_j] starting at column j. Rows
    # of length size + w + 1 holding [1, tail_j, 0 ...], read back end to end
    # in rows of length size + w, shift row j right by exactly j columns.
    skewed = np.empty((count, size, size + w + 1))
    skewed[:, :, 0] = 1.0
    skewed[:, :, 1 : 1 + w] = g.free_entries[start:stop].reshape(count, size, w)
    skewed[:, :, 1 + w :] = 0.0
    vt = skewed.reshape(count, -1)[:, : size * (size + w)].reshape(count, size, size + w)
    betas = g.betas[start:stop].reshape(count, size)
    # T = (I + diag(beta) striu(V'V))^-1 diag(beta) is T^-1 = diag(1/beta) +
    # striu(V'V) rearranged so that beta = 0 needs no division. The matrix
    # inverted is unit upper triangular, so its inverse keeps an exact unit
    # diagonal and T[j, j] == beta_j bit for bit.
    unit = vt @ vt.transpose(0, 2, 1)
    unit *= betas[:, :, None]
    unit *= np.triu(np.ones((size, size)), 1)
    unit += np.eye(size)
    t = np.linalg.inv(unit) * betas[:, None, :]
    v = vt.transpose(0, 2, 1)
    v.flags.writeable = False
    t.flags.writeable = False
    return [BlockedWY(v[i], t[i], start + i * size) for i in range(count)]


def plan(g, block_size: int = BLOCK_SIZE) -> tuple[BlockedWY, ...]:
    """The cached WY blocks covering g's reflections, in ascending order.

    The last block is smaller when block_size does not divide the count.
    """
    cached = g._plans.get(block_size)
    if cached is None:
        full, rest = divmod(g.count, block_size)
        blocks = build_blocks(g, 0, block_size, full)
        if rest:
            blocks += build_blocks(g, full * block_size, rest, 1)
        cached = g._plans[block_size] = tuple(blocks)
    return cached


def apply_plan(g, x: np.ndarray, transpose: bool, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Overwrite x (a vector or a matrix of columns) with G x, or G' x."""
    w = g.bandwidth
    blocks = plan(g, block_size)
    for blk in blocks if transpose else reversed(blocks):
        s = blk.start_index
        seg = x[s : s + blk.block_size + w]
        v = blk.v_block
        t = blk.t_block.T if transpose else blk.t_block
        seg -= v @ (t @ (v.T @ seg))
    return x
