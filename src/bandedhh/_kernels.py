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

The same block loop also applies the unbanded reflectors of a LAPACK QR
(raw_blocks), whose vectors run to the last row; factor_complement forms
its complement basis that way. It takes the V of its own reflectors from
band_vt, the layout the plan's blocks use, and needs no T and no plan.

Each block forms V'x before it scales by T, which overflows near half the
largest double although G is orthogonal, so apply_plan scales an operand
whose peak exceeds 2^1000 by the power of two that brings it just under,
and back: exact bar entries below 2^-998, which fall subnormal. NaN and
Inf never trigger it.
"""

from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 32


@dataclass(frozen=True)
class BlockedWY:
    """Reflections start_index .. start_index + b - 1 as I - V T V'.

    v_block holds rows start_index .. start_index + len(v_block) - 1 of
    the full reflection vectors, unit pivots written out, and every row
    outside that range of those vectors is zero. In a plan it is
    band-compact, b + w rows; in a raw_blocks block it runs to row m - 1.
    t_block is b x b upper triangular with the betas on its diagonal; a
    skipped reflection (beta = 0) has an exactly zero row and column, so it
    acts as the identity. In a plan both arrays are read-only.
    """

    v_block: np.ndarray
    t_block: np.ndarray
    start_index: int

    @property
    def block_size(self) -> int:
        return self.t_block.shape[0]


def _block_t(vt: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """T of I - V T V' from V' (b x rows) and the b betas, or a stack of both."""
    # T = (I + diag(beta) striu(V'V))^-1 diag(beta) is T^-1 = diag(1/beta) +
    # striu(V'V) rearranged so that beta = 0 needs no division. The matrix
    # inverted is unit upper triangular, so its inverse keeps an exact unit
    # diagonal and T[j, j] == beta_j bit for bit.
    size = betas.shape[-1]
    unit = vt @ np.swapaxes(vt, -1, -2)
    unit *= betas[..., :, None]
    unit *= np.triu(np.ones((size, size)), 1)
    unit += np.eye(size)
    return np.linalg.inv(unit) * betas[..., None, :]


def band_vt(tails: np.ndarray) -> np.ndarray:
    """V' of consecutive banded reflections, from their free entries.

    tails is size x w, or a stack of such; row j of the size x (size + w)
    result is reflection j: j zeros, the unit pivot, tails[j], then zeros.
    """
    *stack, size, w = tails.shape
    # Rows of length size + w + 1 holding [1, tail_j, 0 ...], read back end
    # to end in rows of length size + w, shift row j right by exactly j columns.
    skewed = np.empty((*stack, size, size + w + 1))
    skewed[..., 0] = 1.0
    skewed[..., 1 : 1 + w] = tails
    skewed[..., 1 + w :] = 0.0
    flat = skewed.reshape(*stack, -1)[..., : size * (size + w)]
    return flat.reshape(*stack, size, size + w)


def build_blocks(g, start: int, size: int, count: int) -> list[BlockedWY]:
    """count consecutive blocks of size reflections each, from reflection start."""
    if count == 0:
        return []
    stop = start + count * size
    vt = band_vt(g.free_entries[start:stop].reshape(count, size, g.bandwidth))
    t = _block_t(vt, g.betas[start:stop].reshape(count, size))
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


def raw_blocks(h: np.ndarray, tau: np.ndarray):
    """WY blocks of the reflectors in np.linalg.qr(a, mode="raw"), last to first.

    h is n x m: reflection j has a unit pivot at row j and its tail in
    h[j, j + 1:]. Block [s, e) has V' = triu(h[s:e, s:], 1) with a unit
    diagonal, (e - s) x (m - s). Blocks are built one at a time as the
    caller consumes them, so only one is held at once.
    """
    n = h.shape[0]
    for s in range(((n - 1) // BLOCK_SIZE) * BLOCK_SIZE, -1, -BLOCK_SIZE):
        e = min(s + BLOCK_SIZE, n)
        # Columns e and beyond lie above the diagonal already, so only the
        # b x b head needs its lower triangle cleared.
        vt = h[s:e, s:].copy()
        vt[:, : e - s] = np.triu(vt[:, : e - s], 1)
        np.fill_diagonal(vt, 1.0)
        yield BlockedWY(vt.T, _block_t(vt, tau[s:e]), s)


def apply_blocks(blocks, x: np.ndarray, transpose: bool) -> np.ndarray:
    """Overwrite x with the product of blocks, applied in the order given.

    Each block updates rows start_index .. start_index + len(v_block) - 1
    of x, with I - V T V' or, when transpose is set, I - V T' V'.
    """
    for blk in blocks:
        s = blk.start_index
        seg = x[s : s + blk.v_block.shape[0]]
        v = blk.v_block
        t = blk.t_block.T if transpose else blk.t_block
        seg -= v @ (t @ (v.T @ seg))
    return x


def apply_plan(g, x: np.ndarray, transpose: bool, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """Overwrite x (a vector or a matrix of columns) with G x, or G' x."""
    blocks = plan(g, block_size)
    peak = max(x.max(initial=0.0), -x.min(initial=0.0))
    e = int(np.frexp(peak)[1]) - 1000 if 2.0**1000 < peak < np.inf else 0
    if e:
        np.ldexp(x, -e, out=x)
    apply_blocks(blocks if transpose else reversed(blocks), x, transpose)
    return np.ldexp(x, e, out=x) if e else x
