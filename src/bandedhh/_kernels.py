"""The apply engine: one cached, band-compact WY plan behind every G product.

Reflections i = s .. e - 1 of a banded product only touch rows s .. e - 1 + w,
so the block H_s ... H_{e-1} is I - V T V' with V of size (e - s + w) x
(e - s) (Schreiber & Van Loan's compact WY form, restricted to the band).
T comes from T^-1 = diag(1/beta) + striu(V'V) (Joffrain et al., ACM TOMS
32(2), 2006), computed for a whole stack of blocks with one np.linalg.inv
call and no loop per reflection. G x applies the blocks last to first, each
as two matrix-vector products against V and one against T; G' x applies
them first to last with T'. Both work unchanged on one or many columns.
A sign flip (zero tail, beta 2) runs through the same arithmetic, as
x - 2 x, so a -0.0 entry comes back +0.0: the product keeps every value,
and the bits of every nonzero entry, but not the sign of a zero.

A BandedReflectors caches one plan, which a call with another block size
replaces; its arrays are read-only, so the plan cannot go stale. A plan costs
about one more copy of the free entries, k (w + b) floats, plus one b x b
triangular T (b (b + 1) / 2 nonzeros) per block, held while the factor lives.

The same block loop also applies the unbanded reflectors of a LAPACK QR
(raw_blocks), whose vectors run to the last row; factor_complement forms
its complement basis that way. It takes the V of its own reflectors from
band_vt, the layout the plan's blocks use, and needs no T and no plan.

Each block forms V'x before it scales by T, which overflows near half the
largest double although G is orthogonal. This module holds the one
float64-range rule: in_range shifts each column whose peak exceeds 2^1000
by the power of two that brings that peak just under it, and leaves every
other column as it is, bit for bit. apply_plan shifts its operand so and
shifts the product back, and the factor pipelines (factor._tall and
factor._complement) run on a shifted input and shift only the finished
core back. Below 2^1000 per column, no intermediate of either can
overflow: each is bounded by about sqrt(m n) 2^1000, since every G has
betas in [1, 2], up to rounding (BandedReflectors' tail rule). Columns
never mix under G, so the shift is exact except for the entries below
2^-998 of a shifted column, which fall subnormal and lose bits (at most
2^-1998 of that column's peak). NaN and Inf never trigger it.
"""

import math
from dataclasses import dataclass

import numpy as np

BLOCK_SIZE = 32


@dataclass(frozen=True, eq=False)
class BlockedWY:
    """Reflections start_index .. start_index + b - 1 as I - V T V'.

    v_block holds rows start_index .. start_index + len(v_block) - 1 of
    the full reflection vectors, unit pivots written out, and every row
    outside that range of those vectors is zero. In a plan it is
    band-compact, b + w rows; in a raw_blocks block it runs to row m - 1.
    t_block is b x b upper triangular with the betas on its diagonal. In a
    plan both arrays are read-only.
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
    # striu(V'V) rearranged to divide by no beta: raw_blocks passes LAPACK's
    # tau, which is 0 for a column QR skips. The matrix inverted is unit
    # upper triangular (np.triu, then the diagonal set to 1), so its inverse
    # keeps an exact unit diagonal and T[j, j] == beta_j bit for bit.
    unit = np.triu(vt @ np.swapaxes(vt, -1, -2), 1)
    unit *= betas[..., :, None]
    diag = np.arange(betas.shape[-1])
    unit[..., diag, diag] = 1.0
    return np.linalg.inv(unit) * betas[..., None, :]


def band_vt(tails: np.ndarray) -> np.ndarray:
    """V' of consecutive banded reflections, from their free entries.

    tails is size x w, or a stack of such; row j of the size x (size + w)
    result is reflection j: j zeros, the unit pivot, tails[j], then zeros.
    """
    *stack, size, w = tails.shape
    # Rows of length size + w + 1 holding [1, tail_j, 0 ...], read back end
    # to end in rows of length size + w, shift row j right by exactly j columns.
    # The buffer starts on a 64-byte cache line: a 4096x512 plan whose V
    # stack started 16, 32 or 48 bytes past one applied 2-8% slower.
    shape = (*stack, size, size + w + 1)
    raw = np.empty(math.prod(shape) + 8)
    start = -raw.ctypes.data % 64 // 8
    skewed = raw[start : start + math.prod(shape)].reshape(shape)
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
    """The blocks of g's one cached WY plan, rebuilt when block_size changes.

    They run in ascending order; the last is smaller when block_size does
    not divide the count.
    """
    cached_size, blocks = g._plan
    if cached_size != block_size:
        full, rest = divmod(g.count, block_size)
        tail = build_blocks(g, full * block_size, rest, 1) if rest else []
        blocks = tuple(build_blocks(g, 0, block_size, full) + tail)
        g._plan = (block_size, blocks)
    return blocks


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


def in_range(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x brought into range, and the shift: (x 2^-e, e), one e per column.

    A column whose peak exceeds 2^1000 is shifted to just under it; every
    other column gets e = 0 and keeps its bits. A vector is one column.
    When no column is shifted, x itself is returned; otherwise the shifted
    x is a new array and x is left as it is.
    """
    # The per-column pass costs ~3x one flat max/min pass, so it runs only
    # when the flat peak is above 2^1000 or not a number at all.
    if max(x.max(initial=0.0), -x.min(initial=0.0)) <= 2.0**1000:
        return x, np.zeros(x.shape[1:], dtype=int)
    peak = np.maximum(x.max(axis=0, initial=0.0), -x.min(axis=0, initial=0.0))
    e = np.where((2.0**1000 < peak) & (peak < np.inf), np.frexp(peak)[1] - 1000, 0)
    return (np.ldexp(x, -e) if e.any() else x), e


def apply_plan(g, x: np.ndarray, transpose: bool, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """G x, or G' x, for x a vector or a matrix of columns that the caller owns.

    The product is computed in place, in x itself or, when in_range shifts
    a column, in the shifted copy, and that array is returned.
    """
    blocks = plan(g, block_size)
    x, e = in_range(x)
    apply_blocks(blocks if transpose else reversed(blocks), x, transpose)
    return np.ldexp(x, e, out=x) if e.any() else x
