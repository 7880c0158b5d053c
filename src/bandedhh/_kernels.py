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
its complement basis that way. Its core solve takes V' of its own banded
reflectors from band_vt, the layout the plan's blocks use, and needs no T
and no plan.

Every QR of the package runs here, through geqrf and orgqr: LAPACK dgeqrf
and dorgqr, in place, on the array the caller allocated. An m x n matrix
in Fortran order is an n x m array in C order, so the caller writes the
matrix transposed into the first m columns of an array h from
lapack_buffer, once, and reads R, the reflectors or Q straight out of
them. The caller hands over h itself and names m; LAPACK gets h with its
width as the leading dimension, and lapack_buffer's docstring states the
one padding rule that width follows. Without the padding, factor_auto ran
3-5% slower at 4096 x 512, 6-9% at 4096 x 1024 and 10% at 1024 x 1000
(paired calls, one BLAS thread). np.linalg.qr gives the same bits (the
same LAPACK and the same workspace) but copies its input twice on the way
in and once on the way out.

Every transposing copy of the factor pipelines goes through transpose_into,
which writes 64 rows of its source at a time. A whole-array transposed copy
walks one side down its columns, one cache line per row; when rows lie a
multiple of 4 KB apart, those lines compete for the same cache sets and are
evicted before their neighbours are read (the 4096 x 512 band form took
about 5x as long that way), while a 64-row tile stays in cache. Both
helpers only move data, so every output keeps its bits.

Each block forms V'x before it scales by T, which overflows near half the
largest double although G is orthogonal. This module holds the one
float64-range rule, in_range: an input whose flat peak max|x| is at most
2^1000 is used as it is, bit for bit; otherwise each column whose own peak
exceeds 2^1000 is shifted by the power of two that brings that peak just
under it, and every other column keeps its bits. The caller reads the flat
peak (max_abs) once: a factor call on entry (factor.as_matrix, where it is
also the finite check), a product in apply_plan. A factor call
(factor._factor) runs its pipeline on the shifted input and shifts only
the finished core back; apply_plan shifts its product back. Below
2^1000 per column, no intermediate of either can overflow: each is bounded
by about sqrt(m n) 2^1000, since every G has betas in [1, 2], up to
rounding (BandedReflectors' tail rule). Columns never mix under G, so the
shift is exact except for the entries below 2^-998 of a shifted column,
which fall subnormal and lose bits (at most 2^-1998 of that column's
peak). NaN and Inf never trigger it.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

BLOCK_SIZE = 32
TILE_ROWS = 64


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
    # The buffer starts on a 64-byte cache line: without that, the 4096x512
    # single-vector apply ran 7-9% slower (paired calls, one BLAS thread).
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


def _lapack(routine, *args) -> None:
    """routine(*args, work, lwork, info) after a workspace query, or LinAlgError.

    An argument LAPACK refuses fails the query already, which then leaves
    work unset, so its info is checked before work is read.
    """
    work = np.empty(1)
    info = routine(*args, work, -1, 0)["info"]
    if info == 0:
        lwork = max(1, int(work[0]))
        info = routine(*args, np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} returned info = {info}")


def transpose_into(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Write x.T into out, TILE_ROWS rows of x at a time, and return out.

    x is any 2-D view, reversed ones included; out is a view of the
    transposed shape. Only data moves, so out holds x.T bit for bit.
    """
    for i in range(0, x.shape[0], TILE_ROWS):
        out[:, i : i + TILE_ROWS] = x[i : i + TILE_ROWS].T
    return out


def lapack_buffer(rows: int, cols: int) -> np.ndarray:
    """A fresh uninitialised C-contiguous float64 array for rows x cols data.

    It is cols wide, or cols + 8 wide when 8 cols bytes is a multiple of
    4096, so that LAPACK's leading dimension, the array's width, is never
    a multiple of 4 KB: its rows lie one 64-byte line more apart. The
    caller writes and reads the data through [:, :cols] and hands geqrf
    and orgqr the whole array.
    """
    return np.empty((rows, cols if 8 * cols % 4096 else cols + 8))


def geqrf(h: np.ndarray, m: int) -> np.ndarray:
    """Householder QR, in place, of the m x n matrix in h; returns tau.

    h is C-contiguous native float64, n x m or wider, usually from
    lapack_buffer, and h[:, :m] holds the matrix in Fortran order: h[:, :m]
    = a.T for the a factored. LAPACK gets h itself, with M = m, N = len(h)
    and lda = h.shape[1], and leaves every column from m on as it was.
    Afterwards h[:, :m] holds what np.linalg.qr(a, mode="raw") returns as
    h, bit for bit: row j is column j of R up to the diagonal, then the
    tail of reflection j. lapack_lite refuses every other layout or dtype
    with LapackError, so none is ever copied silently, and LAPACK refuses
    m > h.shape[1] (dgeqrf info -4) with LinAlgError; nothing checks that
    h is writeable. numpy's own API tests list numpy.linalg.lapack_lite as
    private but present. Unlike np.linalg.qr, it holds the GIL while
    LAPACK runs: another Python thread advanced for about one switch
    interval (5 ms) during a 290 ms dgeqrf at 4096x1024, and through the
    whole of np.linalg.qr.
    """
    n = len(h)
    tau = np.empty(min(m, n))
    _lapack(lapack_lite.dgeqrf, m, n, h, h.shape[1], tau)
    return tau


def orgqr(h: np.ndarray, m: int, tau: np.ndarray) -> None:
    """Overwrite geqrf's output in h with the first n columns of Q, in place.

    h and m are as geqrf took them, with n = len(h) <= m, so afterwards
    h[:, :m].T is the Q of np.linalg.qr(a) (mode "reduced"), bit for bit.
    LAPACK refuses m > h.shape[1] (dorgqr info -5) with LinAlgError.
    """
    _lapack(lapack_lite.dorgqr, m, len(h), len(tau), h, h.shape[1], tau)


def raw_blocks(h: np.ndarray, tau: np.ndarray):
    """WY blocks of the reflectors geqrf left in h, last to first.

    h is n x m: reflection j has a unit pivot at row j and its tail in
    h[j, j + 1:], so each block copies contiguous rows. Block [s, e) has
    V' = triu(h[s:e, s:], 1) with a unit diagonal, (e - s) x (m - s).
    Blocks are built one at a time as the caller consumes them, so only one
    is held at once.
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


def max_abs(x: np.ndarray) -> float:
    """max|x| over every entry, from one max pass and one min pass.

    It is NaN if x holds a NaN, else Inf if x holds +-Inf, and 0.0 for an
    empty x, so np.isfinite(max_abs(x)) checks every entry.
    """
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def in_range(x: np.ndarray, peak: float) -> tuple[np.ndarray, np.ndarray | None]:
    """x brought into range, and the shift: (x 2^-e, e), one e per column.

    peak is max_abs(x). When it is at most 2^1000, x itself comes back with
    e = None, and no column is read again. Otherwise, and so also when peak
    is NaN, each column whose own peak exceeds 2^1000 is shifted to just
    under it: the shifted x is a new array, x is left as it is, and e is 0
    in every other column. When no finite column peak exceeds 2^1000 (x
    holds NaN or Inf), x and None come back.
    """
    if peak <= 2.0**1000:
        return x, None
    # The per-column pass costs ~3x the flat one on tall C-ordered x, so
    # only an operand above the limit, or with a NaN, pays for it.
    peak = np.maximum(x.max(axis=0, initial=0.0), -x.min(axis=0, initial=0.0))
    e = np.where((2.0**1000 < peak) & (peak < np.inf), np.frexp(peak)[1] - 1000, 0)
    return (np.ldexp(x, -e), e) if e.any() else (x, None)


def apply_plan(g, x: np.ndarray, transpose: bool, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """G x, or G' x, for x a vector or a matrix of columns that the caller owns.

    The product is computed in place, in x itself or, when in_range shifts
    a column, in the shifted copy, and that array is returned.
    """
    x, e = in_range(x, max_abs(x))
    x = apply_blocks(plan(g, block_size)[:: 1 if transpose else -1], x, transpose)
    return x if e is None else np.ldexp(x, e, out=x)
