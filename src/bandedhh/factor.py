"""Banded Householder factorization of an m x n matrix.

Any real m x n matrix A with m >= n factors as A = G (B; 0) where B is
n x n and G is a product of n Householder reflections whose vectors have a
staircase support: vector i is zero above row i, has an implicit 1 at row
i, carries m - n stored entries below it, and is zero after that. The
stored free entries therefore fit in exactly n(m - n) floats.

For nearly square matrices the same trick applied to the orthogonal
complement of range(A) yields A = G (0; B) with only m - n reflections of
bandwidth n, again n(m - n) floats. factor_auto picks whichever side is
cheaper.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _kernels

__all__ = [
    "ShapeError",
    "Placement",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "factor_tall",
    "factor_complement",
    "factor_auto",
    "reconstruct_a",
    "storage_floats",
]


class ShapeError(ValueError):
    """Matrix dimensions do not satisfy an operation's requirements."""


def _floats(x, copy: bool) -> np.ndarray:
    """x as a C-ordered float64 array, a new one when copy is set.

    Every intake converts through here. Complex x raises ValueError, where
    the conversion would drop the imaginary part with only a warning.
    """
    if np.iscomplexobj(x):
        raise ValueError("expected real values, got complex")
    return (np.array if copy else np.asarray)(x, dtype=np.float64, order="C")


def as_matrix(a) -> tuple[np.ndarray, float]:
    """a as a validated 2-D float64 C-ordered matrix, and its peak max|a|.

    Rejects complex input, anything that is not two-dimensional and any
    NaN/Inf entry; all downstream invariants assume finite arithmetic. The
    peak (_kernels.max_abs, one flat max pass and one min pass) is the one
    read of a for its range: a NaN or Inf entry makes it non-finite, so
    checking it checks every entry, and _factor hands it to the float64
    shift (_kernels.in_range), which reads a again only when the peak
    exceeds 2^1000.
    """
    out = _floats(a, copy=False)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    peak = _kernels.max_abs(out)
    if not np.isfinite(peak):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return out, peak


class Placement(Enum):
    """Which side of the zero block the square core sits on."""

    TOP = 0
    BOTTOM = 1


@dataclass(eq=False)
class BandedReflectors:
    """A product of count Householder reflections with staircase support.

    Reflection i is I - betas[i] v v' on rows i .. i + bandwidth only: v
    is an implicit unit pivot at row i followed by its tail t, the
    bandwidth entries of free_entries[i]. The betas are derived, not
    stored: betas[i] = 2 / (1 + t't) = 2 / (v'v) is the one value that
    makes the reflection orthogonal, so the free entries alone describe
    an orthogonal G. Every reflection is active; an all-zero tail gives
    beta = 2, which flips the sign of row i. The free entries are the
    whole of G: their shape (count, bandwidth) fixes the dimension G acts
    on, ambient_dim = count + bandwidth, a read-only int.

    The one tail rule: each tail must have t't <= 1 + (2 w + 16) eps, with
    w the bandwidth, or the constructor raises ValueError naming the first
    tail that breaks it (a t't that overflows or is NaN breaks it too).
    The tails of a Householder QR have t't <= 1 up to rounding (at most 3
    eps above 1 measured at w = 4000, 201 eps at w = 200000), so their
    betas lie in [1, 2], which the apply engine's overflow analysis
    assumes (see _kernels). The factor file format (read_factor) uses
    this same rule.

    Both arrays are private read-only copies, so the one WY plan cached on
    the instance (see _kernels) always describes the reflections it holds.
    Complex free entries raise ValueError. Instances compare and hash by
    identity, as CompactSubspaceFactor's do: an equality over the arrays
    would have no single truth value.
    """

    free_entries: np.ndarray
    betas: np.ndarray = field(init=False)
    _plan: tuple = field(default=(None, ()), init=False, repr=False)

    def __post_init__(self):
        self.free_entries = _floats(self.free_entries, copy=True)
        self.free_entries.flags.writeable = False
        if self.free_entries.ndim != 2:
            raise ShapeError("free_entries must be a 2-D array")
        t, w = self.free_entries, self.bandwidth
        tt = np.einsum("ij,ij->i", t, t)  # inf, without a warning, on overflow
        long = ~(tt <= 1.0 + (2 * w + 16) * np.finfo(np.float64).eps)  # NaN too
        if long.any():
            i = int(np.argmax(long))
            raise ValueError(
                f"tail of reflection {i} is too long: t't = {float(tt[i])!r} "
                "exceeds 1 + (2 w + 16) eps"
            )
        self.betas = 2.0 / (1.0 + tt)
        self.betas.flags.writeable = False

    @property
    def count(self) -> int:
        return self.free_entries.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.free_entries.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.count + self.bandwidth


@dataclass(eq=False)
class CompactSubspaceFactor:
    """Reflectors plus a square core reconstructing the original matrix.

    placement TOP:    A = G (core; 0), reflectors.count = n
    placement BOTTOM: A = G (0; core), reflectors.count = m - n

    placement is a Placement or its integer value, 0 or 1 (an int, bool or
    numpy integer); anything else, 1.0 and np.float64(0) included, raises
    ValueError.

    Every array a factor holds is a private copy, core C-ordered here and
    the reflectors' in BandedReflectors, so callers never copy for it and
    no view keeps an input or a larger buffer alive. A complex core raises
    ValueError, and so does a NaN or Inf one, so write_factor never writes
    a record that read_factor refuses.
    """

    reflectors: BandedReflectors
    core: np.ndarray
    placement: Placement

    def __post_init__(self):
        self.core = _floats(self.core, copy=True)
        if not isinstance(self.placement, (Placement, int, np.integer)):  # Enum takes 1.0
            raise ValueError(f"{self.placement!r} is not a valid Placement")
        self.placement = Placement(self.placement)
        if self.core.ndim != 2 or self.core.shape[0] != self.core.shape[1]:
            raise ShapeError(f"core must be square, got {self.core.shape}")
        if not np.isfinite(self.core).all():
            raise ValueError("core entries must be finite (no NaN/Inf)")
        n = self.core.shape[0]
        m = self.reflectors.ambient_dim
        expected = n if self.placement is Placement.TOP else m - n
        if self.reflectors.count != expected:
            raise ShapeError(
                f"{self.placement.name} placement needs {expected} reflections, "
                f"got {self.reflectors.count}"
            )


def _factor(a, name: str, placement: Placement | None) -> CompactSubspaceFactor:
    """The factor function name on a; placement None picks TOP when m - n >= n.

    This is the one policy around both pipelines. a goes through as_matrix
    and then the m >= n check, so a NaN in a 2 x 3 input raises the finite
    ValueError, not ShapeError. Square and m x 0 input are answered without
    a QR. Otherwise the pipeline of the placement runs on a brought into
    float64 range (_kernels.in_range), and its core is shifted back, or a
    ValueError names the float64 overflow. Both steps run with overflow
    and invalid-value warnings off: the finiteness check after them is
    what turns such a core into that ValueError, so the pipelines are
    plain arithmetic with no error state of their own.
    """
    a, peak = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"{name} requires m >= n, got {m} x {n}")
    if placement is None:
        placement = Placement.TOP if m - n >= n else Placement.BOTTOM
    top = placement is Placement.TOP
    if n in (0, m):
        k = n if top else m - n
        return CompactSubspaceFactor(BandedReflectors(np.zeros((k, m - k))),
                                     -a[:n] if top else a[k:], placement)
    a, e = _kernels.in_range(a, peak)
    with np.errstate(over="ignore", invalid="ignore"):
        g, core = (_tall if top else _complement)(a)
        core = core if e is None else np.ldexp(core, e, out=core)
    if not np.isfinite(core).all():
        raise ValueError("the factor of this matrix overflows float64")
    return CompactSubspaceFactor(g, core, placement)


def factor_tall(a) -> CompactSubspaceFactor:
    """Factor a = G (B; 0) with G a banded product of n reflections.

    Pipeline: rotate a into band form by an orthogonal n x n X (see
    _band_basis), run Householder QR on a X, and set B = R X'. a X is zero
    below the band (row > col + m - n), so every reflection vector is
    confined to the band and its tail fits in m - n stored entries.

    X comes from the QR of the bottom n x n block of a alone (rotated by
    180 degrees), so a X costs that small QR plus one GEMM over the top
    m - n rows. Both Householder steps are LAPACK dgeqrf, run in place by
    _kernels.geqrf on buffers the pipeline owns: the block QR on one n x n
    copy, the banded QR on the band form itself, from which its reflectors
    are read straight. The input is validated once, on entry, and left
    unchanged, and a C-ordered float64 input is not copied beforehand. That
    check is one flat pass for the peak, max|a| (as_matrix).
    Intermediates, the complement path's U2 included, are not validated
    again. The free entries are read from LAPACK's output through one
    skewed strided view.

    dlarfg scales its norms, so nothing underflows. Overflow follows the
    apply engine's one rule (_kernels.in_range): when max|a| exceeds 2^1000,
    the pipeline runs on a with each column whose peak exceeds 2^1000
    shifted by a power of two to just under it, so no intermediate
    overflows, and only the finished core is shifted back. Below 2^1000
    the entry check's flat peak settles it, with no second pass over a.
    Column j of the core has the 2-norm of column j of a, so the core can
    overflow only when a column's 2-norm exceeds the largest double. Then
    a ValueError names the float64 overflow, and no non-finite factor is
    returned. Sign convention: v = x + sign(x[0]) ||x|| e1 with sign() read
    from the sign bit, so a -0.0 pivot counts as negative. A column that is
    already zero below its pivot, which LAPACK skips (tau = 0), keeps its
    zero tail and so becomes the sign flip of its row (beta = 2). Later
    reflections never touch that row, so the flip commutes with them, and
    that row of the core is negated to match.

    Accuracy: with both sides divided by max|a| first, so that neither norm
    underflows, ||reconstruct_a(f) - a||_F / ||a||_F is at most 1e-12 +
    4 sqrt(m) 2^-1074 / max|a|. The second term is a floor, not a defect:
    the core and the reconstruction are float64 matrices, so on subnormal
    input each entry carries an absolute error of a few units of the
    subnormal spacing 2^-1074. It is negligible for max|a| >= 1e-300.

    Results are bit-identical for the same input on the same numpy,
    LAPACK and BLAS build with the same BLAS thread count.

    Square input short-circuits to G = -I (n reflections with empty tails)
    and B = -a, bit-exactly, and m x 0 input to G = I (no reflections of
    bandwidth m) and an empty B; neither runs a QR.
    """
    return _factor(a, "factor_tall", Placement.TOP)


def _tall(a: np.ndarray) -> tuple[BandedReflectors, np.ndarray]:
    """G and the core of a = G (B; 0), for an in-range a with 0 < n < m.

    _band_basis hands over h, the LAPACK buffer whose first m columns hold
    the band form a X, and X. _reflectors runs the banded QR in place on h,
    so h then holds R up to its diagonal, and returns G and tau. The core
    is R X', with each row whose reflection LAPACK skipped (tau = 0) negated.
    """
    h, x = _band_basis(a)
    g, tau = _reflectors(h, len(a))
    # The transposed copy of R, n x n like X, is freed once triu returns,
    # so only R lives beside the core during the GEMM.
    core = np.triu(_kernels.transpose_into(np.empty_like(x), h[:, : len(x)])) @ x.T
    core[tau == 0.0] *= -1.0  # the rows whose skipped reflection is a sign flip
    return g, core


def _band_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, X): the band form a X of a tall a in a LAPACK buffer, and the n x n X.

    With w = m - n and P the reversal, the QR of the rotated bottom block,
    P a[w:]' P = Q R, gives X = P Q P, and a[w:] X = P R' P is upper
    triangular: those rows of a X are R itself, exact zeros included. The
    top w rows are a[:w] - a[:w] (I - X), one GEMM with inner dimension n;
    written that way, X = I (an already triangular block, whose
    reflections LAPACK skips) passes them through bit for bit, -0.0
    included, where a[:w] X would turn -0.0 into 0.0.

    The block's QR runs in place on one n x n copy of P a[w:] P, which is
    the rotated block in Fortran order. h is the whole lapack_buffer for
    n x m data, whose first m columns hold a X in Fortran order, h[:, :m]
    = (a X)', ready for the banded QR of _reflectors. X is orthogonal and
    C-ordered, and so is the GEMM, into a w x n temporary:
    computed on transposed operands, its last bits differ at 60x25, 200x50
    and 1500x300. The subtraction runs in place in that temporary, which is
    then written into h by _kernels.transpose_into, as are R and X: every
    transposing pass goes 64 rows at a time.
    """
    m, n = a.shape
    w = m - n
    h = _kernels.lapack_buffer(n, n)
    block = h[:, :n]
    block[...] = a[w:][::-1, ::-1]
    tau = _kernels.geqrf(h, n)
    bt = _kernels.lapack_buffer(n, m)
    # P triu(block') P, written as the transpose of P tril(block) P
    _kernels.transpose_into(bt[:, w:m], np.tril(block)[::-1, ::-1])
    _kernels.orgqr(h, n, tau)
    x = _kernels.transpose_into(np.empty((n, n)), block[::-1, ::-1])
    top = a[:w] @ (np.eye(n) - x)
    np.subtract(a[:w], top, out=top)
    _kernels.transpose_into(bt[:, :w], top)
    return bt, x


def _reflectors(h: np.ndarray, m: int) -> tuple[BandedReflectors, np.ndarray]:
    """(G, tau) of the banded QR, run in place on the n x m matrix in h.

    h[:, :m] holds an m x n band form in Fortran order, as _band_basis
    returns it; the band form is zero below row col + m - n. _kernels.geqrf
    overwrites it: row i then holds column i of R up to the diagonal, then
    the tail of reflection i, and tau marks each reflection LAPACK skipped
    with 0. h is C-contiguous, so the skewed read below walks contiguous
    rows. The first m - n tail entries are the free entries; the rest,
    h[i, i+1+w:m], are structural zeros and exact by construction. The band form comes from input whose columns peak at
    or below 2^1000, so the QR cannot overflow, and a nonzero below the
    band can only be a band defect.
    """
    tau = _kernels.geqrf(h, m)
    n = len(h)
    w = m - n
    if np.triu(h[:, w + 1 : m]).any():
        raise RuntimeError("reflection vector leaked outside the band")
    # Free entries of reflection i are h[i, i + 1 : i + 1 + w]: stepping one
    # row and one column per reflection reads them all through one view,
    # whose last entry is h[n - 1, m - 1]. BandedReflectors copies it.
    return BandedReflectors(as_strided(h[:, 1:], (n, w), (sum(h.strides), h.strides[1]))), tau


def _complement_basis(a: np.ndarray) -> np.ndarray:
    """U2 = H_1 ... H_n (0; I_{m-n}): the last m - n columns of the Q of a.

    The QR runs in place on a.T, a in Fortran order, written in tiles into
    the first m columns of a lapack_buffer, so each WY block of raw_blocks
    copies contiguous rows of them.
    """
    m, n = a.shape
    h = _kernels.lapack_buffer(n, m)
    _kernels.transpose_into(h[:, :m], a)
    tau = _kernels.geqrf(h, m)
    u2 = np.eye(m, m - n, -n)
    return _kernels.apply_blocks(_kernels.raw_blocks(h[:, :m], tau), u2, transpose=False)


def factor_complement(a) -> CompactSubspaceFactor:
    """Factor a = G (0; B) through the orthogonal complement of range(a).

    The complement basis comes from a raw QR of a (LAPACK dgeqrf, run in
    place on one transposed copy of a, no Q formed):
    U2 = H_1 ... H_n (0; I_{m-n}), the last m - n columns of Q only, built
    by applying the n reflectors in WY blocks of BLOCK_SIZE
    from the last block to the first. On top of the QR that costs at most
    4 m n (m - n) flops for the updates and 2 b m n for the b x b T
    factors (b = BLOCK_SIZE), never the m x m Q.
    G is the reflectors of the factor_tall pipeline's band basis and
    banded QR run on U2, m - n reflections of bandwidth n; U2 is not
    validated again, like every intermediate, and its core is never
    formed. A reflection that this QR skips is the sign flip of a row in
    the zero block, so it needs no change to B. B is the bottom n rows of
    G' a = a - V W, with k = m - n and
    V = [V1; V2] the m x k unit lower band of G's vectors. The top k rows
    vanish because the complement is orthogonal to range(a), so
    W = V1^-1 a[:k] and B = a[k:] - V2 W: 2 k^2 n + 2 k n^2 + 2/3 k^3
    flops and no m x n workspace, where the whole product G' a takes
    about 4 k m n. This is the identity behind Householder
    reconstruction (Ballard et al., IPDPS 2014). When
    m - n <= n, the shape factor_auto sends here, the traced peak memory
    stays near twice the input, chiefly the core and the factor's copy of
    it (2.12x at 1000 x 996, 1.94x at 1200 x 1000). Otherwise U2 and its
    factoring outgrow the input (996 columns at 1000 x 4): call
    factor_tall instead.

    Square input short-circuits to an empty G and B = a, bit-exactly, and
    m x 0 input to m sign flips (bandwidth 0) and an empty B. For
    numerically rank-deficient input the complement basis is not unique,
    so neither is the output, but the reconstruction contract still holds.
    The input is validated once, on entry, and when its peak exceeds
    2^1000 its columns are shifted below it as factor_tall describes.
    The shift leaves range(a), on which G depends, unchanged, and the core
    solve acts column by column, so only the finished core is shifted back.
    It raises factor_tall's ValueError when that core, or the solve for W,
    overflows float64.
    """
    return _factor(a, "factor_complement", Placement.BOTTOM)


def _complement(a: np.ndarray) -> tuple[BandedReflectors, np.ndarray]:
    """G and the core of a = G (0; B), for an in-range a with 0 < n < m.

    G is _reflectors run on the LAPACK buffer that _band_basis fills from
    the complement basis U2; only G is kept, and the core comes from one
    k x k solve.
    """
    k = a.shape[0] - a.shape[1]
    g = _reflectors(_band_basis(_complement_basis(a))[0], len(a))[0]
    # B = a[k:] - V2 V1^-1 a[:k], from the vanishing top rows of G' a. Only
    # g of the banded QR is kept, so its buffer is freed before the solve,
    # and V' dies on return, before the factor copies B. W = V1^-1 a[:k] is
    # not bounded by a, so an overflow there is left to _factor.
    vt = _kernels.band_vt(g.free_entries)
    core = vt[:, k:].T @ np.linalg.solve(vt[:, :k].T, a[:k])
    np.subtract(a[k:], core, out=core)
    return g, core


def factor_auto(a) -> CompactSubspaceFactor:
    """Dispatch on the band width: TOP form when m - n >= n, else BOTTOM.

    Either way G ends up with at most m/2 vectors of at least m/2 + 1
    nonzero components, so blocked application stays efficient.
    """
    return _factor(a, "factor_auto", None)


def reconstruct_a(f: CompactSubspaceFactor) -> np.ndarray:
    """Rebuild the dense m x n matrix G (core; 0) or G (0; core)."""
    g = f.reflectors
    m = g.ambient_dim
    n = f.core.shape[0]
    padded = np.zeros((m, n))
    rows = slice(0, n) if f.placement is Placement.TOP else slice(m - n, m)
    padded[rows] = f.core
    return _kernels.apply_plan(g, padded, transpose=False)


def storage_floats(g: BandedReflectors) -> int:
    """Floats needed for the reflection vectors alone: count * bandwidth."""
    return g.count * g.bandwidth
