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
    checking it checks every entry, and the factor pipelines hand it to the
    float64 shift (_kernels.in_range), which reads a again only when the
    peak exceeds 2^1000.
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


def _checked(a, name: str) -> tuple[np.ndarray, float]:
    """The input of the factor function name, and its peak max|a|.

    That is as_matrix(a), with m >= n checked after it, so a NaN in a
    2 x 3 input raises the finite ValueError, not ShapeError.
    """
    a, peak = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise ShapeError(f"{name} requires m >= n, got {a.shape[0]} x {a.shape[1]}")
    return a, peak


def _fits(core: np.ndarray, e: np.ndarray | None) -> np.ndarray:
    """core times 2^e per column (e None: no shift), or a ValueError on float64 overflow."""
    with np.errstate(over="ignore"):
        core = core if e is None else np.ldexp(core, e, out=core)
    if not np.isfinite(core).all():
        raise ValueError("the factor of this matrix overflows float64")
    return core


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
    return _tall(*_checked(a, "factor_tall"))


def _tall(a: np.ndarray, peak: float) -> CompactSubspaceFactor:
    m, n = a.shape
    if n in (0, m):
        return CompactSubspaceFactor(BandedReflectors(np.zeros((n, m - n))), -a[:n], Placement.TOP)
    a, e = _kernels.in_range(a, peak)
    g, h, tau, x = _banded_qr(a)
    core = np.triu(np.ascontiguousarray(h[:, :n].T)) @ x.T
    core[tau == 0.0] *= -1.0  # the rows whose skipped reflection is a sign flip
    return CompactSubspaceFactor(g, _fits(core, e), Placement.TOP)


def _banded_qr(a: np.ndarray):
    """G of a tall a, from the banded QR of its band form, with what _tall reads.

    Returns (g, h, tau, x): the reflectors, geqrf's n x m output and tau,
    which overwrote the band form a X in place, and X (see _band_basis).
    """
    band, x = _band_basis(a)
    h = band.T
    tau = _kernels.geqrf(h)
    return _reflectors(h), h, tau, x


def _band_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band form a X of a tall a, Fortran-ordered, and the orthogonal n x n X.

    With w = m - n and P the reversal, the QR of the rotated bottom block,
    P a[w:]' P = Q R, gives X = P Q P, and a[w:] X = P R' P is upper
    triangular: those rows of a X are R itself, exact zeros included. The
    top w rows are a[:w] - a[:w] (I - X), one GEMM with inner dimension n;
    written that way, X = I (an already triangular block, whose
    reflections LAPACK skips) passes them through bit for bit, -0.0
    included, where a[:w] X would turn -0.0 into 0.0.

    The block's QR runs in place on one n x n copy of P a[w:] P, which is
    the rotated block in Fortran order. band is the transpose of a
    C-contiguous n x m buffer, so band.T is ready for geqrf. X is C-ordered,
    and so is the GEMM, into a w x n temporary: computed on transposed
    operands, its last bits differ at 60x25, 200x50 and 1500x300.
    """
    m, n = a.shape
    w = m - n
    h = a[w:][::-1, ::-1].copy()
    tau = _kernels.geqrf(h)
    bt = np.empty((n, m))
    bt[:, w:] = np.triu(h.T)[::-1, ::-1]
    _kernels.orgqr(h, tau)
    x = np.ascontiguousarray(h.T[::-1, ::-1])
    top = a[:w] @ (np.eye(n) - x)
    np.subtract(a[:w].T, top.T, out=bt[:, :w])
    return bt.T, x


def _reflectors(h: np.ndarray) -> BandedReflectors:
    """The reflectors in h, geqrf's output for an m x n band form.

    The band form is zero below row col + m - n; h is that matrix in
    Fortran order, n x m, as geqrf overwrote it: row i holds column i of R
    up to the diagonal, then the tail of reflection i. Any layout of h
    works; geqrf's is C-contiguous, so the skewed read below walks
    contiguous rows. The first m - n tail entries are the free entries;
    the rest, h[i, i+1+w:], are structural zeros and exact by
    construction. The band form comes from input whose columns peak at or
    below 2^1000, so the QR cannot overflow, and a nonzero below the band
    can only be a band defect.
    """
    n, m = h.shape
    w = m - n
    if np.triu(h[:, w + 1 :]).any():
        raise RuntimeError("reflection vector leaked outside the band")
    # Free entries of reflection i are h[i, i + 1 : i + 1 + w]: stepping one
    # row and one column per reflection reads them all through one view,
    # whose last entry is h[n - 1, m - 1]. BandedReflectors copies it.
    return BandedReflectors(as_strided(h[:, 1:], (n, w), (sum(h.strides), h.strides[1])))


def _complement_basis(a: np.ndarray) -> np.ndarray:
    """U2 = H_1 ... H_n (0; I_{m-n}): the last m - n columns of the Q of a.

    The QR runs in place on a.T copied, a in Fortran order, so each WY block
    of raw_blocks copies contiguous rows of it.
    """
    m, n = a.shape
    h = a.T.copy()
    tau = _kernels.geqrf(h)
    u2 = np.eye(m, m - n, -n)
    return _kernels.apply_blocks(_kernels.raw_blocks(h, tau), u2, transpose=False)


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
    return _complement(*_checked(a, "factor_complement"))


def _complement(a: np.ndarray, peak: float) -> CompactSubspaceFactor:
    m, n = a.shape
    k = m - n
    if n in (0, m):
        return CompactSubspaceFactor(BandedReflectors(np.zeros((k, n))), a[k:], Placement.BOTTOM)
    a, e = _kernels.in_range(a, peak)
    g = _banded_qr(_complement_basis(a))[0]
    # B = a[k:] - V2 V1^-1 a[:k], from the vanishing top rows of G' a. Only
    # g of the banded QR is kept, so its buffer is freed before the solve,
    # and V' is freed before the factor copies B. W = V1^-1 a[:k] is not
    # bounded by a, so an overflow there is left to _fits.
    vt = _kernels.band_vt(g.free_entries)
    with np.errstate(over="ignore", invalid="ignore"):
        core = vt[:, k:].T @ np.linalg.solve(vt[:, :k].T, a[:k])
        np.subtract(a[k:], core, out=core)
    del vt
    return CompactSubspaceFactor(g, _fits(core, e), Placement.BOTTOM)


def factor_auto(a) -> CompactSubspaceFactor:
    """Dispatch on the band width: TOP form when m - n >= n, else BOTTOM.

    Either way G ends up with at most m/2 vectors of at least m/2 + 1
    nonzero components, so blocked application stays efficient.
    """
    a, peak = _checked(a, "factor_auto")
    m, n = a.shape
    return _tall(a, peak) if m - n >= n else _complement(a, peak)


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
