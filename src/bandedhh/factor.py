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
    "as_matrix",
    "Placement",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "factor_tall",
    "factor_complement",
    "factor_auto",
    "reconstruct_a",
    "storage_floats",
    "storage_floats_with_betas",
]


class ShapeError(ValueError):
    """Matrix dimensions do not satisfy an operation's requirements."""


def as_matrix(a) -> np.ndarray:
    """Validate a as a 2-D float64 C-ordered matrix and return it.

    Rejects anything that is not two-dimensional and any NaN/Inf entry;
    all downstream invariants assume finite arithmetic.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return out


class Placement(Enum):
    """Which side of the zero block the square core sits on."""

    TOP = 0
    BOTTOM = 1


@dataclass
class BandedReflectors:
    """A product of count Householder reflections with staircase support.

    Reflection i acts on rows i .. i + bandwidth only: an implicit unit
    pivot at row i followed by the bandwidth entries of free_entries[i].
    betas[i] = 2 / (v_i' v_i), or exactly 0.0 for a skipped reflection,
    which behaves as the identity. count + bandwidth = ambient_dim always.

    Both arrays are private read-only copies, so the WY plans cached on the
    instance (see _kernels) always describe the reflections it holds.
    """

    ambient_dim: int
    free_entries: np.ndarray
    betas: np.ndarray
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.free_entries = np.array(self.free_entries, dtype=np.float64)
        self.betas = np.array(self.betas, dtype=np.float64)
        self.free_entries.flags.writeable = False
        self.betas.flags.writeable = False
        if self.free_entries.ndim != 2:
            raise ShapeError("free_entries must be a 2-D array")
        k, w = self.free_entries.shape
        if self.betas.shape != (k,):
            raise ShapeError(f"expected {k} betas, got {self.betas.shape}")
        if k + w != self.ambient_dim:
            raise ShapeError(
                f"count + bandwidth must equal ambient_dim: {k} + {w} != {self.ambient_dim}"
            )

    @property
    def count(self) -> int:
        return self.free_entries.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.free_entries.shape[1]


@dataclass
class CompactSubspaceFactor:
    """Reflectors plus a square core reconstructing the original matrix.

    placement TOP:    A = G (core; 0), reflectors.count = n
    placement BOTTOM: A = G (0; core), reflectors.count = m - n

    Every array a factor holds is a private copy, core C-ordered here and
    the reflectors' in BandedReflectors, so callers never copy for it and
    no view keeps an input or a larger buffer alive.
    """

    reflectors: BandedReflectors
    core: np.ndarray
    placement: Placement

    def __post_init__(self):
        self.core = np.array(self.core, dtype=np.float64, order="C")
        n = self.core.shape[0]
        if self.core.shape != (n, n):
            raise ShapeError(f"core must be square, got {self.core.shape}")
        m = self.reflectors.ambient_dim
        expected = n if self.placement is Placement.TOP else m - n
        if self.reflectors.count != expected:
            raise ShapeError(
                f"{self.placement.name} placement needs {expected} reflections, "
                f"got {self.reflectors.count}"
            )


def _checked(a, name: str) -> np.ndarray:
    """The input of the factor function name: as_matrix(a), with m >= n."""
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise ShapeError(f"{name} requires m >= n, got {a.shape[0]} x {a.shape[1]}")
    return a


def _fits(x: np.ndarray) -> np.ndarray:
    """x, or a ValueError if computing it overflowed float64."""
    if not np.isfinite(x).all():
        raise ValueError("the factor of this matrix overflows float64")
    return x


def factor_tall(a) -> CompactSubspaceFactor:
    """Factor a = G (B; 0) with G a banded product of n reflections.

    Pipeline: rotate a into band form by an orthogonal n x n X (see
    _band_basis), run Householder QR on a X, and set B = R X'. a X is zero
    below the band (row > col + m - n), so every reflection vector is
    confined to the band and its tail fits in m - n stored entries.

    X comes from the QR of the bottom n x n block of a alone (rotated by
    180 degrees), so a X costs that small QR plus one GEMM over the top
    m - n rows. Both Householder steps are LAPACK dgeqrf through
    np.linalg.qr, and the banded QR reads its reflectors straight from
    mode="raw". The input is validated once, on entry, and left unchanged,
    and a C-ordered float64 input is not copied beforehand. Intermediates,
    the complement path's U2 included, are not validated again. The free
    entries are read from LAPACK's output through one skewed strided view.

    dlarfg scales its norms, so nothing underflows, but a finite input
    near the largest double can still overflow: a column whose norm
    exceeds it, or an intermediate such as ||x|| + |x[0]| in dlarfg. Then
    a ValueError names the float64 overflow, and no non-finite factor is
    returned. Only the betas and the core are checked. Sign convention:
    v = x + sign(x[0]) ||x|| e1 with sign() read from the sign bit, so a
    -0.0 pivot counts as negative; a column that is already zero below its
    pivot gets beta = 0 (the identity).

    Accuracy: with both sides divided by max|a| first, so that neither norm
    underflows, ||reconstruct_a(f) - a||_F / ||a||_F is at most 1e-12 +
    4 sqrt(m) 2^-1074 / max|a|. The second term is a floor, not a defect:
    the core and the reconstruction are float64 matrices, so on subnormal
    input each entry carries an absolute error of a few units of the
    subnormal spacing 2^-1074. It is negligible for max|a| >= 1e-300.

    Results are bit-identical for the same input on the same numpy,
    LAPACK and BLAS build with the same BLAS thread count.

    Square input short-circuits to G = I and B = a, bit-exactly.
    """
    return _tall(_checked(a, "factor_tall"))


def _tall(a: np.ndarray) -> CompactSubspaceFactor:
    m, n = a.shape
    if m == n:
        g = BandedReflectors(m, np.zeros((n, 0)), np.zeros(n))
        return CompactSubspaceFactor(g, a, Placement.TOP)
    # An overflow is reported by _fits, from the betas and the core; numpy's
    # warnings on the way there would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        band, x = _band_basis(a)
        g, h = _banded_qr(band)
        core = np.triu(h[:, :n].T) @ x.T
    return CompactSubspaceFactor(g, _fits(core), Placement.TOP)


def _band_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Band form a X of a tall a, and the orthogonal n x n X, C-ordered.

    With w = m - n and P the reversal, the QR of the rotated bottom block,
    P a[w:]' P = Q R, gives X = P Q P, and a[w:] X = P R' P is upper
    triangular: those rows of a X are R itself, exact zeros included. The
    top w rows are a[:w] - a[:w] (I - X), one GEMM with inner dimension n;
    written that way, X = I (an already triangular block, whose
    reflections LAPACK skips) passes them through bit for bit, -0.0
    included, where a[:w] X would turn -0.0 into 0.0.
    """
    m, n = a.shape
    w = m - n
    q, r = np.linalg.qr(a[w:][::-1, ::-1].T)
    x = np.ascontiguousarray(q[::-1, ::-1])
    band = np.empty((m, n))
    band[w:] = r.T[::-1, ::-1]
    np.matmul(a[:w], np.eye(n) - x, out=band[:w])
    np.subtract(a[:w], band[:w], out=band[:w])
    return band, x


def _banded_qr(band: np.ndarray) -> tuple[BandedReflectors, np.ndarray]:
    """Reflectors of the raw QR of band, which is zero below row col + m - n.

    Also returns LAPACK's output transposed, h: row i holds column i of R
    up to the diagonal, then the tail of reflection i. The first m - n
    tail entries are the free entries; the rest, h[i, i+1+w:], are
    structural zeros and exact by construction.
    """
    m, n = band.shape
    w = m - n
    h, betas = np.linalg.qr(band, mode="raw")
    # Before the leak check: NaN from an overflow spreads below the band too,
    # and is no band defect.
    _fits(betas)
    if np.triu(h[:, w + 1 :]).any():
        raise RuntimeError("reflection vector leaked outside the band")
    # Free entries of reflection i are h[i, i + 1 : i + 1 + w]: stepping one
    # row and one column per reflection reads them all through one view,
    # whose last entry is h[n - 1, m - 1]. BandedReflectors copies it.
    s0, s1 = h.strides
    return BandedReflectors(m, as_strided(h[:, 1:], (n, w), (s0 + s1, s1)), betas), h


def _complement_basis(a: np.ndarray) -> np.ndarray:
    """U2 = H_1 ... H_n (0; I_{m-n}): the last m - n columns of the Q of a."""
    m, n = a.shape
    h, tau = np.linalg.qr(a, mode="raw")
    _fits(tau)
    u2 = np.eye(m, m - n, -n)
    return _kernels.apply_blocks(_kernels.raw_blocks(h, tau), u2, transpose=False)


def factor_complement(a) -> CompactSubspaceFactor:
    """Factor a = G (0; B) through the orthogonal complement of range(a).

    The complement basis comes from a raw QR of a (LAPACK dgeqrf, no Q
    formed): U2 = H_1 ... H_n (0; I_{m-n}), the last m - n columns of Q
    only, built by applying the n reflectors in WY blocks of BLOCK_SIZE
    from the last block to the first. On top of the QR that costs at most
    4 m n (m - n) flops for the updates and 2 b m n for the b x b T
    factors (b = BLOCK_SIZE), never the m x m Q.
    G is the reflectors of the factor_tall pipeline's band basis and
    banded QR run on U2, m - n reflections of bandwidth n; U2 is not
    validated again, like every intermediate, and its core is never
    formed. B is the bottom n rows of G' a = a - V W, with k = m - n and
    V = [V1; V2] the m x k unit lower band of G's vectors. The top k rows
    vanish because the complement is orthogonal to range(a), so
    W = V1^-1 a[:k] and B = a[k:] - V2 W: 2 k^2 n + 2 k n^2 + 2/3 k^3
    flops and no m x n workspace, where the whole product G' a takes
    about 4 k m n. This is the identity behind Householder
    reconstruction (Ballard et al., IPDPS 2014). When
    m - n <= n, the shape factor_auto sends here, the traced peak memory
    is at most about twice the input: the core and the factor's copy of
    it. Otherwise U2 and its factoring outgrow the input (996 columns at
    1000 x 4): call factor_tall instead.

    Square input short-circuits to an empty G and B = a, bit-exactly. For
    numerically rank-deficient input the complement basis is not unique,
    so neither is the output, but the reconstruction contract still holds.
    The input is validated once, on entry, and an overflow raises the
    ValueError that factor_tall describes.
    """
    return _complement(_checked(a, "factor_complement"))


def _complement(a: np.ndarray) -> CompactSubspaceFactor:
    m, n = a.shape
    if m == n:
        g = BandedReflectors(m, np.zeros((0, m)), np.zeros(0))
        return CompactSubspaceFactor(g, a, Placement.BOTTOM)
    k = m - n
    g = _banded_qr(_band_basis(_complement_basis(a))[0])[0]
    # B = a[k:] - V2 V1^-1 a[:k], from the vanishing top rows of G' a. V' is
    # freed before the factor copies B.
    vt = _kernels.band_vt(g.free_entries)
    with np.errstate(over="ignore", invalid="ignore"):
        core = vt[:, k:].T @ np.linalg.solve(vt[:, :k].T, a[:k])
        np.subtract(a[k:], core, out=core)
    del vt
    return CompactSubspaceFactor(g, _fits(core), Placement.BOTTOM)


def factor_auto(a) -> CompactSubspaceFactor:
    """Dispatch on the band width: TOP form when m - n >= n, else BOTTOM.

    Either way G ends up with at most m/2 vectors of at least m/2 + 1
    nonzero components, so blocked application stays efficient.
    """
    a = _checked(a, "factor_auto")
    m, n = a.shape
    return _tall(a) if m - n >= n else _complement(a)


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


def storage_floats_with_betas(g: BandedReflectors) -> int:
    """storage_floats plus one stored beta per reflection."""
    return g.count * g.bandwidth + g.count
