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
    """

    reflectors: BandedReflectors
    core: np.ndarray
    placement: Placement

    def __post_init__(self):
        self.core = np.ascontiguousarray(self.core, dtype=np.float64)
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
    mode="raw". The input is validated on entry and left unchanged, and a
    C-ordered float64 input is not copied beforehand. Intermediates are
    not validated again. The free entries are read from LAPACK's output
    through one skewed strided view.

    dlarfg scales its norms, so any finite input factors without overflow
    or underflow. Sign convention: v = x + sign(x[0]) ||x|| e1 with sign()
    read from the sign bit, so a -0.0 pivot counts as negative; a column
    that is already zero below its pivot gets beta = 0 (the identity).

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
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"factor_tall requires m >= n, got {m} x {n}")
    if m == n:
        g = BandedReflectors(m, np.zeros((n, 0)), np.zeros(n))
        return CompactSubspaceFactor(g, a.copy(), Placement.TOP)
    if n == 0:
        g = BandedReflectors(m, np.zeros((0, m)), np.zeros(0))
        return CompactSubspaceFactor(g, np.zeros((0, 0)), Placement.TOP)
    band, x = _band_basis(a)
    g, h = _banded_qr(band)
    core = np.triu(h[:, :n].T) @ x.T
    return CompactSubspaceFactor(g, core, Placement.TOP)


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
    u2 = np.eye(m, m - n, -n)
    return _kernels.apply_blocks(_kernels.raw_blocks(h, tau), u2, transpose=False)


def factor_complement(a) -> CompactSubspaceFactor:
    """Factor a = G (0; B) through the orthogonal complement of range(a).

    The complement basis comes from a raw QR of a (LAPACK dgeqrf, no Q
    formed): U2 = H_1 ... H_n (0; I_{m-n}), the last m - n columns of Q
    only, built by applying the n reflectors in WY blocks of BLOCK_SIZE
    from the last block to the first. On top of the QR that costs at most
    4 m n (m - n) flops for the updates and 2 b m n for the b x b T
    factors (b = BLOCK_SIZE), never the m x m Q. When m - n <= n, the
    shape factor_auto sends here, the traced peak memory is about twice
    the input; otherwise U2 adds m (m - n) floats on top of that.
    The reflectors of factor_tall(U2) then give G, m - n reflections of
    bandwidth n, through the same _band_basis and banded QR; its core is
    not formed. _band_basis forms the Q of the bottom (m - n) x (m - n)
    block of U2, which on the near-square shapes factor_auto sends here is
    small. On input with m - n > n that Q is larger than the input (996 x
    996 at 1000 x 4); factor_tall is the right call for such input.
    B is the bottom n rows of G' a. The top m - n rows of G' a vanish
    because the complement is orthogonal to range(a).

    Square input short-circuits to an empty G and B = a, bit-exactly. For
    numerically rank-deficient input the complement basis is not unique,
    so neither is the output, but the reconstruction contract still holds.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"factor_complement requires m >= n, got {m} x {n}")
    if m == n:
        g = BandedReflectors(m, np.zeros((0, m)), np.zeros(0))
        return CompactSubspaceFactor(g, a.copy(), Placement.BOTTOM)
    if n == 0:
        g = BandedReflectors(m, np.zeros((m, 0)), np.zeros(m))
    else:
        g, _ = _banded_qr(_band_basis(_complement_basis(a))[0])
    gt_a = _kernels.apply_plan(g, a.copy(), transpose=True)
    core = np.ascontiguousarray(gt_a[m - n :])
    return CompactSubspaceFactor(g, core, Placement.BOTTOM)


def factor_auto(a) -> CompactSubspaceFactor:
    """Dispatch on the band width: TOP form when m - n >= n, else BOTTOM.

    Either way G ends up with at most m/2 vectors of at least m/2 + 1
    nonzero components, so blocked application stays efficient.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"factor_auto requires m >= n, got {m} x {n}")
    if m - n >= n:
        return factor_tall(a)
    return factor_complement(a)


def reconstruct_a(f: CompactSubspaceFactor) -> np.ndarray:
    """Rebuild the dense m x n matrix G (core; 0) or G (0; core)."""
    g = f.reflectors
    m = g.ambient_dim
    n = f.core.shape[0]
    padded = np.zeros((m, n))
    if f.placement is Placement.TOP:
        padded[:n] = f.core
    else:
        padded[m - n :] = f.core
    return _kernels.apply_plan(g, padded, transpose=False)


def storage_floats(g: BandedReflectors) -> int:
    """Floats needed for the reflection vectors alone: count * bandwidth."""
    return g.count * g.bandwidth


def storage_floats_with_betas(g: BandedReflectors) -> int:
    """storage_floats plus one stored beta per reflection."""
    return g.count * g.bandwidth + g.count
