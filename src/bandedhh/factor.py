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
from .dense import ShapeError, as_matrix

__all__ = [
    "Placement",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "factor_tall",
    "factor_complement",
    "factor_auto",
    "reconstruct_g",
    "reconstruct_a",
    "storage_floats",
    "storage_floats_with_betas",
]


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

    def implied_vector(self, i: int) -> np.ndarray:
        """Materialize reflection vector i as a dense length-m array."""
        v = np.zeros(self.ambient_dim)
        v[i] = 1.0
        v[i + 1 : i + 1 + self.bandwidth] = self.free_entries[i]
        return v


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

    Pipeline: rotate a by 180 degrees, take an LQ factorization, rotate L
    back, and run Householder QR on the result. The rotated L has exact
    zeros below the band (row > col + m - n), so every reflection vector
    is confined to the band and its tail fits in m - n stored entries.
    B is R times the rotated Q.

    Both Householder steps are LAPACK dgeqrf through np.linalg.qr: the LQ
    is the reduced QR of the transpose, and the banded QR reads its
    reflectors straight from mode="raw". The 180 degree rotations of a and
    of L are reversed views (x[::-1, ::-1]) that np.linalg.qr copies for
    LAPACK itself: the input is validated on entry and left unchanged, and
    a C-ordered float64 input is not copied beforehand. Intermediates are
    not validated again. The free entries are read from LAPACK's output
    through one skewed strided view. Only the n x n rotated Q is copied,
    to C order, for the core product.

    dlarfg scales its norms, so any finite input factors without overflow
    or underflow. Sign convention: v = x + sign(x[0]) ||x|| e1 with sign()
    read from the sign bit, so a -0.0 pivot counts as negative; a column
    that is already zero below its pivot gets beta = 0 (the identity).

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
    # LQ of a rotated by 180 degrees from the QR of its transpose: L = R', Q = Q'.
    q_lq, r_lq = np.linalg.qr(a[::-1, ::-1].T)
    g, h = _banded_qr(r_lq.T)
    # matmul would pass the reversed view to BLAS in another layout, and
    # OpenBLAS's small-matrix dgemm kernels round differently for it.
    core = np.triu(h[:, :n].T) @ np.ascontiguousarray(q_lq.T[::-1, ::-1])
    return CompactSubspaceFactor(g, core, Placement.TOP)


def _banded_qr(l: np.ndarray) -> tuple[BandedReflectors, np.ndarray]:
    """Reflectors of the raw QR of l rotated by 180 degrees, l the L of an LQ.

    Also returns LAPACK's output transposed, h: row i holds column i of R
    up to the diagonal, then the tail of reflection i. The first m - n
    tail entries are the free entries; the rest, h[i, i+1+w:], are
    structural zeros and exact by construction.
    """
    m, n = l.shape
    w = m - n
    h, betas = np.linalg.qr(l[::-1, ::-1], mode="raw")
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
    bandwidth n; only the L of its LQ is formed (mode="r"), not its Q or
    core. As in factor_tall, that LQ reads a reversed view of U2 and the
    banded QR one of its L, so the copies np.linalg.qr makes for LAPACK
    are the only copies of either.
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
        l = np.linalg.qr(_complement_basis(a)[::-1, ::-1].T, mode="r").T
        g, _ = _banded_qr(l)
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


def reconstruct_g(g: BandedReflectors) -> np.ndarray:
    """Dense m x m product H_1 H_2 ... H_k built one reflection at a time.

    Deliberately slow and simple; serves as the independent oracle for the
    WY apply engine.
    """
    m = g.ambient_dim
    out = np.eye(m)
    for i in range(g.count):
        beta = g.betas[i]
        if beta == 0.0:
            continue
        v = g.implied_vector(i)
        out = out @ (np.eye(m) - beta * np.outer(v, v))
    return out


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
