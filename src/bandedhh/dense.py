"""Dense building blocks: validation, the 180 degree flip, and a test metric.

Matrices are plain 2-D float64 numpy arrays in row-major order. Everything
here is a pure function; inputs are never mutated.

as_matrix is the one validation step: each public entry point calls it
once on its input. flip180 is not a factorization step; the factorization
rotates by 180 degrees with reversed views (x[::-1, ::-1]) that LAPACK
reads directly, and flip180 remains as a copying reference for tests.

There is no Householder kernel here. Both QR steps of the factorization
(of the bottom n x n block, which gives the band basis, and the banded
QR) are LAPACK dgeqrf, reached through np.linalg.qr (see
factor.factor_tall), and the reflectors come out of LAPACK dlarfg with
the convention the stored factors use: v = x + sign(x[0]) ||x|| e1,
scaled so its leading component is an implicit 1, and beta = 2 / (v'v).
sign() reads the sign bit, so a -0.0 pivot counts as negative. A column
whose part below the pivot is exactly zero gets beta = 0 and is left
untouched.
"""

import numpy as np

__all__ = [
    "ShapeError",
    "as_matrix",
    "flip180",
    "orthogonality_defect",
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


def flip180(a) -> np.ndarray:
    """Rotate a matrix by 180 degrees: out[i, j] = a[m-1-i, n-1-j]."""
    a = as_matrix(a)
    return np.ascontiguousarray(a[::-1, ::-1])


def orthogonality_defect(q) -> float:
    """Frobenius norm of q'q - I, zero iff the columns are orthonormal."""
    q = as_matrix(q)
    n = q.shape[1]
    return float(np.linalg.norm(q.T @ q - np.eye(n)))
