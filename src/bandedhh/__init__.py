"""Banded Householder factorization of linear subspaces.

Factor any m x n real matrix A (m >= n) as A = G (B; 0) or A = G (0; B)
where B is square and G is a product of Householder reflections whose
vectors share a staircase support, storable in exactly n(m - n) floats.
"""

from .apply import (
    BlockedWY,
    FlopCounter,
    apply,
    apply_blocked,
    apply_counted,
    apply_to_matrix,
    apply_transpose,
    wy_chain,
)
from .factor import (
    BandedReflectors,
    CompactSubspaceFactor,
    Placement,
    ShapeError,
    factor_auto,
    factor_complement,
    factor_tall,
    reconstruct_a,
    storage_floats,
    storage_floats_with_betas,
)
from .storage import (
    BadMagicError,
    DimensionError,
    FactorFormatError,
    MatrixFormatError,
    TruncatedPayloadError,
    read_factor,
    read_matrix,
    write_factor,
    write_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BlockedWY",
    "FlopCounter",
    "apply",
    "apply_blocked",
    "apply_counted",
    "apply_to_matrix",
    "apply_transpose",
    "wy_chain",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "Placement",
    "ShapeError",
    "factor_auto",
    "factor_complement",
    "factor_tall",
    "reconstruct_a",
    "storage_floats",
    "storage_floats_with_betas",
    "BadMagicError",
    "DimensionError",
    "FactorFormatError",
    "MatrixFormatError",
    "TruncatedPayloadError",
    "read_factor",
    "read_matrix",
    "write_factor",
    "write_matrix",
    "__version__",
]
