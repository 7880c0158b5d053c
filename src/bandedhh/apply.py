"""Applying banded reflection products to vectors and matrices.

Every product here, with G or with G', runs through one engine, private to
_kernels: a band-compact WY plan (blocks of consecutive reflections in
I - V T V' form, 32 to a block unless apply_blocked asks for another
size), built on first use and cached on the BandedReflectors until a call
with another block size replaces it. The plan holds about one more copy of
the free entries plus b(b + 1)/2 scalars per block while the factor lives.

In the paper's count, G x costs 4 k w + 2 k flops for k reflections of
bandwidth w, a fraction of the 2 m^2 of a dense multiply. apply_counted
tallies that per-reflection convention, not the BLAS operations the WY
engine actually executes.

Every product takes its operand through one intake, _operand: a private
C-ordered float64 copy, so the engine can overwrite it, of a vector (ndim
1) or a matrix of columns (ndim 2) with ambient_dim rows. Anything else
raises ShapeError, and complex input raises ValueError.

Non-finite input is not rejected: NaN and Inf propagate through every
product by IEEE rules, and nothing raises. The engine's range check of
the operand (see _kernels) never scales on them, and the CLI rejects
non-finite values when it reads a matrix (storage.read_matrix).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .factor import BandedReflectors, ShapeError, _floats

__all__ = [
    "FlopCounter",
    "apply",
    "apply_transpose",
    "apply_counted",
    "apply_to_matrix",
    "apply_blocked",
]


@dataclass
class FlopCounter:
    """Running total of floating point operations under the paper's convention.

    total is the one field. The count is per reflection, as if each were
    applied on its own; it is not the count of operations the blocked
    engine runs. One reflection of tail width w costs 4w + 2 flops: the dot
    product exploits the implicit unit pivot (w multiplies, w additions),
    scaling by beta is 1 multiply, and the update is 1 addition for the
    pivot plus w multiplies and w additions for the tail. So a product with
    k reflections of width w adds 4kw + 2k.
    """

    total: int = 0


def _operand(g: BandedReflectors, x, ndim: int) -> np.ndarray:
    out = _floats(x, copy=True)
    if out.ndim != ndim or out.shape[0] != g.ambient_dim:
        raise ShapeError(
            f"expected a {ndim}-D operand with {g.ambient_dim} rows, got shape {out.shape}"
        )
    return out


def apply(g: BandedReflectors, x) -> np.ndarray:
    """Return G x; blocks of reflections run from the last to the first.

    NaN and Inf in the input propagate to the output by IEEE rules; they
    are not rejected (see the module docstring).
    """
    return _kernels.apply_plan(g, _operand(g, x, 1), transpose=False)


def apply_transpose(g: BandedReflectors, y) -> np.ndarray:
    """Return G' y; blocks of reflections run from the first to the last.

    NaN and Inf in the input propagate to the output by IEEE rules; they
    are not rejected (see the module docstring).
    """
    return _kernels.apply_plan(g, _operand(g, y, 1), transpose=True)


def apply_counted(g: BandedReflectors, x, counter: FlopCounter) -> np.ndarray:
    """Same result as apply, adding the paper's 4kw + 2k flops to counter.total."""
    out = apply(g, x)
    counter.total += 2 * g.count * (2 * g.bandwidth + 1)
    return out


def apply_to_matrix(g: BandedReflectors, a, transpose: bool = False) -> np.ndarray:
    """Apply G (or G' with transpose=True) to every column of a.

    NaN and Inf in the input propagate to the output by IEEE rules; they
    are not rejected (see the module docstring).
    """
    return _kernels.apply_plan(g, _operand(g, a, 2), transpose)


def apply_blocked(g: BandedReflectors, x, block_size: int) -> np.ndarray:
    """Return G x through the cached WY plan with the given block size."""
    if type(block_size) is bool or not isinstance(block_size, (int, np.integer)) or block_size < 1:
        raise ShapeError("block size must be an integer of at least 1")
    return _kernels.apply_plan(g, _operand(g, x, 1), False, block_size)
