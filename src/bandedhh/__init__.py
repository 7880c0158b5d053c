"""Banded Householder factorization of linear subspaces.

Factor any m x n real matrix A (m >= n) as A = G (B; 0) or A = G (0; B)
where B is square and G is a product of Householder reflections whose
vectors share a staircase support, storable in exactly n(m - n) floats.

The public names are listed once, in the __all__ of the module that
defines them, and the star imports below bind them here. The modules are
bound under private names first: the star import of apply rebinds
bandedhh.apply from the module to the function.
"""

from . import apply as _apply, factor as _factor, storage as _storage
from .apply import *
from .factor import *
from .storage import *

__version__ = "0.1.0"

__all__ = [*_apply.__all__, *_factor.__all__, *_storage.__all__, "__version__"]
