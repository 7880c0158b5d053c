"""Dense reference computations for the tests, independent of bandedhh.

Everything here reads only the plain fields of a BandedReflectors
(ambient_dim, free_entries, betas) and builds its result with dense numpy
products, one reflection at a time, so it checks the WY apply engine
without sharing any of its code.
"""

import numpy as np


def implied_vector(g, i: int) -> np.ndarray:
    """Reflection vector i of g as a dense length-m array."""
    v = np.zeros(g.ambient_dim)
    v[i] = 1.0
    v[i + 1 : i + 1 + g.free_entries.shape[1]] = g.free_entries[i]
    return v


def reconstruct_g(g) -> np.ndarray:
    """Dense m x m product H_1 H_2 ... H_k built one reflection at a time.

    Deliberately slow and simple.
    """
    m = g.ambient_dim
    out = np.eye(m)
    for i in range(g.free_entries.shape[0]):
        v = implied_vector(g, i)
        out = out @ (np.eye(m) - g.betas[i] * np.outer(v, v))
    return out


def orthogonality_defect(q) -> float:
    """Frobenius norm of q'q - I, zero iff the columns are orthonormal."""
    q = np.asarray(q, dtype=np.float64)
    n = q.shape[1]
    return float(np.linalg.norm(q.T @ q - np.eye(n)))
