"""Property tests over generated inputs (skipped when hypothesis is absent)."""
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from bandedhh import (  # noqa: E402
    apply,
    apply_transpose,
    factor_auto,
    factor_complement,
    factor_tall,
    read_factor,
    read_matrix,
    reconstruct_a,
    write_factor,
    write_matrix,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]
)


def text_oracle(a):
    rows = [" ".join(format(x, ".17g") for x in row) for row in a.tolist()]
    return "\n".join([f"{a.shape[0]} {a.shape[1]}"] + rows) + "\n"


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8), elements=FINITE))
def test_matrix_text_roundtrip_bit_exact(a):
    buf = io.StringIO()
    count = write_matrix(a, buf)
    text = buf.getvalue()
    assert text == text_oracle(a)
    assert count == len(text.encode("ascii"))
    back = read_matrix(io.StringIO(text))
    assert back.shape == a.shape
    assert np.array_equal(back.view(np.uint64), a.view(np.uint64))


# (m, n, rank, k, seed): an m x n matrix of the given rank, drawn as a
# product of thin Gaussian factors and scaled by 2^k, which is exact.
@st.composite
def factor_inputs(draw):
    m = draw(st.integers(0, 40))
    n = draw(st.sampled_from([0, m, max(m - 1, 0)]) | st.integers(0, m))
    rank = draw(st.integers(0, n))
    k = draw(st.integers(-900, 900))
    return m, n, rank, k, draw(st.integers(0, 2**32 - 1))


def _rel_err(recon, a):
    # scale by max|a| first so neither norm underflows or overflows
    peak = np.abs(a).max(initial=0.0)
    if peak:
        recon, a = recon / peak, a / peak
    scale = np.linalg.norm(a)
    return np.linalg.norm(recon - a) / scale if scale else np.linalg.norm(recon - a)


def _factor_bits(f):
    g = f.reflectors
    return (f.placement, g.ambient_dim, g.free_entries.shape, g.free_entries.tobytes(),
            g.betas.tobytes(), f.core.shape, f.core.tobytes())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_inputs())
@example((0, 0, 0, 0, 0))
@example((7, 0, 0, 0, 0))
@example((9, 9, 9, 900, 1))
@example((40, 39, 39, -900, 2))
@example((40, 20, 2, 0, 3))
@example((40, 40, 0, 0, 4))
def test_factor_properties(params):
    m, n, rank, k, seed = params
    rng = np.random.default_rng(seed)
    a = np.ldexp(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)), k)
    z = rng.standard_normal(m)
    for method in (factor_tall, factor_complement, factor_auto):
        f = method(a)
        assert _rel_err(reconstruct_a(f), a) <= 1e-12, method.__name__
        g = f.reflectors
        if m:
            probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
            assert probe <= 1e-12, method.__name__
        assert _factor_bits(method(a)) == _factor_bits(f), method.__name__
        buf = io.BytesIO()
        write_factor(f, buf)
        back = read_factor(io.BytesIO(buf.getvalue()))
        assert _factor_bits(back) == _factor_bits(f), method.__name__
