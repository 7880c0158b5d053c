"""Property tests over generated inputs (skipped when hypothesis is absent)."""
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from bandedhh import read_matrix, write_matrix  # noqa: E402

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
