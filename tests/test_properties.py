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
from bandedhh.storage import MatrixFormatError, _scan_rows  # noqa: E402

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


# Tokens float() reads, tokens it reads to a non-finite value, and tokens it
# rejects; "#" would start a comment for np.loadtxt's default settings.
ODD = st.sampled_from(
    ["1_0", "+.5", "-0", "1e-400", "0x10", "nan", "-inf", "1e400", "#", "x",
     "1,2", "'1'", "1.5e", "123456789012345678901234567890"]
)
VALUES = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g"))
GAPS = st.text(alphabet=" \t\x0b\x0c", max_size=2)
DEFECTS = st.sampled_from(["missing row", "extra row", "blank row", "short row",
                           "long row", "short rows", "long rows"])


# A header with m <= 4 and n <= 3 over rows of %.17g values, with up to two
# defects of layout and up to two ODD tokens, so most files are near valid
# ones; tokens are separated by runs of space, tab, \x0b and \x0c, and lines
# end in LF or CRLF.
@st.composite
def matrix_texts(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    defects = draw(st.just([]) | st.lists(DEFECTS, min_size=1, max_size=2))
    widths = [n] * m
    for defect in defects:
        if defect == "missing row":
            widths = widths[:-1]
        elif defect == "extra row":
            widths.append(n)
        elif defect in ("short rows", "long rows"):
            widths = [max(w + (1 if defect == "long rows" else -1), 0) for w in widths]
        elif widths:
            i = draw(st.integers(0, len(widths) - 1))
            step = {"blank row": -widths[i], "short row": -1, "long row": 1}[defect]
            widths[i] = max(widths[i] + step, 0)
    rows = [draw(st.lists(VALUES, min_size=w, max_size=w)) for w in widths]
    filled = [i for i, row in enumerate(rows) if row]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2])) if filled else 0):
        row = rows[draw(st.sampled_from(filled))]
        row[draw(st.integers(0, len(row) - 1))] = draw(ODD)
    lines = [f"{m} {n}"]
    for row in rows:
        gaps = draw(st.lists(GAPS, min_size=len(row) + 1, max_size=len(row) + 1))
        inner = [gap or " " for gap in gaps[1:-1]]  # tokens need a separator
        parts = [gaps[0]]
        for tok, gap in zip(row, inner + [gaps[-1]]):
            parts += [tok, gap]
        lines.append("".join(parts))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline


def _read_outcome(read):
    try:
        a = read()
    except MatrixFormatError as exc:
        return str(exc)
    return a.dtype, a.shape, a.tobytes()


# The np.loadtxt fast path of read_matrix must agree, bit for bit and error
# for error, with the line scan that defines the format.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix_texts())
@example("1 2\n1 2 # x\n")
@example("2 1\n \n\t\n")
@example("2 2\n1 2\r\n3\x0c4\r\n")
def test_fast_path_agrees_with_scan(text):
    m, n = (int(x) for x in text.split("\n")[0].split())
    fast = _read_outcome(lambda: read_matrix(io.StringIO(text)))
    assert fast == _read_outcome(lambda: _scan_rows(text.split("\n"), m, n))


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
