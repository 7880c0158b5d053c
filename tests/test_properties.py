"""Property tests over generated inputs (skipped when hypothesis is absent)."""
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from bandedhh import (  # noqa: E402
    apply,
    apply_to_matrix,
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
from bandedhh.factor import _complement_basis  # noqa: E402
from bandedhh.storage import MatrixFormatError, _scan_rows  # noqa: E402
from oracle import reconstruct_g  # noqa: E402

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


# (m, n, rank, k, defect, seed): an m x n matrix of the given rank, drawn
# as a product of thin Gaussian factors and scaled by 2^k, which is exact
# down to the subnormals, then given the defect (see _with_defect).
DEFECTS_OF_INPUT = [None, "zero columns", "duplicated columns", "signed zeros"]


@st.composite
def factor_inputs(draw, lowest_exponent=-1070):
    m = draw(st.integers(0, 40))
    n = draw(st.sampled_from([0, m, max(m - 1, 0)]) | st.integers(0, m))
    rank = draw(st.integers(0, n))
    k = draw(st.integers(lowest_exponent, 900))
    defect = draw(st.sampled_from(DEFECTS_OF_INPUT))
    return m, n, rank, k, defect, draw(st.integers(0, 2**32 - 1))


def _with_defect(a, defect, rng):
    # About half the columns zeroed or overwritten by copies of others, or
    # about half the entries replaced by 0.0 and -0.0.
    m, n = a.shape
    if not a.size:
        return a
    if defect == "zero columns":
        a[:, rng.random(n) < 0.5] = 0.0
    elif defect == "duplicated columns":
        a[:, rng.integers(0, n, n // 2 + 1)] = a[:, rng.integers(0, n, n // 2 + 1)]
    elif defect == "signed zeros":
        mask = rng.random((m, n)) < 0.5
        a[mask] = np.copysign(0.0, rng.standard_normal(mask.sum()))
    return a


def _factor_input(params):
    m, n, rank, k, defect, seed = params
    rng = np.random.default_rng(seed)
    a = np.ldexp(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)), k)
    return _with_defect(a, defect, rng), rng


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


# The reconstruction bound is factor_tall's stated one, 1e-12 plus the
# subnormal floor 4 sqrt(m) 2^-1074 / max|a|, which is negligible above
# k = -900.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_inputs())
@example((0, 0, 0, 0, None, 0))
@example((7, 0, 0, 0, None, 0))
@example((9, 9, 9, 900, None, 1))
@example((40, 39, 39, -900, None, 2))
@example((40, 20, 2, 0, None, 3))
@example((40, 40, 0, 0, None, 4))
@example((30, 22, 22, -1070, None, 5))
@example((30, 22, 22, 0, "zero columns", 6))
@example((30, 7, 7, 0, "duplicated columns", 7))
@example((30, 22, 0, 0, "signed zeros", 8))
def test_factor_properties(params):
    a, rng = _factor_input(params)
    m = a.shape[0]
    z = rng.standard_normal(m)
    peak = np.abs(a).max(initial=0.0)
    floor = 4 * np.sqrt(m) * 2.0**-1074 / peak if peak else 0.0
    for method in (factor_tall, factor_complement, factor_auto):
        f = method(a)
        assert _rel_err(reconstruct_a(f), a) <= 1e-12 + floor, method.__name__
        g = f.reflectors
        if m:
            probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
            assert probe <= 1e-12, method.__name__
        assert _factor_bits(method(a)) == _factor_bits(f), method.__name__
        buf = io.BytesIO()
        write_factor(f, buf)
        back = read_factor(io.BytesIO(buf.getvalue()))
        assert _factor_bits(back) == _factor_bits(f), method.__name__


EPS = np.finfo(np.float64).eps
DBL_MAX = np.finfo(np.float64).max
# The constants c of the two bounds below were fixed from 18000 seeded
# numpy draws of the same distribution, measured before the tests were
# written, and checked on 3000 random draws of chart_draws. The worst
# ratios to kappa * eps were 1.23 (factor_tall) and 3.5 (factor_complement)
# for the reflectors, and 11.8 for the projectors.
CHART_C = 16.0
PROJECTOR_C = 64.0


# (m, n, k, seed): a full-rank Gaussian m x n A and M = Q diag(2^k), Q a
# random orthogonal n x n matrix, so that kappa(M) = 2^(max k - min k).
@st.composite
def chart_draws(draw):
    m = draw(st.integers(2, 24))
    n = draw(st.integers(1, m - 1))
    k = draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    return m, n, np.array(k), draw(st.integers(0, 2**32 - 1))


def _chart_matrices(m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return a, q * np.ldexp(1.0, k)


# The paper's central claim: the n(m - n) floats are a coordinate of the
# subspace range(A), not of A. Inside the chart, where the bottom block of a
# basis (of range(A) for factor_tall, of its complement, U2, for
# factor_complement) is invertible, A M has the same reflectors as A.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(chart_draws())
def test_reflectors_depend_only_on_the_range(params):
    m, n, k, seed = params
    a, mm = _chart_matrices(m, n, k, seed)
    kappa_m = 2.0 ** (k.max() - k.min())
    blocks = {factor_tall: a[m - n :], factor_complement: _complement_basis(a)[n:]}
    kappas = {method: np.linalg.cond(block) for method, block in blocks.items()}
    assume(max(kappas.values()) <= 1e6)
    for method, kappa in kappas.items():
        f, g = method(a @ mm).reflectors, method(a).reflectors
        bound = CHART_C * kappa_m * kappa * EPS
        assert np.abs(f.free_entries - g.free_entries).max() <= bound, method.__name__
        assert np.abs(f.betas - g.betas).max() <= bound, method.__name__


# The two placements have different G, but the first n columns of the TOP
# G and the last n of the BOTTOM G must span range(A) alike.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(chart_draws())
def test_both_placements_give_one_projector(params):
    m, n, _, seed = params
    a = np.random.default_rng(seed).standard_normal((m, n))
    top = reconstruct_g(factor_tall(a).reflectors)[:, :n]
    bottom = reconstruct_g(factor_complement(a).reflectors)[:, m - n :]
    gap = np.linalg.norm(top @ top.T - bottom @ bottom.T, 2)
    assert gap <= PROJECTOR_C * np.linalg.cond(a) * EPS


# Gaussian input with ||A||_F = fraction * DBL_MAX. Every factor that the
# three functions return must pass read_factor's orthogonality check;
# an input whose factor does not fit in float64 raises instead.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    st.sampled_from([0.5, 0.7, 0.99]) | st.floats(0.01, 0.99),
    st.integers(0, 2**32 - 1),
)
@example((200, 50), 0.99, 250)
@example((30, 22), 0.7, 52)
@example((8, 1), 0.5, 9)
def test_factor_file_accepts_near_limit_factors(shape, fraction, seed):
    a = np.random.default_rng(seed).standard_normal(shape)
    a = a / np.linalg.norm(a) * (fraction * DBL_MAX)
    for method in (factor_tall, factor_complement, factor_auto):
        try:
            f = method(a)
        except ValueError as exc:
            assert str(exc) == "the factor of this matrix overflows float64", method.__name__
            continue
        buf = io.BytesIO()
        write_factor(f, buf)
        back = read_factor(io.BytesIO(buf.getvalue()))
        assert _factor_bits(back) == _factor_bits(f), method.__name__


# The BOTTOM core is a[k:] - V2 V1^-1 a[:k] (k = m - n), solved from the top
# k rows of G'a, which vanish because a is orthogonal to U2. Measured on
# 13000 seeded numpy draws of factor_inputs above k = -900 (8000 of them
# with defects) before the test was written, the core's distance to the
# bottom of G'a and the norm of its top rows reached 6.5 and 6.2 times
# eps ||a||_F (11.0 and 12.4 on 600 draws up to 400 x 399).
CORE_C = 32.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(factor_inputs(lowest_exponent=-900))
@example((40, 39, 39, 900, None, 1))
@example((40, 1, 1, -900, None, 2))
@example((30, 22, 5, 0, "duplicated columns", 3))
def test_complement_core_is_the_bottom_of_g_t_a(params):
    a, _ = _factor_input(params)
    m, n = a.shape
    f = factor_complement(a)
    # 2^-e, with max|a| = 2^e times [0.5, 1), scales every product exactly
    # and keeps the engine's V'x far from overflow.
    e = int(np.frexp(np.abs(a).max(initial=0.0))[1])
    a, core = np.ldexp(a, -e), np.ldexp(f.core, -e)
    gt_a = apply_to_matrix(f.reflectors, a, transpose=True)
    bound = CORE_C * EPS * np.linalg.norm(a)
    assert np.linalg.norm(core - gt_a[m - n :]) <= bound
    assert np.linalg.norm(gt_a[: m - n]) <= bound
