"""Property tests over generated inputs (skipped when hypothesis is absent)."""
import io
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from bandedhh import (  # noqa: E402
    BadMagicError,
    BandedReflectors,
    CompactSubspaceFactor,
    FactorFormatError,
    Placement,
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


# One ASCII rule for a path and a stream: a file holding the latin-1 bytes
# of a text reads as a stream holding the text does, to the same array or
# the same error, with a character from U+0080..U+00FF (NBSP and NEL among
# them, which str.split takes as whitespace) inserted or not.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrix_texts(),
       st.none() | st.tuples(st.characters(min_codepoint=0x80, max_codepoint=0xFF),
                             st.integers(0)))
@example("1 2\n1 2\n", ("\xa0", 5))
@example("1 2\n1 2\n", ("\x85", 5))
def test_path_and_stream_read_alike(tmp_path_factory, text, insert):
    if insert is not None:
        char, at = insert
        at %= len(text) + 1
        text = text[:at] + char + text[at:]
    path = tmp_path_factory.getbasetemp() / "path_and_stream.txt"
    path.write_bytes(text.encode("latin-1"))
    from_path = _read_outcome(lambda: read_matrix(path))
    assert from_path == _read_outcome(lambda: read_matrix(io.StringIO(text)))


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


# G is its free entries: rebuilt from them alone, the reflectors of every
# factor, and of its file's read-back, act on m rows with the same betas
# and the same products, bit for bit.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(factor_inputs())
@example((0, 0, 0, 0, None, 0))
@example((7, 0, 0, 0, None, 1))
@example((9, 9, 9, 0, None, 2))
@example((40, 39, 39, 0, None, 3))
@example((30, 22, 0, 0, "signed zeros", 4))
def test_g_is_its_free_entries(params):
    a, rng = _factor_input(params)
    m = a.shape[0]
    x = rng.standard_normal(m)
    for method in (factor_tall, factor_complement, factor_auto):
        f = method(a)
        buf = io.BytesIO()
        write_factor(f, buf)
        for g in (f.reflectors, read_factor(io.BytesIO(buf.getvalue())).reflectors):
            rebuilt = BandedReflectors(g.free_entries)
            assert type(rebuilt.ambient_dim) is int, method.__name__
            assert rebuilt.ambient_dim == m, method.__name__
            assert rebuilt.betas.tobytes() == g.betas.tobytes(), method.__name__
            for product in (apply, apply_transpose):
                assert product(rebuilt, x).tobytes() == product(g, x).tobytes(), method.__name__


EPS = np.finfo(np.float64).eps
DBL_MAX = np.finfo(np.float64).max
# The accuracy the factor functions have, in units of sqrt(m) eps: the
# constants were fixed from 20000 seeded draws of _graded_draw, measured
# before the test was written, for all three functions. The worst ratios
# were 2.29 for the reconstruction (factor_tall, seed 251, 7x4) and 2.75
# for the probe (factor_complement, seed 3807, 2x1), so a 100x accuracy
# regression fails here long before it reaches the flat 1e-12 above.
RECON_C = 8.0
ORTH_C = 8.0


def _graded(rng, m, n):
    # An m x n Gaussian with column j scaled by 10^U(-3, 3), and a Gaussian
    # probe vector z.
    return rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, n), rng.standard_normal(m)


def _graded_draw(seed):
    # _graded with 1 <= m <= 64 and 0 <= n <= m.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 65))
    return _graded(rng, m, int(rng.integers(0, m + 1)))


def _assert_accurate(method, a, z):
    unit = np.sqrt(a.shape[0]) * EPS
    f = method(a)
    assert _rel_err(reconstruct_a(f), a) <= RECON_C * unit, method.__name__
    g = f.reflectors
    probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
    assert probe <= ORTH_C * unit, method.__name__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
@example(251)
@example(3807)
def test_factor_accuracy_in_eps(seed):
    a, z = _graded_draw(seed)
    for method in (factor_tall, factor_complement, factor_auto):
        _assert_accurate(method, a, z)


# The same bounds at the shapes of the accuracy table in ROADMAP.md, one
# seed each; six seeds per shape measured at most 0.35 sqrt(m) eps before
# the test was written. factor_complement runs only where m - n <= n: at
# 1000x200 it would take 800 reflections of bandwidth 200, the side
# factor_auto never picks there.
@pytest.mark.parametrize("m,n", [(200, 10), (200, 190), (1000, 200), (1000, 900)])
def test_factor_accuracy_in_eps_at_larger_shapes(m, n):
    a, z = _graded(np.random.default_rng(m + n), m, n)
    for method in (factor_tall, factor_auto) + ((factor_complement,) if m - n <= n else ()):
        _assert_accurate(method, a, z)


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
# three functions return must pass read_factor's tail bound; an input whose
# factor does not fit in float64 raises instead.
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


# Columns as drawn, with a peak of 2^-1000 .. 2^-900, or with a 2-norm of
# 0.5 .. 0.99 DBL_MAX, mixed in one matrix. Every such input factors within
# the accuracy contract, with no warning: the pipelines shift each column
# whose peak exceeds 2^1000 to just under it, and only a column norm above
# DBL_MAX can overflow the core. Measured on 10000 seeded numpy draws of
# the same distribution before the test was written: the worst scaled
# residual was 1.6e-15 and the worst probe 1.4e-15 over the three
# functions, and none raised.
@st.composite
def near_limit_inputs(draw):
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, m))
    kinds = draw(st.lists(st.sampled_from(["ordinary", "tiny", "near limit"]),
                          min_size=n, max_size=n))
    return m, n, tuple(kinds), draw(st.integers(0, 2**32 - 1))


def _near_limit_matrix(m, n, kinds, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    for col, kind in zip(a.T, kinds):
        if kind == "tiny":
            col *= np.ldexp(1.0, rng.integers(-1000, -899)) / np.abs(col).max()
        elif kind == "near limit":
            col /= np.linalg.norm(col)
            col *= rng.uniform(0.5, 0.99) * DBL_MAX
    return a


@settings(max_examples=100, deadline=None, derandomize=True)
@given(near_limit_inputs())
def test_near_limit_columns_factor(params):
    m = params[0]
    a = _near_limit_matrix(*params)
    z = np.random.default_rng(params[-1]).standard_normal(m)
    floor = 4 * np.sqrt(m) * 2.0**-1074 / np.abs(a).max()
    for method in (factor_tall, factor_complement, factor_auto):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = method(a)
            assert _rel_err(reconstruct_a(f), a) <= 1e-12 + floor, method.__name__
            g = f.reflectors
            probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
        assert probe <= 1e-12, method.__name__


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


# A factor file holds the free entries and the core, no betas: n(m - n) + n^2
# doubles after the 24-byte header. Tails are Gaussian rows scaled to a
# drawn t't in [0, 1], a fifth of them to 1 and a tenth to 0; that the G
# they describe is orthogonal follows from the derived betas alone. PROBE_C
# was fixed from 20000 seeded numpy draws of the same distribution,
# measured before the test was written: the worst probe was 6.3 eps.
PROBE_C = 32.0


@st.composite
def stored_factors(draw):
    m = draw(st.integers(0, 40))
    n = draw(st.sampled_from([0, m]) | st.integers(0, m))
    placement = draw(st.sampled_from(list(Placement)))
    return m, n, placement, draw(st.integers(0, 2**32 - 1))


def _stored_factor(m, n, placement, seed):
    rng = np.random.default_rng(seed)
    k = n if placement is Placement.TOP else m - n
    t = rng.standard_normal((k, m - k))
    norms = np.sqrt(np.einsum("ij,ij->i", t, t))
    u = rng.random(k)
    u[rng.random(k) < 0.2] = 1.0
    u[rng.random(k) < 0.1] = 0.0
    scale = np.divide(np.sqrt(u), norms, out=np.zeros(k), where=norms > 0)
    g = BandedReflectors(t * scale[:, None])
    return CompactSubspaceFactor(g, rng.standard_normal((n, n)), placement), rng


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stored_factors())
@example((0, 0, Placement.TOP, 0))
@example((6, 0, Placement.TOP, 1))
@example((6, 0, Placement.BOTTOM, 2))
@example((6, 6, Placement.TOP, 3))
@example((6, 6, Placement.BOTTOM, 4))
def test_factor_file_holds_the_paper_count(params):
    m, n = params[:2]
    f, rng = _stored_factor(*params)
    g = f.reflectors
    buf = io.BytesIO()
    nbytes = write_factor(f, buf)
    data = buf.getvalue()
    assert nbytes == len(data) == 24 + 8 * (g.count * g.bandwidth + n * n)
    back = read_factor(io.BytesIO(data))
    assert _factor_bits(back) == _factor_bits(f)
    if m:
        z = rng.standard_normal(m)
        probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
        assert probe <= PROBE_C * EPS
    with pytest.raises(BadMagicError, match="expected b'BHF2'"):
        read_factor(io.BytesIO(b"BHF1" + data[4:]))
    if g.count and g.bandwidth:
        # one tail of t't = 1 + 2^-20 exactly ((1 + 2^-10)^2 when w = 1), far
        # above the rounding bound
        long = bytearray(data)
        i = int(rng.integers(0, g.count))
        tail = np.zeros(g.bandwidth)
        tail[0] = 1.0
        tail[-1] += 2.0**-10
        long[24 + 8 * g.bandwidth * i : 24 + 8 * g.bandwidth * (i + 1)] = tail.tobytes()
        with pytest.raises(FactorFormatError, match=f"^tail of reflection {i} is too long"):
            read_factor(io.BytesIO(bytes(long)))


# Tails scaled to t't = reach (1 + (2 w + 16) eps), up to the tail rule's
# bound, with a core of small, unit or huge magnitude. Every factor that
# constructs is written by write_factor and read back byte for byte, so no
# record that write_factor writes is refused for its tails or its core. A
# tail drawn within a few ulps of the bound may round past it; only those
# may be refused.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(stored_factors(), st.sampled_from([1.0, 1.0 - 2.0**-50]) | st.floats(0.0, 1.0),
       st.sampled_from([1e-300, 1.0, 1e300]))
@example((6, 2, Placement.TOP, 5), 1.0 - 2.0**-50, 1.0)
@example((40, 10, Placement.BOTTOM, 6), 1.0, 1e300)
def test_every_factor_that_constructs_reads_back(params, reach, scale):
    m, n, placement, seed = params
    rng = np.random.default_rng(seed)
    k = n if placement is Placement.TOP else m - n
    w = m - k
    t = rng.standard_normal((k, w))
    norms = np.sqrt(np.einsum("ij,ij->i", t, t))
    length = np.sqrt(reach * (1.0 + (2 * w + 16) * EPS))
    t *= np.divide(length, norms, out=np.zeros(k), where=norms > 0)[:, None]
    try:
        g = BandedReflectors(t)
    except ValueError as exc:
        assert "is too long" in str(exc) and reach > 1.0 - 1e-12
        return
    f = CompactSubspaceFactor(g, rng.standard_normal((n, n)) * scale, placement)
    buf = io.BytesIO()
    write_factor(f, buf)
    data = buf.getvalue()
    back = read_factor(io.BytesIO(data))
    assert _factor_bits(back) == _factor_bits(f)
    again = io.BytesIO()
    write_factor(back, again)
    assert again.getvalue() == data


# Input that makes LAPACK skip reflections: zero columns over a zero bottom
# n x n block, whose band basis is the input itself, so each zero column
# stays zero through the banded QR (tau = 0). Each skip is stored as the
# sign flip of its row, with that row of the core negated, and the factor
# keeps the accuracy contract.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(factor_inputs())
@example((9, 4, 4, 0, None, 0))
@example((6, 6, 6, 0, None, 1))
@example((12, 5, 0, 0, None, 2))
def test_skipped_reflections_keep_the_contract(params):
    m, n, rank, k, _, seed = params
    a, rng = _factor_input((m, n, rank, k, None, seed))
    a[m - n :] = 0.0
    zero = rng.random(n) < 0.5
    a[:, zero] = 0.0
    z = rng.standard_normal(m)
    peak = np.abs(a).max(initial=0.0)
    floor = 4 * np.sqrt(m) * 2.0**-1074 / peak if peak else 0.0
    f = factor_tall(a)
    g = f.reflectors
    assert np.count_nonzero(g.betas == 2.0) >= np.count_nonzero(zero)
    assert _rel_err(reconstruct_a(f), a) <= 1e-12 + floor
    if m:
        probe = np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)
        assert probe <= 1e-12


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported(tmp_path):
    # On a failure hypothesis imports libcst, whose import emits a
    # DeprecationWarning; unless pyproject.toml ignores it, warnings-as-errors
    # turns it into an INTERNALERROR that hides the example and ends the
    # session. It fires only at the first import in a process: a subprocess.
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in result.stdout
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example" in result.stdout
