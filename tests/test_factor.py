import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bandedhh import (
    BandedReflectors,
    CompactSubspaceFactor,
    Placement,
    ShapeError,
    apply,
    apply_to_matrix,
    apply_transpose,
    factor_auto,
    factor_complement,
    factor_tall,
    reconstruct_a,
    storage_floats,
    storage_floats_with_betas,
    _kernels,
)
from bandedhh.factor import _band_basis, _banded_qr, _complement_basis, as_matrix
from oracle import implied_vector, orthogonality_defect, reconstruct_g


def random_matrix(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def rel_err(recon, a):
    # scale by max|a| first so neither norm underflows or overflows
    peak = np.abs(a).max(initial=0.0)
    if peak:
        recon, a = recon / peak, a / peak
    scale = np.linalg.norm(a)
    return np.linalg.norm(recon - a) / scale if scale else np.linalg.norm(recon - a)


class TestBandedReflectors:
    def test_count_bandwidth_consistency(self):
        with pytest.raises(ShapeError):
            BandedReflectors(5, np.zeros((2, 2)), np.zeros(2))

    def test_beta_length_checked(self):
        with pytest.raises(ShapeError):
            BandedReflectors(5, np.zeros((2, 3)), np.zeros(3))

    def test_free_entries_must_be_2d(self):
        with pytest.raises(ShapeError, match="2-D"):
            BandedReflectors(5, np.zeros(3), np.zeros(3))


class TestCompactSubspaceFactor:
    def test_core_must_be_square(self):
        g = factor_tall(random_matrix(7, 3, 0)).reflectors
        with pytest.raises(ShapeError, match=r"^core must be square, got \(4, 3\)$"):
            CompactSubspaceFactor(g, np.zeros((4, 3)), Placement.TOP)

    def test_placement_needs_matching_count(self):
        f = factor_tall(random_matrix(9, 4, 0))
        with pytest.raises(ShapeError,
                           match="^BOTTOM placement needs 5 reflections, got 4$"):
            CompactSubspaceFactor(f.reflectors, f.core, Placement.BOTTOM)

    # Every factor owns its core: no view into the input, into G'A or
    # into a file payload keeps a larger buffer alive.
    @pytest.mark.parametrize("factor", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("shape", [(9, 4), (10, 9), (5, 5), (6, 0)])
    def test_core_owns_its_data(self, factor, shape):
        f = factor(random_matrix(*shape, seed=sum(shape)))
        assert f.core.base is None
        assert f.core.flags.c_contiguous

    @pytest.mark.parametrize("factor", [factor_tall, factor_complement, factor_auto])
    def test_square_core_is_not_the_input(self, factor):
        a = random_matrix(4, 4, 7)
        expected = a.copy()
        f = factor(a)
        a[:] = 0.0
        assert np.array_equal(f.core, expected)

    def test_implied_vector_pattern(self):
        g = BandedReflectors(5, np.arange(6.0).reshape(2, 3) + 1.0, np.ones(2))
        v1 = implied_vector(g, 1)
        assert np.array_equal(v1, [0.0, 1.0, 4.0, 5.0, 6.0])


class TestFactorTall:
    def test_square_is_exact_identity_factor(self):
        a = random_matrix(3, 3, 0)
        f = factor_tall(a)
        assert f.placement is Placement.TOP
        assert f.reflectors.free_entries.shape == (3, 0)
        assert not f.reflectors.betas.any()
        assert np.array_equal(f.core, a)
        assert np.array_equal(reconstruct_a(f), a)

    def test_unit_column_hand_case(self):
        f = factor_tall([[0.0], [1.0]])
        assert np.array_equal(f.reflectors.free_entries, [[1.0]])
        assert np.array_equal(f.reflectors.betas, [1.0])
        assert np.array_equal(f.core, [[-1.0]])
        assert np.linalg.norm(reconstruct_a(f) - [[0.0], [1.0]]) <= 1e-15

    def test_seven_by_four_storage_and_reconstruction(self):
        a = random_matrix(7, 4, 1)
        f = factor_tall(a)
        assert f.reflectors.free_entries.shape == (4, 3)
        assert storage_floats(f.reflectors) == 12
        assert storage_floats_with_betas(f.reflectors) == 16
        assert rel_err(reconstruct_a(f), a) <= 1e-12

    @pytest.mark.parametrize(
        "shape", [(5, 5), (6, 1), (6, 5), (9, 4), (20, 3), (13, 12), (30, 15)]
    )
    def test_reconstruction_sweep(self, shape):
        a = random_matrix(*shape, seed=sum(shape))
        f = factor_tall(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12

    def test_band_structural_zeros(self):
        f = factor_tall(random_matrix(9, 3, 2))
        g = f.reflectors
        for i in range(g.count):
            v = implied_vector(g, i)
            assert not v[:i].any()
            assert v[i] == 1.0
            assert not v[i + 1 + g.bandwidth :].any()

    def test_zero_columns(self):
        f = factor_tall(np.zeros((4, 0)))
        assert f.core.shape == (0, 0)
        assert f.reflectors.count == 0
        assert f.reflectors.bandwidth == 4

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            factor_tall(np.zeros((3, 5)))

    def test_rank_deficient_still_reconstructs(self):
        a = random_matrix(8, 4, 3)
        a[:, 3] = a[:, 0]
        f = factor_tall(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12

    def test_zero_matrix(self):
        a = np.zeros((6, 2))
        f = factor_tall(a)
        assert np.array_equal(reconstruct_a(f), a)


class TestFactorComplement:
    def test_square_is_exact_empty_factor(self):
        a = random_matrix(4, 4, 4)
        f = factor_complement(a)
        assert f.placement is Placement.BOTTOM
        assert f.reflectors.count == 0
        assert np.array_equal(f.core, a)
        assert np.array_equal(reconstruct_a(f), a)

    def test_unit_column_hand_case(self):
        a = np.array([[0.0], [1.0]])
        f = factor_complement(a)
        assert f.reflectors.count == 1
        assert f.reflectors.free_entries.shape == (1, 1)
        assert np.linalg.norm(reconstruct_a(f) - a) <= 1e-15
        gt_a = apply_to_matrix(f.reflectors, a, transpose=True)
        assert np.linalg.norm(gt_a[0]) <= 1e-15

    def test_ten_by_nine_storage(self):
        a = random_matrix(10, 9, 5)
        f = factor_complement(a)
        assert f.reflectors.free_entries.shape == (1, 9)
        assert storage_floats(f.reflectors) == 9
        assert storage_floats_with_betas(f.reflectors) == 10
        assert rel_err(reconstruct_a(f), a) <= 1e-12

    @pytest.mark.parametrize("shape", [(9, 7), (6, 1), (12, 11), (20, 16), (7, 4)])
    def test_reconstruction_sweep(self, shape):
        a = random_matrix(*shape, seed=100 + sum(shape))
        f = factor_complement(a)
        assert f.placement is Placement.BOTTOM
        assert rel_err(reconstruct_a(f), a) <= 1e-12

    def test_zero_block(self):
        a = random_matrix(11, 8, 6)
        f = factor_complement(a)
        gt_a = apply_to_matrix(f.reflectors, a, transpose=True)
        assert np.linalg.norm(gt_a[:3]) <= 1e-12 * np.linalg.norm(a)

    def test_zero_columns(self):
        f = factor_complement(np.zeros((4, 0)))
        assert f.core.shape == (0, 0)
        assert f.reflectors.count == 4
        assert f.reflectors.bandwidth == 0
        assert reconstruct_a(f).shape == (4, 0)


class TestComplementBasis:
    # U2 comes from the raw QR's reflectors; the complete QR's Q is built
    # from the same reflectors, so its last m - n columns must agree.
    @pytest.mark.parametrize(
        "case",
        ["n<32", "n%32!=0", "n=64", "n=1", "m-n=1", "zero", "rank n/10"],
    )
    def test_matches_complete_qr(self, case):
        m, n, rank = {
            "n<32": (40, 20, None),
            "n%32!=0": (150, 100, None),
            "n=64": (100, 64, None),
            "n=1": (30, 1, None),
            "m-n=1": (80, 79, None),
            "zero": (60, 50, 0),
            "rank n/10": (130, 100, 10),
        }[case]
        rng = np.random.default_rng(m + n)
        if rank is None:
            a = rng.standard_normal((m, n))
        else:
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        u2 = _complement_basis(a)
        expected = np.linalg.qr(a, mode="complete")[0][:, n:]
        assert u2.shape == (m, m - n)
        assert np.linalg.norm(u2 - expected) <= 1e-13 * np.sqrt(m)

    # factor_complement takes G from factor_tall(U2); its reflectors must
    # match that composition bit for bit, and its core the bottom of G'A
    # solved from the top rows that vanish (_reference_core).
    @pytest.mark.parametrize(
        "m,n",
        [(1000, 4), (1000, 900), (1200, 1000), (1000, 500), (30, 22), (30, 29), (7, 0)],
    )
    def test_inner_factor_matches_factor_tall(self, m, n):
        a = random_matrix(m, n, m + n)
        f = factor_complement(a)
        g = factor_tall(_complement_basis(a)).reflectors
        assert f.reflectors.betas.tobytes() == g.betas.tobytes()
        assert f.reflectors.free_entries.tobytes() == g.free_entries.tobytes()
        assert f.core.tobytes() == _reference_core(g, a).tobytes()

    def test_peak_memory_within_three_inputs(self):
        a = random_matrix(600, 590, 21)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            factor_complement(a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * a.nbytes

    # The core is solved from a[:m - n] with no m x n workspace, so the
    # peak is about the core plus the factor's copy of it.
    def test_peak_memory_near_square(self):
        a = random_matrix(1000, 900, 22)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            factor_complement(a)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.05 * a.nbytes

    # Only the reflectors of U2 are kept, so its (m - n) x (m - n) core is
    # never formed: the complement path does not run the tall pipeline body.
    @pytest.mark.parametrize("shape", [(1000, 4), (30, 22)])
    def test_u2_core_not_formed(self, monkeypatch, shape):
        a = random_matrix(*shape, seed=sum(shape))

        def refuse(u2):
            raise AssertionError("the core of U2 was formed")

        monkeypatch.setattr("bandedhh.factor._tall", refuse)
        assert rel_err(reconstruct_a(factor_complement(a)), a) <= 1e-12


class TestFactorAuto:
    def test_wide_band_goes_top(self):
        assert factor_auto(random_matrix(100, 10, 7)).placement is Placement.TOP

    def test_narrow_band_goes_bottom(self):
        assert factor_auto(random_matrix(100, 95, 8)).placement is Placement.BOTTOM

    def test_tie_goes_top(self):
        assert factor_auto(random_matrix(8, 4, 9)).placement is Placement.TOP

    def test_both_routes_reconstruct(self):
        for shape, seed in [((40, 5), 10), ((40, 37), 11)]:
            a = random_matrix(*shape, seed=seed)
            f = factor_auto(a)
            assert rel_err(reconstruct_a(f), a) <= 1e-12

    @pytest.mark.parametrize("shape", [(7, 3), (7, 4), (10, 5), (9, 1), (9, 8)])
    def test_vector_count_and_width_bounds(self, shape):
        # auto never yields more than m/2 vectors, each at least m/2+1 long
        m, n = shape
        g = factor_auto(random_matrix(m, n, seed=m + n)).reflectors
        assert g.count <= m - m // 2
        assert g.count == 0 or g.bandwidth >= m // 2


class TestEntryCheck:
    # Each public factor function validates its input once, then runs a
    # private pipeline that trusts it; no path goes back through the public
    # factor_tall, so the complement basis U2 is not validated again.
    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("shape", [(9, 4), (10, 9), (5, 5), (6, 0)])
    def test_as_matrix_runs_once(self, monkeypatch, method, shape):
        calls = []

        def counting(a):
            calls.append(a)
            return as_matrix(a)

        monkeypatch.setattr("bandedhh.factor.as_matrix", counting)
        method(random_matrix(*shape, seed=sum(shape)))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(9, 4), (10, 9), (30, 22)])
    def test_public_factor_tall_not_reentered(self, monkeypatch, shape):
        a = random_matrix(*shape, seed=sum(shape))
        expected = [factor_complement(a), factor_auto(a)]

        def refuse(a):
            raise AssertionError("factor_tall called from another factor function")

        monkeypatch.setattr("bandedhh.factor.factor_tall", refuse)
        for method, want in zip([factor_complement, factor_auto], expected):
            f = method(a)
            assert f.placement is want.placement
            _assert_same_factor(f, want.reflectors, want.core)

    # With no columns, TOP holds no reflections and BOTTOM m identity
    # reflections of bandwidth 0; factor_auto picks TOP.
    @pytest.mark.parametrize("m", [0, 1, 6])
    def test_zero_columns(self, m):
        a = np.zeros((m, 0))
        for method, placement, count in [
            (factor_tall, Placement.TOP, 0),
            (factor_complement, Placement.BOTTOM, m),
            (factor_auto, Placement.TOP, 0),
        ]:
            f = method(a)
            assert f.placement is placement, method.__name__
            assert f.reflectors.free_entries.shape == (count, m - count), method.__name__
            assert f.reflectors.betas.shape == (count,), method.__name__
            assert not f.reflectors.betas.any(), method.__name__
            assert f.core.shape == (0, 0), method.__name__


class TestReconstructG:
    def test_all_skipped_is_identity(self):
        g = BandedReflectors(4, np.zeros((2, 2)), np.zeros(2))
        assert np.array_equal(reconstruct_g(g), np.eye(4))

    def test_single_reflection_hand_case(self):
        g = BandedReflectors(2, np.array([[1.0]]), np.array([1.0]))
        assert np.array_equal(reconstruct_g(g), [[0.0, -1.0], [-1.0, 0.0]])

    def test_is_orthogonal(self):
        f = factor_tall(random_matrix(12, 5, 12))
        defect = orthogonality_defect(reconstruct_g(f.reflectors))
        assert defect <= 1e-13 * np.sqrt(12)

    def test_matches_column_apply(self):
        f = factor_tall(random_matrix(9, 4, 13))
        dense = reconstruct_g(f.reflectors)
        via_apply = apply_to_matrix(f.reflectors, np.eye(9))
        assert np.linalg.norm(dense - via_apply) <= 1e-13


class TestStorageCounts:
    @pytest.mark.parametrize("m,n", [(7, 4), (9, 9), (10, 1), (50, 20)])
    def test_tall_matches_formula(self, m, n):
        g = factor_tall(random_matrix(m, n, m * 31 + n)).reflectors
        assert storage_floats(g) == n * (m - n)
        assert storage_floats_with_betas(g) == n * (m - n) + g.count

    def test_complement_near_square(self):
        g = factor_complement(random_matrix(1000, 999, 14)).reflectors
        assert storage_floats(g) == 999
        assert storage_floats_with_betas(g) == 1000


class TestHigherProperties:
    def test_determinism_bitwise(self):
        a = random_matrix(20, 8, 15)
        f1, f2 = factor_tall(a), factor_tall(a)
        assert f1.reflectors.free_entries.tobytes() == f2.reflectors.free_entries.tobytes()
        assert f1.reflectors.betas.tobytes() == f2.reflectors.betas.tobytes()
        assert f1.core.tobytes() == f2.core.tobytes()
        b = random_matrix(20, 17, 16)
        f3, f4 = factor_complement(b), factor_complement(b)
        assert f3.reflectors.free_entries.tobytes() == f4.reflectors.free_entries.tobytes()
        assert f3.core.tobytes() == f4.core.tobytes()

    def test_orthogonal_input_gives_orthogonal_core(self):
        for shape, seed in [((12, 5), 17), ((12, 10), 18)]:
            q = np.linalg.qr(random_matrix(*shape, seed=seed))[0]
            f = factor_auto(q)
            assert orthogonality_defect(f.core) <= 1e-12

    def test_range_preservation(self):
        a = random_matrix(30, 7, 19)
        q_oracle = np.linalg.qr(a)[0]
        p_a = q_oracle @ q_oracle.T
        g_dense = reconstruct_g(factor_tall(a).reflectors)
        g1 = g_dense[:, :7]
        p_g = g1 @ g1.T
        assert np.linalg.norm(p_a - p_g) <= 1e-10

    def test_dense_and_blocked_reconstructions_agree(self):
        from bandedhh import apply_blocked

        g = factor_tall(random_matrix(14, 6, 20)).reflectors
        dense = reconstruct_g(g)
        blocked = np.column_stack(
            [apply_blocked(g, col, 3) for col in np.eye(14)]
        )
        assert np.linalg.norm(dense - blocked) <= 1e-13


class TestExtremeMagnitudes:
    # Gaussian input scaled far from 1 in both directions; LAPACK's scaled
    # norms keep every step finite and accurate. Subnormal input, where a
    # core stored in subnormals keeps only a few significant bits, is in
    # TestSubnormalFloor.
    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1e150, 1e160, 1e300])
    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("shape", [(30, 7), (30, 22)])
    def test_reconstruction_and_orthogonality(self, shape, method, scale):
        a = random_matrix(*shape, seed=shape[1]) * scale
        f = method(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12
        z = random_matrix(shape[0], 1, seed=1)[:, 0]
        g = f.reflectors
        assert np.linalg.norm(apply_transpose(g, apply(g, z)) - z) <= 1e-12 * np.linalg.norm(z)


class TestSubnormalFloor:
    # The stated contract of factor_tall: scale-safe relative error at most
    # 1e-12 + 4 sqrt(m) 2^-1074 / max|a|. The second term is the subnormal
    # spacing relative to the input; G itself stays orthogonal.
    @pytest.mark.parametrize("scale", [1e-310, 1e-315, 1e-320])
    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("shape", [(3, 1), (12, 3), (30, 7), (30, 22), (40, 39)])
    def test_reconstruction_within_floor(self, shape, method, scale):
        m = shape[0]
        a = random_matrix(*shape, seed=shape[1]) * scale
        f = method(a)
        floor = 4 * np.sqrt(m) * 2.0**-1074 / np.abs(a).max()
        assert rel_err(reconstruct_a(f), a) <= 1e-12 + floor
        z = random_matrix(m, 1, seed=1)[:, 0]
        g = f.reflectors
        assert np.linalg.norm(apply_transpose(g, apply(g, z)) - z) <= 1e-12 * np.linalg.norm(z)


DBL_MAX = np.finfo(np.float64).max


def _frobenius_scaled(m, n, fraction, seed):
    # Gaussian input with ||a||_F = fraction * DBL_MAX
    a = random_matrix(m, n, seed)
    return a / np.linalg.norm(a) * (fraction * DBL_MAX)


def _first_column_huge():
    a = random_matrix(8, 6, 14)
    a[:, 0] = 1.7e308
    return a


def _two_huge_entries():
    a = np.ones((4, 3))
    a[1, 2] = a[2, 1] = 1.7e308
    return a


def _huge_entries_5x2():
    a = np.ones((5, 2))
    a[[0, 1, 3], 0] = -1.7e308
    a[[2, 3], 1] = 1.7e308
    return a


class TestOverflow:
    # A finite input whose factor does not fit in float64 raises one
    # ValueError, and no RuntimeWarning escapes (tier-1 turns warnings into
    # errors). Each case overflows somewhere else:
    # - 8x1 of 1.7e308: the column norm, so the core holds -inf;
    # - 8x1 at 0.9 DBL_MAX (seed 1): |a[0]| + ||a|| inside dlarfg;
    # - 3x1 (1.7e308, 1, 1): the beta alone, while the core still fits;
    # - 4x3 with two entries of 1.7e308: NaN reaches the banded QR, whose
    #   leak check would misreport it as a band defect;
    # - 5x2 with five entries of 1.7e308: a matrix product of the tall
    #   pipeline, with every beta finite;
    # - 8x6 with a column of 1.7e308: factor_auto places it BOTTOM, where
    #   the raw QR's beta is NaN.
    CASES = {
        "8x1 of 1.7e308": lambda: np.full((8, 1), 1.7e308),
        "8x1 at 0.9 DBL_MAX": lambda: _frobenius_scaled(8, 1, 0.9, 1),
        "3x1 beta": lambda: np.array([[1.7e308], [1.0], [1.0]]),
        "4x3 band leak": _two_huge_entries,
        "5x2 product": _huge_entries_5x2,
        "8x6, column of 1.7e308": _first_column_huge,
    }

    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("case", list(CASES))
    def test_raises_overflow_error(self, case, method):
        with pytest.raises(ValueError, match="^the factor of this matrix overflows float64$"):
            method(self.CASES[case]())

    def test_complement_core_skips_g_t_a_overflow(self):
        # The whole G'A product overflows here, in the engine's V'x; the
        # core solved from its vanishing top rows fits, as does the TOP
        # factor.
        a = _frobenius_scaled(8, 1, 0.9, 7)
        for method in (factor_complement, factor_auto):
            assert rel_err(reconstruct_a(method(a)), a) <= 1e-12, method.__name__

    # A core near the largest double, where the engine's V'x would
    # overflow unless reconstruct_a scales the core by a power of two.
    @pytest.mark.parametrize("method", [factor_tall, factor_auto])
    def test_reconstruct_core_near_limit(self, method):
        a = _frobenius_scaled(4, 2, 0.6, 145)
        f = method(a)
        assert np.abs(f.core).max() > 0.5 * DBL_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recon = reconstruct_a(f)
        assert np.isfinite(recon).all()
        assert rel_err(recon, a) <= 1e-12

    # Every product runs through the engine's prescale, so apply_to_matrix
    # on the padded core gives reconstruct_a's bits near the limit too.
    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    def test_apply_to_matrix_matches_reconstruct_near_limit(self, method):
        f = method(_frobenius_scaled(4, 2, 0.6, 145))
        padded = np.zeros((4, 2))
        padded[slice(0, 2) if f.placement is Placement.TOP else slice(2, 4)] = f.core
        assert np.array_equal(_bits(apply_to_matrix(f.reflectors, padded)),
                              _bits(reconstruct_a(f)))

    # Square input gives G = I, and a peak above 2^1000 is scaled only to
    # just under it, so entries beside it keep their bits.
    def test_identity_keeps_small_entries_near_limit(self):
        a = np.array([[1e308, 1.0 / 3], [1e-300, -0.0]])
        f = factor_tall(a)
        assert np.array_equal(_bits(reconstruct_a(f)), _bits(a))
        for product in (apply, apply_transpose):
            assert np.array_equal(_bits(product(f.reflectors, a[0])), _bits(a[0]))

    # Below 2^1000 the core is applied as it is, bit for bit.
    @pytest.mark.parametrize("scale", [1.0, 2.0**999])
    def test_reconstruct_unscaled_below_threshold(self, scale):
        a = random_matrix(30, 7, 3) / 8 * scale
        f = factor_tall(a)
        assert np.abs(f.core).max() <= 2.0**1000
        padded = np.zeros((30, 7))
        padded[:7] = f.core
        expected = apply_to_matrix(f.reflectors, padded)
        assert np.array_equal(_bits(reconstruct_a(f)), _bits(expected))
        # and every product matches the unscaled block loop bit for bit
        g = f.reflectors
        blocks = _kernels.plan(g)
        x = padded[:, 0].copy()
        for transpose, vector_product in [(False, apply), (True, apply_transpose)]:
            order = blocks if transpose else blocks[::-1]
            raw = _kernels.apply_blocks(order, x.copy(), transpose)
            assert np.array_equal(_bits(vector_product(g, x)), _bits(raw))
            raw = _kernels.apply_blocks(order, padded.copy(), transpose)
            assert np.array_equal(_bits(apply_to_matrix(g, padded, transpose)), _bits(raw))

    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("m,n,fraction", [(200, 50, 0.99), (30, 22, 0.7), (8, 1, 0.5)])
    def test_near_limit_still_factors(self, m, n, fraction, method):
        a = _frobenius_scaled(m, n, fraction, m + n)
        f = method(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12
        assert _probe(f.reflectors) <= 1e-12


def _flip_copy(x):
    return np.ascontiguousarray(x[::-1, ::-1])


def _reference_band_basis(a):
    # _band_basis on explicit 180-degree copies, with plain temporaries.
    m, n = a.shape
    w = m - n
    q, r = np.linalg.qr(_flip_copy(a[w:]).T)
    x = _flip_copy(q)
    return np.vstack([a[:w] - a[:w] @ (np.eye(n) - x), _flip_copy(r.T)]), x


def _reference_banded_qr(band):
    # The banded QR with the free entries gathered by fancy indexing.
    m, n = band.shape
    w = m - n
    h, betas = np.linalg.qr(band, mode="raw")
    rows = np.arange(n)[:, None]
    return BandedReflectors(m, h[rows, rows + 1 + np.arange(w)], betas), h


def _reference_tall(a):
    # x.T stays a transposed view, as in factor_tall: a C-ordered copy of it
    # would reach OpenBLAS's small-matrix dgemm kernels in another layout,
    # and they round differently for it (seen at 60x25 and 300x100).
    n = a.shape[1]
    band, x = _reference_band_basis(a)
    g, h = _reference_banded_qr(band)
    return g, np.triu(h[:, :n].T) @ x.T


def _reference_core(g, a):
    # The BOTTOM core a[k:] - V2 V1^-1 a[:k] on explicit copies, V = [V1; V2]
    # the m x k unit lower band gathered by fancy indexing. V stays the
    # transpose of a C-ordered V', as in factor_complement: OpenBLAS's
    # small-matrix dgemm kernels round a C-ordered V2 differently (seen at
    # 1000x4 and 60x25).
    m, k = g.ambient_dim, g.count
    rows = np.arange(k)[:, None]
    vt = np.zeros((k, m))
    vt[rows, rows] = 1.0
    vt[rows, rows + 1 + np.arange(g.bandwidth)] = g.free_entries
    v = vt.T
    return a[k:].copy() - v[k:] @ np.linalg.solve(v[:k].copy(), a[:k].copy())


def _reference_complement(a):
    g, _ = _reference_banded_qr(_reference_band_basis(_complement_basis(a))[0])
    return g, _reference_core(g, a)


def _lq_reference_tall(a):
    # The retired pipeline: an LQ of the whole of a rotated by 180 degrees,
    # L rotated back into band form, on explicit copies.
    n = a.shape[1]
    q_lq, r_lq = np.linalg.qr(_flip_copy(a).T)
    g, h = _reference_banded_qr(_flip_copy(r_lq.T))
    return g, np.triu(h[:, :n].T) @ _flip_copy(q_lq.T)


def _bits(x):
    # uint64 view of float64 data, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _assert_same_factor(f, g, core):
    assert np.array_equal(_bits(f.reflectors.free_entries), _bits(g.free_entries))
    assert np.array_equal(_bits(f.reflectors.betas), _bits(g.betas))
    assert np.array_equal(_bits(f.core), _bits(core))


_PIN_CASES = {
    "1000x200": (1000, 200, None, 1.0),
    "1500x300": (1500, 300, None, 1.0),
    "3x1": (3, 1, None, 1.0),
    "n=1": (50, 1, None, 1.0),
    "m-n=1": (40, 39, None, 1.0),
    "rank n/10": (300, 100, 10, 1.0),
    "1e-300": (60, 25, None, 1e-300),
    "1e300": (60, 25, None, 1e300),
}


def _pin_matrix(case):
    m, n, rank, scale = _PIN_CASES[case]
    rng = np.random.default_rng(m + n)
    if rank is None:
        return rng.standard_normal((m, n)) * scale
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


class TestViewPipelinePin:
    # LAPACK reads reversed views, the band basis is written into one
    # preallocated array and the free entries come from a skewed view; the
    # output must equal that of the copying pipeline bit for bit.
    @pytest.mark.parametrize("case", list(_PIN_CASES))
    def test_tall_matches_copying_pipeline(self, case):
        a = _pin_matrix(case)
        _assert_same_factor(factor_tall(a), *_reference_tall(a))

    @pytest.mark.parametrize("m,n", [(1000, 900), (1200, 1000), (30, 22)])
    def test_complement_matches_copying_pipeline(self, m, n):
        a = random_matrix(m, n, m - n)
        _assert_same_factor(factor_complement(a), *_reference_complement(a))


class TestRetiredLQOracle:
    # The band basis used to come from an LQ of the whole input. Its
    # orthogonal factor is fixed by the bottom n x n block alone, so on
    # full-rank input both pipelines give the same G up to rounding. At
    # rank n/10, n - rank reflections act on rounding noise and G is not
    # unique; what both must share is the projector G1 G1' (G1 = the first
    # n columns of G) on range(a), where it is the identity.
    @pytest.mark.parametrize("case", list(_PIN_CASES))
    def test_tall_agrees_with_lq_pipeline(self, case):
        a = _pin_matrix(case)
        m, n = a.shape
        f = factor_tall(a).reflectors
        old, _ = _lq_reference_tall(a)
        if _PIN_CASES[case][2] is None:
            assert np.abs(f.free_entries - old.free_entries).max() <= 1e-12
            assert np.abs(f.betas - old.betas).max() <= 1e-12
        else:
            u = np.linalg.svd(a, full_matrices=False)[0][:, : _PIN_CASES[case][2]]
            projected = []
            for g in (f, old):
                g1 = apply_to_matrix(g, np.eye(m, n))
                projected.append(g1 @ (g1.T @ u))
            assert np.linalg.norm(projected[0] - projected[1], 2) <= 1e-12


def _probe(g):
    # ||G'G z - z|| / ||z||, without forming G
    z = random_matrix(g.ambient_dim, 1, seed=1)[:, 0]
    return np.linalg.norm(apply_transpose(g, apply(g, z)) - z) / np.linalg.norm(z)


def _edge_block(case, rows, n, rng):
    """A rows x n block whose bottom n x n part is the named edge case."""
    block = rng.standard_normal((rows, n))
    w = rows - n
    if case == "zero":
        block[w:] = 0.0
    elif case == "rank 1":
        block[w:] = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    elif case == "duplicated rows":
        block[w + n // 2 :] = block[w : w + n - n // 2]
    elif case == "triangular":
        block[w:] = np.triu(block[w:])
        block[:w][block[:w] < -0.5] = -0.0
    return block


class TestBandBasisEdgeCases:
    # The rotation X of _band_basis comes from the bottom n x n block alone.
    # When that block is zero, of rank 1 or has repeated rows, most of X is
    # fixed by rounding noise, and when it is already triangular X = I; the
    # band form must still be exact and the factor still hold.
    CASES = ["zero", "rank 1", "duplicated rows", "triangular"]

    @staticmethod
    def _check_band(u):
        band, x = _band_basis(u)
        m, n = u.shape
        assert not np.tril(band[m - n :], -1).any()
        assert np.linalg.norm(x.T @ x - np.eye(n)) <= 1e-13 * np.sqrt(n)
        return band, x

    @pytest.mark.parametrize("case", CASES)
    def test_tall(self, case):
        a = _edge_block(case, 30, 12, np.random.default_rng(30))
        band, x = self._check_band(a)
        if case == "triangular":
            top = a[:18]
            assert (top == 0.0).any() and np.signbit(top[top == 0.0]).all()
            assert np.array_equal(x, np.eye(12))
            assert np.array_equal(_bits(band[:18]), _bits(top))
        f = factor_tall(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12
        assert _probe(f.reflectors) <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_complement_basis(self, case):
        # a spans the orthogonal complement of a chosen 30 x 8 u, so the
        # U2 that factor_complement computes spans range(u), and its bottom
        # 8 x 8 block is that of u times an invertible 8 x 8 matrix.
        m, n = 30, 22
        rng = np.random.default_rng(31)
        if case == "triangular":
            # range(a) inside the first n coordinates: U2 = (0; I) exactly
            a = np.vstack([rng.standard_normal((n, n)), np.zeros((m - n, n))])
        else:
            u = _edge_block(case, m, m - n, rng)
            a = np.linalg.qr(u, mode="complete")[0][:, m - n :] @ rng.standard_normal((n, n))
        u2 = _complement_basis(a)
        bottom = u2[n:]
        if case == "zero":
            assert np.linalg.norm(bottom) <= 1e-14
        elif case == "rank 1":
            s = np.linalg.svd(bottom, compute_uv=False)
            assert s[1] <= 1e-14 * s[0]
        elif case == "duplicated rows":
            assert np.linalg.norm(bottom[4:] - bottom[:4]) <= 1e-14
        band, x = self._check_band(u2)
        if case == "triangular":
            assert np.array_equal(u2, np.eye(m, m - n, -n))
            assert np.array_equal(x, np.eye(m - n))
            assert np.array_equal(_bits(band), _bits(u2))
        f = factor_complement(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12
        assert _probe(f.reflectors) <= 1e-12


class TestInputLayouts:
    # LAPACK reads views of the validated input, so the memory layout and
    # dtype of the caller's array must change neither the output nor the
    # array itself.
    @staticmethod
    def _layouts(m, n, seed):
        base = random_matrix(2 * m, n, seed)
        base[0, 0] = base[2, 1] = -0.0
        return {
            "fortran": np.asfortranarray(base[:m]),
            "row-strided": base[::2],
            "negative-stride": base[m - 1 :: -1, ::-1],
            "int": np.random.default_rng(seed).integers(-5, 6, size=(m, n)),
        }

    @pytest.mark.parametrize("method", [factor_tall, factor_complement, factor_auto])
    @pytest.mark.parametrize("m,n", [(40, 12), (40, 30)])
    def test_layout_independent_and_input_untouched(self, method, m, n):
        for name, x in self._layouts(m, n, m + n).items():
            before = x.copy()
            f = method(x)
            assert x.dtype == before.dtype and np.array_equal(
                np.ascontiguousarray(x).view(np.uint8), before.view(np.uint8)
            ), name
            expected = method(np.ascontiguousarray(x, dtype=np.float64))
            assert f.placement is expected.placement, name
            _assert_same_factor(f, expected.reflectors, expected.core)


class TestBandLeakCheck:
    # _banded_qr is only ever given a band form from _band_basis; a dense
    # matrix would need reflection vectors longer than the band.
    def test_dense_input_raises(self):
        with pytest.raises(RuntimeError, match="leaked outside the band"):
            _banded_qr(random_matrix(8, 5, 0))

    def test_dense_input_raises_under_optimize_flag(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import numpy as np\n"
            "from bandedhh.factor import _banded_qr\n"
            "_banded_qr(np.random.default_rng(0).standard_normal((8, 5)))\n"
        )
        path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 1
        assert "RuntimeError: reflection vector leaked outside the band" in result.stderr


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf], [0.0]])

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_accepts_zero_columns(self):
        assert as_matrix(np.zeros((3, 0))).shape == (3, 0)


class TestOrthogonalityDefect:
    def test_identity_is_zero(self):
        assert orthogonality_defect(np.eye(4)) == 0.0

    def test_hand_value(self):
        assert orthogonality_defect([[2.0, 0.0], [0.0, 1.0]]) == 3.0

    def test_qr_q_is_orthonormal(self):
        # the leading n columns of G span range(a), like the reduced Q of a QR
        rng = np.random.default_rng(5)
        g = factor_tall(rng.standard_normal((8, 5))).reflectors
        q = apply_to_matrix(g, np.eye(8, 5))
        assert orthogonality_defect(q) <= 1e-13 * np.sqrt(5)


class TestHouseholderQR:
    """The banded QR stage of factor_tall, LAPACK dgeqrf via np.linalg.qr.

    Its reflectors are the stored free entries and betas; its R times X',
    the rotation that puts the input in band form, is the core.
    """

    def test_identity_skips_everything(self):
        f = factor_tall(np.eye(8, 4))
        assert np.array_equal(f.reflectors.betas, np.zeros(4))
        assert not f.reflectors.free_entries.any()
        assert np.array_equal(f.core, np.eye(4))

    def test_hand_case_unit_column(self):
        # x = (0, 1): v = x + ||x|| e1 = (1, 1), beta = 1, R = (-1)
        f = factor_tall([[0.0], [1.0]])
        assert f.reflectors.betas[0] == 1.0
        assert np.array_equal(f.reflectors.free_entries, [[1.0]])
        assert f.core[0, 0] == -1.0
        assert np.array_equal(reconstruct_a(f), [[0.0], [1.0]])

    def test_negative_zero_pivot_counts_as_negative(self):
        # the sign comes from the sign bit: x = (-0.0, 1) gives
        # v = x - ||x|| e1 = (-1, 1), scaled to (1, -1), beta = 1, R = (1)
        f = factor_tall([[-0.0], [1.0]])
        assert f.reflectors.betas[0] == 1.0
        assert np.array_equal(f.reflectors.free_entries, [[-1.0]])
        assert f.core[0, 0] == 1.0
        assert np.array_equal(reconstruct_a(f), [[0.0], [1.0]])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 3))
        assert rel_err(reconstruct_a(factor_tall(a)), a) <= 1e-13

    def test_r_subdiagonal_exactly_zero(self):
        # G' a = (B; 0): the rows below the core vanish
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 5))
        f = factor_tall(a)
        gt_a = apply_to_matrix(f.reflectors, a, transpose=True)
        assert np.linalg.norm(gt_a[5:]) <= 1e-13 * np.linalg.norm(a)
        assert np.linalg.norm(gt_a[:5] - f.core) <= 1e-13 * np.linalg.norm(a)

    def test_beta_matches_vector(self):
        rng = np.random.default_rng(8)
        g = factor_tall(rng.standard_normal((9, 4))).reflectors
        for tail, beta in zip(g.free_entries, g.betas):
            assert beta == pytest.approx(2.0 / (1.0 + tail @ tail), rel=1e-15)

    def test_wide_input_rejected(self):
        for method in (factor_tall, factor_complement, factor_auto):
            with pytest.raises(ShapeError):
                method(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(5, 5), (7, 2), (12, 11), (3, 1)])
    def test_reconstruction_sweep(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = rng.standard_normal(shape)
        f = factor_auto(a)
        assert rel_err(reconstruct_a(f), a) <= 1e-12
        assert orthogonality_defect(reconstruct_g(f.reflectors)) <= 1e-13 * np.sqrt(shape[0])


class TestLQ:
    """The band-basis stage of factor_tall: the QR of the rotated bottom block."""

    def test_row_vector(self):
        # one column: |B| is the column norm and G's first column is a / B
        f = factor_tall([[3.0], [4.0]])
        assert abs(abs(f.core[0, 0]) - 5.0) < 1e-15
        assert np.allclose(reconstruct_a(f), [[3.0], [4.0]], atol=1e-14)
        g1 = apply_to_matrix(f.reflectors, np.eye(2, 1))
        assert np.allclose(np.abs(g1), [[0.6], [0.8]], atol=1e-15)

    def test_identity_skips(self):
        f = factor_tall(np.eye(6, 3))
        assert np.array_equal(reconstruct_g(f.reflectors), np.eye(6))
        assert np.array_equal(reconstruct_a(f), np.eye(6, 3))

    def test_wide_reconstruction(self):
        # four top rows go through the GEMM, three through the block's QR
        rng = np.random.default_rng(9)
        a = rng.standard_normal((7, 3))
        assert rel_err(reconstruct_a(factor_tall(a)), a) <= 1e-13

    def test_tall_reconstruction(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((7, 3))
        f = factor_tall(a)
        assert f.core.shape == (3, 3)
        assert f.reflectors.free_entries.shape == (3, 4)
        assert rel_err(reconstruct_a(f), a) <= 1e-13

    def test_strict_upper_exactly_zero(self):
        # the band basis is zero below the band, so every reflector fits in
        # it; factor_tall asserts that bit-exactly
        rng = np.random.default_rng(11)
        for m, n in ((6, 4), (10, 3), (9, 8)):
            g = factor_tall(rng.standard_normal((m, n))).reflectors
            assert g.free_entries.shape == (n, m - n)

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(12)
        g = factor_tall(rng.standard_normal((9, 4))).reflectors
        assert orthogonality_defect(reconstruct_g(g)) <= 1e-12
