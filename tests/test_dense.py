import numpy as np
import pytest

from bandedhh import (
    ShapeError,
    apply_to_matrix,
    as_matrix,
    factor_auto,
    factor_complement,
    factor_tall,
    flip180,
    orthogonality_defect,
    reconstruct_a,
    reconstruct_g,
)


def rel_err(recon, a):
    return np.linalg.norm(recon - a) / np.linalg.norm(a)


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


class TestFlip180:
    def test_two_by_three(self):
        out = flip180([[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(out, [[6, 5, 4], [3, 2, 1]])

    def test_one_by_one_fixed_point(self):
        assert np.array_equal(flip180([[7.5]]), [[7.5]])

    def test_involution(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 3))
        assert np.array_equal(flip180(flip180(a)), a)

    def test_preserves_frobenius_norm_exactly(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 4))
        assert np.linalg.norm(flip180(a)) == np.linalg.norm(a)

    def test_lower_triangular_flips_to_band(self):
        # L lower-trapezoidal => flipped L has exact zeros at row > col + m - n
        rng = np.random.default_rng(2)
        m, n = 7, 4
        l_factor = np.tril(rng.standard_normal((m, n)))
        flipped = flip180(l_factor)
        for i in range(m):
            for j in range(n):
                if i > j + m - n:
                    assert flipped[i, j] == 0.0


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
