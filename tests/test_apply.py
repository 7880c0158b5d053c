import numpy as np
import pytest

from bandedhh import (
    BandedReflectors,
    FlopCounter,
    ShapeError,
    apply,
    apply_blocked,
    apply_counted,
    apply_to_matrix,
    apply_transpose,
    build_wy,
    factor_complement,
    factor_tall,
    reconstruct_g,
    wy_chain,
)


def tall_g(m, n, seed):
    rng = np.random.default_rng(seed)
    return factor_tall(rng.standard_normal((m, n))).reflectors


def reference_apply(g, x, forward):
    """G x (forward) or G' x, one reflection at a time, for 1 or many columns."""
    out = np.array(x, dtype=np.float64)
    w = g.bandwidth
    for i in range(g.count - 1, -1, -1) if forward else range(g.count):
        beta = g.betas[i]
        if beta == 0.0:
            continue
        rows = out[i + 1 : i + 1 + w]
        t = beta * (out[i] + g.free_entries[i] @ rows)
        out[i] -= t
        rows -= np.multiply.outer(g.free_entries[i], t)
    return out


def band_rows(g, blk):
    """Rows of the full reflection vectors that blk.v_block holds."""
    return slice(blk.start_index, blk.start_index + blk.block_size + g.bandwidth)


def check_band_compact(g, blk):
    """v_block column j is implied_vector(start + j) on the band rows, zero elsewhere."""
    rows = band_rows(g, blk)
    for j in range(blk.block_size):
        v = g.implied_vector(blk.start_index + j)
        assert np.array_equal(blk.v_block[:, j], v[rows])
        v[rows] = 0.0
        assert not v.any()


def embedded_wy(g, blk):
    """The dense m x m matrix I - V T V' with V T V' at the band rows."""
    rows = band_rows(g, blk)
    wy = np.eye(g.ambient_dim)
    wy[rows, rows] -= blk.v_block @ blk.t_block @ blk.v_block.T
    return wy


class TestApply:
    def test_all_skipped_is_identity(self):
        g = BandedReflectors(5, np.zeros((3, 2)), np.zeros(3))
        x = np.arange(5.0)
        assert np.array_equal(apply(g, x), x)
        assert np.array_equal(apply_transpose(g, x), x)

    def test_single_reflection_hand_case(self):
        g = BandedReflectors(2, np.array([[1.0]]), np.array([1.0]))
        assert np.array_equal(apply(g, [1.0, 0.0]), [0.0, -1.0])

    def test_matches_dense_oracle(self):
        g = tall_g(7, 4, 0)
        dense = reconstruct_g(g)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(7)
        assert np.linalg.norm(apply(g, x) - dense @ x) <= 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(apply_transpose(g, x) - dense.T @ x) <= 1e-13 * np.linalg.norm(x)

    def test_complement_factor_matches_oracle(self):
        rng = np.random.default_rng(2)
        g = factor_complement(rng.standard_normal((9, 6))).reflectors
        dense = reconstruct_g(g)
        x = rng.standard_normal(9)
        assert np.linalg.norm(apply(g, x) - dense @ x) <= 1e-13 * np.linalg.norm(x)

    def test_transpose_roundtrip(self):
        g = tall_g(12, 5, 3)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(12)
        back = apply_transpose(g, apply(g, x))
        assert np.linalg.norm(back - x) <= 1e-13 * np.linalg.norm(x)

    def test_norm_preserved(self):
        g = tall_g(15, 6, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(15)
        assert abs(np.linalg.norm(apply(g, x)) - np.linalg.norm(x)) <= 1e-13 * np.linalg.norm(x)

    def test_length_mismatch(self):
        g = tall_g(7, 4, 7)
        with pytest.raises(ShapeError):
            apply(g, np.zeros(6))

    def test_input_not_mutated(self):
        g = tall_g(7, 4, 8)
        x = np.ones(7)
        apply(g, x)
        assert np.array_equal(x, np.ones(7))


class TestApplyCounted:
    def test_seven_by_four_exact_count(self):
        g = tall_g(7, 4, 9)
        assert np.count_nonzero(g.betas) == 4
        counter = FlopCounter()
        apply_counted(g, np.ones(7), counter)
        assert counter.total == 56  # 4 n (m - n) + 2 n with n=4, m-n=3
        assert counter.total == counter.multiplies + counter.additions

    def test_single_reflection_width_three(self):
        g = tall_g(4, 1, 10)
        assert g.betas[0] != 0.0
        counter = FlopCounter()
        apply_counted(g, np.ones(4), counter)
        assert counter.total == 14  # 4 (m - n) + 2 with m-n=3

    def test_skipped_costs_nothing(self):
        g = BandedReflectors(5, np.zeros((2, 3)), np.zeros(2))
        counter = FlopCounter()
        apply_counted(g, np.ones(5), counter)
        assert counter.total == 0

    def test_result_identical_to_apply(self):
        g = tall_g(11, 4, 11)
        x = np.random.default_rng(12).standard_normal(11)
        assert np.array_equal(apply_counted(g, x, FlopCounter()), apply(g, x))


class TestApplyToMatrix:
    def test_identity_gives_dense_product(self):
        g = tall_g(8, 3, 13)
        assert np.linalg.norm(apply_to_matrix(g, np.eye(8)) - reconstruct_g(g)) <= 1e-13

    def test_single_column_matches_apply(self):
        g = tall_g(8, 3, 14)
        x = np.random.default_rng(15).standard_normal(8)
        out = apply_to_matrix(g, x.reshape(-1, 1))
        assert np.linalg.norm(out[:, 0] - apply(g, x)) <= 1e-14 * np.linalg.norm(x)

    def test_random_block_matches_dense(self):
        g = tall_g(7, 4, 16)
        rng = np.random.default_rng(17)
        a = rng.standard_normal((7, 2))
        assert np.linalg.norm(apply_to_matrix(g, a) - reconstruct_g(g) @ a) <= 1e-13

    def test_transpose_flag(self):
        g = tall_g(7, 4, 18)
        rng = np.random.default_rng(19)
        a = rng.standard_normal((7, 3))
        out = apply_to_matrix(g, a, transpose=True)
        assert np.linalg.norm(out - reconstruct_g(g).T @ a) <= 1e-13

    def test_row_mismatch(self):
        g = tall_g(7, 4, 20)
        with pytest.raises(ShapeError):
            apply_to_matrix(g, np.zeros((6, 2)))


class TestBlockedWY:
    def test_single_reflection_t_is_beta(self):
        g = tall_g(9, 4, 21)
        blk = build_wy(g, 1, 1)
        assert np.array_equal(blk.t_block, [[g.betas[1]]])
        check_band_compact(g, blk)

    def test_pair_recurrence_formula(self):
        g = tall_g(9, 4, 22)
        blk = build_wy(g, 0, 2)
        check_band_compact(g, blk)
        v0, v1 = g.implied_vector(0), g.implied_vector(1)
        b0, b1 = g.betas[0], g.betas[1]
        expected = np.array([[b0, -b0 * b1 * (v0 @ v1)], [0.0, b1]])
        assert np.allclose(blk.t_block, expected, atol=1e-15)

    @pytest.mark.parametrize("start,size", [(0, 1), (0, 3), (2, 2), (1, 4)])
    def test_dense_identity(self, start, size):
        g = tall_g(12, 5, 23)
        blk = build_wy(g, start, size)
        check_band_compact(g, blk)
        wy = embedded_wy(g, blk)
        product = np.eye(12)
        for i in range(start, start + size):
            v = g.implied_vector(i)
            product = product @ (np.eye(12) - g.betas[i] * np.outer(v, v))
        assert np.linalg.norm(wy - product) <= 1e-13

    def test_out_of_range(self):
        g = tall_g(9, 4, 24)
        with pytest.raises(IndexError):
            build_wy(g, 3, 2)

    def test_block_size_at_least_one(self):
        g = tall_g(9, 4, 25)
        with pytest.raises(ShapeError):
            build_wy(g, 0, 0)

    def test_overhead_accounting(self):
        g = tall_g(12, 5, 26)
        for size in (1, 2, 5):
            assert build_wy(g, 0, size).overhead_floats() == size * (size + 1) // 2


class TestApplyBlocked:
    def test_block_size_one_matches_apply(self):
        g = tall_g(14, 6, 27)
        x = np.random.default_rng(28).standard_normal(14)
        expected = apply(g, x)
        got = apply_blocked(g, x, 1)
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(x)

    @pytest.mark.parametrize("block_size", [2, 3, 10])
    def test_matches_apply(self, block_size):
        g = tall_g(25, 10, 29)
        x = np.random.default_rng(30).standard_normal(25)
        diff = np.linalg.norm(apply_blocked(g, x, block_size) - apply(g, x))
        assert diff <= 1e-13 * np.linalg.norm(x)

    def test_full_block(self):
        g = tall_g(9, 4, 31)
        x = np.random.default_rng(32).standard_normal(9)
        diff = np.linalg.norm(apply_blocked(g, x, g.count) - apply(g, x))
        assert diff <= 1e-13 * np.linalg.norm(x)

    def test_chain_covers_all_reflections(self):
        g = tall_g(25, 10, 33)
        chain = wy_chain(g, 3)
        assert [blk.start_index for blk in chain] == [0, 3, 6, 9]
        assert [blk.block_size for blk in chain] == [3, 3, 3, 1]

    def test_invalid_block_size(self):
        g = tall_g(9, 4, 34)
        with pytest.raises(ShapeError):
            apply_blocked(g, np.zeros(9), 0)


def skipped_mix_g():
    # every third reflection skipped; its free entries are left nonzero
    g = tall_g(120, 45, 40)
    betas = np.where(np.arange(45) % 3 == 1, 0.0, g.betas)
    return BandedReflectors(120, g.free_entries, betas)


class TestWYEngine:
    """The cached WY plan against the per-reflection reference loop."""

    CASES = {
        "k%b!=0": lambda: tall_g(120, 45, 41),
        "k<b": lambda: tall_g(30, 10, 42),
        "several-blocks": lambda: factor_complement(
            np.random.default_rng(43).standard_normal((160, 90))).reflectors,
        "w=0-square": lambda: tall_g(20, 20, 44),
        "w=0-sign-flips": lambda: BandedReflectors(
            40, np.zeros((40, 0)), np.where(np.arange(40) % 2 == 0, 2.0, 0.0)),
        "k=0": lambda: BandedReflectors(9, np.zeros((0, 9)), np.zeros(0)),
        "skipped-mix": skipped_mix_g,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("columns", [1, 64])
    def test_matches_reference_loop(self, case, forward, columns):
        g = self.CASES[case]()
        rng = np.random.default_rng(45)
        if columns == 1:
            x = rng.standard_normal(g.ambient_dim)
            got = apply(g, x) if forward else apply_transpose(g, x)
        else:
            x = rng.standard_normal((g.ambient_dim, columns))
            got = apply_to_matrix(g, x, transpose=not forward)
        want = reference_apply(g, x, forward)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_t_diagonal_and_skipped_rows_exact(self):
        g = skipped_mix_g()
        for blk in wy_chain(g, 32):
            betas = g.betas[blk.start_index : blk.start_index + blk.block_size]
            assert np.array_equal(np.diag(blk.t_block), betas)
            skipped = betas == 0.0
            assert not blk.t_block[skipped].any()
            assert not blk.t_block[:, skipped].any()

    def test_all_skipped_is_bit_exact_identity(self):
        g = BandedReflectors(80, np.ones((40, 40)), np.zeros(40))
        rng = np.random.default_rng(46)
        x, xs = rng.standard_normal(80), rng.standard_normal((80, 64))
        assert np.array_equal(apply(g, x), x)
        assert np.array_equal(apply_transpose(g, x), x)
        assert np.array_equal(apply_to_matrix(g, xs), xs)
        assert np.array_equal(apply_to_matrix(g, xs, transpose=True), xs)

    def test_hand_case_exact_on_every_path(self):
        g = BandedReflectors(2, np.array([[1.0]]), np.array([1.0]))
        assert np.array_equal(apply_transpose(g, [1.0, 0.0]), [0.0, -1.0])
        assert np.array_equal(apply_to_matrix(g, [[1.0], [0.0]]), [[0.0], [-1.0]])
        assert np.array_equal(apply_blocked(g, [1.0, 0.0], 1), [0.0, -1.0])

    def test_plan_is_cached(self):
        g = tall_g(60, 20, 47)
        assert wy_chain(g, 32) is wy_chain(g, 32)
        assert wy_chain(g, 8) is not wy_chain(g, 32)

    def test_factor_arrays_are_read_only_copies(self):
        free, betas = np.ones((3, 2)), np.ones(3)
        g = BandedReflectors(5, free, betas)
        free[0, 0] = 7.0
        assert g.free_entries[0, 0] == 1.0
        with pytest.raises(ValueError):
            g.free_entries[0, 0] = 2.0
        with pytest.raises(ValueError):
            g.betas[0] = 2.0

    def test_deterministic(self):
        g = tall_g(200, 70, 48)
        rng = np.random.default_rng(49)
        x, xs = rng.standard_normal(200), rng.standard_normal((200, 64))
        assert apply(g, x).tobytes() == apply(g, x).tobytes()
        assert apply_transpose(g, x).tobytes() == apply_transpose(g, x).tobytes()
        assert apply_to_matrix(g, xs).tobytes() == apply_to_matrix(g, xs).tobytes()
