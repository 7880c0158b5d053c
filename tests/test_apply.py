import tracemalloc

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
    factor_complement,
    factor_tall,
    _kernels,
)
from oracle import implied_vector, reconstruct_g


def tall_g(m, n, seed):
    rng = np.random.default_rng(seed)
    return factor_tall(rng.standard_normal((m, n))).reflectors


def reference_apply(g, x, forward):
    """G x (forward) or G' x, one reflection at a time, for 1 or many columns."""
    out = np.array(x, dtype=np.float64)
    w = g.bandwidth
    for i in range(g.count - 1, -1, -1) if forward else range(g.count):
        rows = out[i + 1 : i + 1 + w]
        t = g.betas[i] * (out[i] + g.free_entries[i] @ rows)
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
        v = implied_vector(g, blk.start_index + j)
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
    # A zero tail gives beta = 2: the reflection flips the sign of its row.
    def test_zero_tails_flip_signs(self):
        g = BandedReflectors(5, np.zeros((3, 2)))
        x = np.arange(1.0, 6.0)
        flipped = np.array([-1.0, -2.0, -3.0, 4.0, 5.0])
        assert np.array_equal(apply(g, x), flipped)
        assert np.array_equal(apply_transpose(g, x), flipped)

    def test_single_reflection_hand_case(self):
        g = BandedReflectors(2, np.array([[1.0]]))
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

    def test_nan_propagates(self):
        # NaN is not rejected: it spreads through the products by IEEE rules
        g = tall_g(40, 10, 9)
        x = np.random.default_rng(10).standard_normal(40)
        x[17] = np.nan
        for out in (
            apply(g, x),
            apply_transpose(g, x),
            apply_to_matrix(g, np.column_stack([x, x])),
            apply_to_matrix(g, np.column_stack([x, x]), transpose=True),
        ):
            assert np.isnan(out).any()


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

    # Every reflection is active, a zero tail's sign flip included.
    def test_zero_tails_cost_the_same(self):
        g = BandedReflectors(5, np.zeros((2, 3)))
        counter = FlopCounter()
        apply_counted(g, np.ones(5), counter)
        assert counter.total == 28  # 2 (4 (m - n) + 2) with n=2, m-n=3

    def test_result_identical_to_apply(self):
        g = tall_g(11, 4, 11)
        x = np.random.default_rng(12).standard_normal(11)
        assert np.array_equal(apply_counted(g, x, FlopCounter()), apply(g, x))


# G is orthogonal, so a product overflows only when its exact answer does;
# unscaled, this operand overflows in the engine's V'x. H = I - v v' with
# v = (1, 1) gives H x = -(x[1], x[0]).
@pytest.mark.parametrize("product", [
    apply,
    apply_transpose,
    lambda g, x: apply_blocked(g, x, 1),
    lambda g, x: apply_counted(g, x, FlopCounter()),
    lambda g, x: apply_to_matrix(g, x[:, None])[:, 0],
    lambda g, x: apply_to_matrix(g, x[:, None], transpose=True)[:, 0],
], ids=["apply", "apply_transpose", "apply_blocked", "apply_counted",
        "apply_to_matrix", "apply_to_matrix_transpose"])
def test_product_near_limit(product):
    out = product(BandedReflectors(2, [[1.0]]), np.array([1e308, 1e308]))
    assert np.array_equal(out, [-1e308, -1e308])


# A NaN makes the operand's flat peak NaN, which must still reach the
# per-column shift, or the 1e308 column beside it overflows as above.
@pytest.mark.parametrize("transpose", [False, True])
def test_nan_column_beside_huge_column(transpose):
    x = np.array([[np.nan, 1e308], [np.nan, 1e308]])
    out = apply_to_matrix(BandedReflectors(2, [[1.0]]), x, transpose)
    assert np.isnan(out[:, 0]).all()
    assert np.array_equal(out[:, 1], [-1e308, -1e308])


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
        blk = _kernels.build_blocks(g, 1, 1, 1)[0]
        assert np.array_equal(blk.t_block, [[g.betas[1]]])
        check_band_compact(g, blk)

    def test_pair_recurrence_formula(self):
        g = tall_g(9, 4, 22)
        blk = _kernels.build_blocks(g, 0, 2, 1)[0]
        check_band_compact(g, blk)
        v0, v1 = implied_vector(g, 0), implied_vector(g, 1)
        b0, b1 = g.betas[0], g.betas[1]
        expected = np.array([[b0, -b0 * b1 * (v0 @ v1)], [0.0, b1]])
        assert np.allclose(blk.t_block, expected, atol=1e-15)

    @pytest.mark.parametrize("start,size", [(0, 1), (0, 3), (2, 2), (1, 4)])
    def test_dense_identity(self, start, size):
        g = tall_g(12, 5, 23)
        blk = _kernels.build_blocks(g, start, size, 1)[0]
        check_band_compact(g, blk)
        wy = embedded_wy(g, blk)
        product = np.eye(12)
        for i in range(start, start + size):
            v = implied_vector(g, i)
            product = product @ (np.eye(12) - g.betas[i] * np.outer(v, v))
        assert np.linalg.norm(wy - product) <= 1e-13


# Reference T: the same formula with an explicit mask and identity.
def masked_block_t(vt, betas):
    size = betas.shape[-1]
    unit = vt @ np.swapaxes(vt, -1, -2)
    unit *= betas[..., :, None]
    unit *= np.triu(np.ones((size, size)), 1)
    unit += np.eye(size)
    return np.linalg.inv(unit) * betas[..., None, :]


class TestBlockT:
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_stacked_matches_masked_formula(self, size):
        g = tall_g(40, 24, 31)
        count = g.count // size
        vt = _kernels.band_vt(
            g.free_entries[: count * size].reshape(count, size, g.bandwidth))
        betas = g.betas[: count * size].reshape(count, size)
        t = _kernels._block_t(vt, betas)
        assert t.tobytes() == masked_block_t(vt, betas).tobytes()

    # A raw block: tau of a LAPACK QR, with zeros where a column is skipped.
    def test_single_with_zero_betas_matches_masked_formula(self):
        h, tau = np.linalg.qr(np.random.default_rng(32).standard_normal((30, 12)), mode="raw")
        tau[[0, 5, 11]] = 0.0
        for blk in _kernels.raw_blocks(h, tau):
            s, e = blk.start_index, blk.start_index + blk.block_size
            vt = np.ascontiguousarray(blk.v_block.T)
            expected = masked_block_t(vt, tau[s:e])
            assert _kernels._block_t(vt, tau[s:e]).tobytes() == expected.tobytes()
            assert blk.t_block.tobytes() == expected.tobytes()
            assert np.array_equal(np.diag(blk.t_block), tau[s:e])


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
        chain = _kernels.plan(g, 3)
        assert [blk.start_index for blk in chain] == [0, 3, 6, 9]
        assert [blk.block_size for blk in chain] == [3, 3, 3, 1]

    @pytest.mark.parametrize("block_size", [0, 2.0, True, False])
    def test_invalid_block_size(self, block_size):
        g = tall_g(9, 4, 34)
        for _ in range(2):
            with pytest.raises(ShapeError):
                apply_blocked(g, np.zeros(9), block_size)
            _kernels.plan(g, 2)


def sign_flip_mix_g():
    # every third tail zeroed, so that reflection is the sign flip of its row
    free = tall_g(120, 45, 40).free_entries.copy()
    free[np.arange(45) % 3 == 1] = 0.0
    return BandedReflectors(120, free)


class TestWYEngine:
    """The cached WY plan against the per-reflection reference loop."""

    CASES = {
        "k%b!=0": lambda: tall_g(120, 45, 41),
        "k<b": lambda: tall_g(30, 10, 42),
        "several-blocks": lambda: factor_complement(
            np.random.default_rng(43).standard_normal((160, 90))).reflectors,
        "w=0-square": lambda: tall_g(20, 20, 44),
        "w=0-sign-flips": lambda: BandedReflectors(40, np.zeros((40, 0))),
        "k=0": lambda: BandedReflectors(9, np.zeros((0, 9))),
        "sign-flip-mix": sign_flip_mix_g,
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

    def test_t_diagonal_exact(self):
        g = sign_flip_mix_g()
        for blk in _kernels.plan(g, 32):
            betas = g.betas[blk.start_index : blk.start_index + blk.block_size]
            assert np.array_equal(np.diag(blk.t_block), betas)

    # Zero tails make G the sign flip of the first k rows, on every path bit
    # for bit (x - 2x for nonzero x).
    def test_zero_tails_are_exact_sign_flips(self):
        g = BandedReflectors(80, np.zeros((40, 40)))
        rng = np.random.default_rng(46)
        x, xs = rng.standard_normal(80), rng.standard_normal((80, 64))
        flip = np.where(np.arange(80) < 40, -1.0, 1.0)
        assert np.array_equal(apply(g, x), flip * x)
        assert np.array_equal(apply_transpose(g, x), flip * x)
        assert np.array_equal(apply_to_matrix(g, xs), flip[:, None] * xs)
        assert np.array_equal(apply_to_matrix(g, xs, transpose=True), flip[:, None] * xs)

    def test_hand_case_exact_on_every_path(self):
        g = BandedReflectors(2, np.array([[1.0]]))
        assert np.array_equal(apply_transpose(g, [1.0, 0.0]), [0.0, -1.0])
        assert np.array_equal(apply_to_matrix(g, [[1.0], [0.0]]), [[0.0], [-1.0]])
        assert np.array_equal(apply_blocked(g, [1.0, 0.0], 1), [0.0, -1.0])

    def test_plan_is_cached(self):
        g = tall_g(60, 20, 47)
        default = _kernels.plan(g, 32)
        assert _kernels.plan(g, 32) is default
        eight = _kernels.plan(g, 8)
        assert eight is not default and len(eight) == 3
        assert _kernels.plan(g, 8) is eight
        # The factor holds one plan: size 8 replaced size 32, so asking for
        # 32 again builds a new plan with the same bits.
        rebuilt = _kernels.plan(g, 32)
        assert rebuilt is not default
        for old, new in zip(default, rebuilt, strict=True):
            assert np.array_equal(old.v_block, new.v_block)
            assert np.array_equal(old.t_block, new.t_block)
        assert _kernels.plan(g, 32) is rebuilt

    @pytest.mark.parametrize("m,n", [(4096, 512), (60, 20)])
    def test_plan_starts_on_a_cache_line(self, m, n):
        assert _kernels.plan(tall_g(m, n, 53))[0].v_block.ctypes.data % 64 == 0

    def test_factor_holds_one_plan(self):
        # 1000x100: 720 kB of free entries, and a plan of any block size up
        # to 32 holds about 1.1x that, so one plan fits the bound and two do not.
        g = tall_g(1000, 100, 50)
        x = np.random.default_rng(51).standard_normal(1000)
        apply(tall_g(40, 10, 52), x[:40])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            apply(g, x)
            for b in (1, 4, 8, 16):
                apply_blocked(g, x, b)
            apply(g, x)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 2 * g.free_entries.nbytes

    def test_factor_arrays_are_read_only_copies(self):
        free = np.full((3, 2), 0.5)
        g = BandedReflectors(5, free)
        free[0, 0] = 7.0
        assert g.free_entries[0, 0] == 0.5
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
