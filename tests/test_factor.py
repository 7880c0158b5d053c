import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bandedhh import (
    BandedReflectors,
    Placement,
    ShapeError,
    apply,
    apply_to_matrix,
    apply_transpose,
    factor_auto,
    factor_complement,
    factor_tall,
    orthogonality_defect,
    reconstruct_a,
    reconstruct_g,
    storage_floats,
    storage_floats_with_betas,
)
from bandedhh.factor import _banded_qr, _complement_basis


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

    def test_implied_vector_pattern(self):
        g = BandedReflectors(5, np.arange(6.0).reshape(2, 3) + 1.0, np.ones(2))
        v1 = g.implied_vector(1)
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
            v = g.implied_vector(i)
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

    # factor_complement forms only the R of the inner LQ; its reflectors and
    # core must be those of the full factor_tall(U2), bit for bit.
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
        core = apply_to_matrix(g, a, transpose=True)[m - n :]
        assert f.core.tobytes() == core.tobytes()

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
    # norms keep every step finite and accurate. Denormal input is not
    # covered: a core stored in denormals keeps only a few significant bits.
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


def _flip_copy(x):
    return np.ascontiguousarray(x[::-1, ::-1])


def _reference_banded_qr(l):
    # The banded QR as it ran on explicit 180-degree copies, with the free
    # entries gathered by fancy indexing.
    m, n = l.shape
    w = m - n
    h, betas = np.linalg.qr(_flip_copy(l), mode="raw")
    rows = np.arange(n)[:, None]
    return BandedReflectors(m, h[rows, rows + 1 + np.arange(w)], betas), h


def _reference_tall(a):
    n = a.shape[1]
    q_lq, r_lq = np.linalg.qr(_flip_copy(a).T)
    g, h = _reference_banded_qr(r_lq.T)
    return g, np.triu(h[:, :n].T) @ _flip_copy(q_lq.T)


def _reference_complement(a):
    m, n = a.shape
    l = np.linalg.qr(_flip_copy(_complement_basis(a)).T, mode="r").T
    g, _ = _reference_banded_qr(l)
    return g, apply_to_matrix(g, a, transpose=True)[m - n :]


def _bits(x):
    # uint64 view of float64 data, so that -0.0 and 0.0 differ
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _assert_same_factor(f, g, core):
    assert np.array_equal(_bits(f.reflectors.free_entries), _bits(g.free_entries))
    assert np.array_equal(_bits(f.reflectors.betas), _bits(g.betas))
    assert np.array_equal(_bits(f.core), _bits(core))


class TestViewPipelinePin:
    # LAPACK reads reversed views and the free entries come from a skewed
    # view; the output must equal that of the copying pipeline bit for bit.
    @pytest.mark.parametrize(
        "case",
        ["1000x200", "1500x300", "3x1", "n=1", "m-n=1", "rank n/10", "1e-300", "1e300"],
    )
    def test_tall_matches_copying_pipeline(self, case):
        m, n, rank, scale = {
            "1000x200": (1000, 200, None, 1.0),
            "1500x300": (1500, 300, None, 1.0),
            "3x1": (3, 1, None, 1.0),
            "n=1": (50, 1, None, 1.0),
            "m-n=1": (40, 39, None, 1.0),
            "rank n/10": (300, 100, 10, 1.0),
            "1e-300": (60, 25, None, 1e-300),
            "1e300": (60, 25, None, 1e300),
        }[case]
        rng = np.random.default_rng(m + n)
        if rank is None:
            a = rng.standard_normal((m, n)) * scale
        else:
            a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        _assert_same_factor(factor_tall(a), *_reference_tall(a))

    @pytest.mark.parametrize("m,n", [(1000, 900), (1200, 1000), (30, 22)])
    def test_complement_matches_copying_pipeline(self, m, n):
        a = random_matrix(m, n, m - n)
        _assert_same_factor(factor_complement(a), *_reference_complement(a))


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
    # _banded_qr is only ever given the lower-trapezoidal L of an LQ; a dense
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
