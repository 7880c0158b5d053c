"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import io
import time

import numpy as np

from bandedhh import (
    FlopCounter,
    Placement,
    apply,
    apply_blocked,
    apply_counted,
    apply_to_matrix,
    factor_auto,
    factor_complement,
    factor_tall,
    read_factor,
    reconstruct_a,
    storage_floats,
    write_factor,
    _kernels,
)
from oracle import implied_vector, orthogonality_defect, reconstruct_g


def _report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def _random(m, n, seed):
    return np.random.default_rng(seed).standard_normal((m, n))


def _rel_err(recon, a):
    # scale by max|a| first so neither norm underflows or overflows
    peak = np.abs(a).max(initial=0.0)
    if peak:
        recon, a = recon / peak, a / peak
    scale = np.linalg.norm(a)
    return np.linalg.norm(recon - a) / scale if scale else np.linalg.norm(recon - a)


def _sweep_shapes():
    shapes = []
    for m in (1, 2, 3, 5, 7, 8, 12, 16, 25, 31, 50, 64, 100, 141, 200):
        for n in sorted({1, 2, m // 3, m // 2, m - 1, m}):
            if 1 <= n <= m:
                shapes.append((m, n))
    return shapes


def _serialize(f):
    buf = io.BytesIO()
    write_factor(f, buf)
    return buf.getvalue()


def test_criterion_01_storage_exactness():
    bad = []
    for m, n in _sweep_shapes():
        a = _random(m, n, seed=m * 211 + n)
        for f in (factor_tall(a), factor_complement(a)):
            if storage_floats(f.reflectors) != n * (m - n):
                bad.append((m, n, f.placement.name))
    _report(1, "storage-exactness", not bad, f"{len(_sweep_shapes())} shapes x 2 routes")


def test_criterion_02_flop_exactness():
    ok = True
    details = []
    for width, shape in ((1, (8, 7)), (3, (7, 4)), (50, (60, 10))):
        m, n = shape
        f = factor_tall(_random(m, n, seed=width))
        assert np.count_nonzero(f.reflectors.betas) == n, "need all betas nonzero"
        counter = FlopCounter()
        apply_counted(f.reflectors, np.ones(m), counter)
        ok &= counter.total == 4 * n * (m - n) + 2 * n
        details.append(f"{shape}:{counter.total}")
        single = factor_tall(_random(width + 1, 1, seed=width + 99))
        assert single.reflectors.betas[0] != 0.0
        counter = FlopCounter()
        apply_counted(single.reflectors, np.ones(width + 1), counter)
        ok &= counter.total == 4 * width + 2
        details.append(f"w={width}:{counter.total}")
    _report(2, "flop-exactness", ok, " ".join(details))


def test_criterion_03_reconstruction():
    worst = 0.0
    for m, n in ((7, 4), (50, 50), (200, 10), (200, 190), (1000, 4), (1000, 996)):
        for seed in range(100):
            a = _random(m, n, seed=seed * 1000 + m + n)
            err = _rel_err(reconstruct_a(factor_auto(a)), a)
            worst = max(worst, err)
    _report(3, "reconstruction", worst <= 1e-12, f"worst rel err {worst:.3e}")


def test_criterion_04_vector_structure():
    ok = True
    for m, n in ((7, 4), (9, 2), (12, 11), (30, 13), (5, 5)):
        a = _random(m, n, seed=m * 7 + n)
        for f in (factor_tall(a), factor_complement(a)):
            g = f.reflectors
            k, w = g.free_entries.shape
            ok &= k + w == m
            ok &= g.betas.shape == (k,)
            for i in range(k):
                v = implied_vector(g, i)
                ok &= not v[:i].any()
                ok &= v[i] == 1.0
                ok &= not v[i + 1 + w :].any()
    _report(4, "vector-structure", ok)


def test_criterion_05_orthogonality_propagation():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        m = int(rng.integers(5, 120))
        n = int(rng.integers(1, m + 1))
        q = np.linalg.qr(rng.standard_normal((m, n)))[0]
        worst = max(worst, orthogonality_defect(factor_auto(q).core))
    _report(5, "orthogonality-propagation", worst <= 1e-12, f"worst defect {worst:.3e}")


def test_criterion_06_complement_zero_block():
    worst = 0.0
    for m, n in _sweep_shapes():
        if m == n:
            continue
        a = _random(m, n, seed=m * 13 + n)
        f = factor_complement(a)
        top = apply_to_matrix(f.reflectors, a, transpose=True)[: m - n]
        worst = max(worst, np.linalg.norm(top) / np.linalg.norm(a))
    _report(6, "complement-zero-block", worst <= 1e-12, f"worst rel norm {worst:.3e}")


def test_criterion_07_range_preservation():
    worst = 0.0
    for m, n in ((9, 3), (30, 5), (40, 12), (64, 32), (25, 24)):
        a = _random(m, n, seed=m + 17 * n)
        q_oracle = np.linalg.qr(a)[0]
        p_a = q_oracle @ q_oracle.T
        g1 = reconstruct_g(factor_tall(a).reflectors)[:, :n]
        worst = max(worst, np.linalg.norm(p_a - g1 @ g1.T))
    _report(7, "range-preservation", worst <= 1e-10, f"worst distance {worst:.3e}")


def test_criterion_08_determinism():
    ok = True
    for maker, shape in ((factor_tall, (50, 20)), (factor_complement, (50, 45))):
        a = _random(*shape, seed=sum(shape))
        f1, f2 = maker(a), maker(a)
        ok &= f1.reflectors.free_entries.tobytes() == f2.reflectors.free_entries.tobytes()
        ok &= f1.reflectors.betas.tobytes() == f2.reflectors.betas.tobytes()
        ok &= f1.core.tobytes() == f2.core.tobytes()
        ok &= _serialize(f1) == _serialize(f2)
    _report(8, "determinism", ok)


def test_criterion_09_blocked_equivalence():
    ok = True
    worst_apply = 0.0
    worst_wy = 0.0
    factors = [
        factor_tall(_random(25, 10, seed=41)),
        factor_tall(_random(40, 12, seed=42)),
        factor_complement(_random(40, 28, seed=43)),
    ]
    for f in factors:
        g = f.reflectors
        k = g.count
        assert k >= 10
        m = g.ambient_dim
        x = np.random.default_rng(k).standard_normal(m)
        reference = apply(g, x)
        for b in (1, 2, 3, k):
            diff = np.linalg.norm(apply_blocked(g, x, b) - reference)
            worst_apply = max(worst_apply, diff / np.linalg.norm(x))
        for start, size in ((0, 1), (0, min(4, k)), (k // 2, min(3, k - k // 2)), (0, k)):
            blk = _kernels.build_blocks(g, start, size, 1)[0]
            # v_block is band-compact: it holds rows start .. start + size + w
            rows = slice(start, start + size + g.bandwidth)
            for j in range(size):
                v = implied_vector(g, start + j)
                ok &= np.array_equal(blk.v_block[:, j], v[rows])
                v[rows] = 0.0
                ok &= not v.any()
            wy = np.eye(m)
            wy[rows, rows] -= blk.v_block @ blk.t_block @ blk.v_block.T
            product = np.eye(m)
            for i in range(start, start + size):
                v = implied_vector(g, i)
                product = product @ (np.eye(m) - g.betas[i] * np.outer(v, v))
            worst_wy = max(worst_wy, np.linalg.norm(wy - product))
    ok &= worst_apply <= 1e-13 and worst_wy <= 1e-13
    _report(9, "blocked-equivalence", ok,
            f"apply diff {worst_apply:.3e}, wy defect {worst_wy:.3e}")


def test_criterion_10_crossover_rule():
    ok = True
    shapes = _sweep_shapes() + [(2 * n, n) for n in range(1, 9)]
    for m, n in shapes:
        f = factor_auto(_random(m, n, seed=m * 3 + n))
        expected = Placement.TOP if m - n >= n else Placement.BOTTOM
        ok &= f.placement is expected
    _report(10, "crossover-rule", ok, f"{len(shapes)} shapes incl. ties")


def test_criterion_11_format_roundtrip():
    ok = True
    worst = 0.0
    for maker, shape in (
        (factor_tall, (7, 4)),
        (factor_tall, (20, 20)),
        (factor_complement, (20, 17)),
        (factor_auto, (31, 2)),
        (factor_auto, (31, 29)),
    ):
        a = _random(*shape, seed=11 * shape[0] + shape[1])
        f = maker(a)
        data = _serialize(f)
        back = read_factor(io.BytesIO(data))
        ok &= _serialize(back) == data
        worst = max(worst, _rel_err(reconstruct_a(back), a))
    ok &= worst <= 1e-12
    _report(11, "format-roundtrip", ok, f"worst rel err {worst:.3e}")


def test_criterion_12_complexity_sanity():
    def best_time(m, n, reps=7):
        a = _random(m, n, seed=m)
        factor_tall(a)  # warm caches and jit
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            factor_tall(a)
            best = min(best, time.perf_counter() - t0)
        return best

    t_small = best_time(2000, 64)
    t_large = best_time(4000, 64)
    ratio = t_large / t_small
    _report(12, "complexity-sanity", 1.2 <= ratio <= 4.0,
            f"doubling m: {ratio:.2f}x")
