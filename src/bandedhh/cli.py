"""Command line front end: factor, apply, report, and bench subcommands.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a numerical
self-check fails.
"""

import argparse
import functools
import hashlib
import io as stdio
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import storage
from .apply import BLOCK_SIZE, apply, apply_blocked, apply_to_matrix, apply_transpose, wy_chain
from .factor import (
    BandedReflectors,
    Placement,
    ShapeError,
    factor_auto,
    factor_complement,
    factor_tall,
    reconstruct_a,
    storage_floats,
    storage_floats_with_betas,
)

SELF_CHECK_TOLERANCE = 1e-12

_MODES = {
    "tall": factor_tall,
    "complement": factor_complement,
    "auto": factor_auto,
}


@dataclass
class StorageReport:
    """Float counts for the three ways of storing an m x n orthogonal part."""

    m: int
    n: int

    @property
    def dense_floats(self) -> int:
        return self.m * self.n

    @property
    def householder_floats(self) -> int:
        # n (m - (n + 1)/2) is always an integer: n(n + 1)/2 is triangular
        return self.n * self.m - self.n * (self.n + 1) // 2

    @property
    def banded_floats(self) -> int:
        return self.n * (self.m - self.n)

    def lines(self) -> list[str]:
        def percent(num, den):
            return f"{100.0 * num / den:.1f}%" if den else "n/a"

        return [
            f"m={self.m} n={self.n}",
            f"dense:       {self.dense_floats}",
            f"householder: {self.householder_floats:.1f}",
            f"banded:      {self.banded_floats}",
            f"banded/dense:       {percent(self.banded_floats, self.dense_floats)}",
            f"banded/householder: {percent(self.banded_floats, self.householder_floats)}",
        ]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _require_shape(command: str, m: int, n: int) -> None:
    if m < n or n < 0:
        raise ShapeError(f"{command} requires m >= n >= 0, got m={m} n={n}")


def _relative_residual(recon: np.ndarray, a: np.ndarray) -> float:
    # Dividing by max|a| first keeps both norms clear of underflow and
    # overflow at any finite magnitude.
    peak = np.abs(a).max(initial=0.0)
    if peak:
        recon, a = recon / peak, a / peak
    scale = np.linalg.norm(a)
    resid = np.linalg.norm(recon - a)
    return float(resid / scale) if scale else float(resid)


def _cmd_factor(args) -> int:
    try:
        a = storage.read_matrix(args.input)
        f = _MODES[args.mode](a)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    g = f.reflectors
    residual = _relative_residual(reconstruct_a(f), a)
    try:
        with open(args.output, "wb") as fh:
            nbytes = storage.write_factor(f, fh)
    except OSError as exc:
        return _fail(str(exc))
    print(f"placement: {f.placement.name}")
    print(f"storage: {storage_floats(g)} floats (+{g.count} betas)")
    print(f"residual: {residual:.3e}")
    print(f"wrote: {args.output} ({nbytes} bytes)")
    if args.self_check:
        with open(args.output, "rb") as fh:
            original = fh.read()
        reread = storage.read_factor(stdio.BytesIO(original))
        buf = stdio.BytesIO()
        storage.write_factor(reread, buf)
        if buf.getvalue() != original:
            print("self-check: FAILED (re-serialization differs)", file=sys.stderr)
            return 2
        reread_residual = _relative_residual(reconstruct_a(reread), a)
        if not reread_residual <= SELF_CHECK_TOLERANCE:  # NaN fails too
            print(
                f"self-check: FAILED (residual {reread_residual:.3e}, "
                f"tolerance {SELF_CHECK_TOLERANCE:.0e})",
                file=sys.stderr,
            )
            return 2
        print("self-check: ok")
    return 0


def _cmd_apply(args) -> int:
    try:
        with open(args.factor, "rb") as fh:
            f = storage.read_factor(fh)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        vec = storage.read_matrix(args.vector)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if vec.shape[1] != 1:
        return _fail(f"expected a column vector, got {vec.shape[0]} x {vec.shape[1]}")
    g = f.reflectors
    if vec.shape[0] != g.ambient_dim:
        return _fail(
            f"vector length {vec.shape[0]} does not match factor dimension "
            f"{g.ambient_dim}"
        )
    x = vec[:, 0]
    with np.errstate(all="ignore"):
        result = apply_transpose(g, x) if args.transpose else apply(g, x)
    if not np.isfinite(result).all():
        return _fail("the product overflows to non-finite values")
    storage.write_matrix(result.reshape(-1, 1), sys.stdout)
    return 0


def _cmd_report(args) -> int:
    _require_shape("report", args.m, args.n)
    for line in StorageReport(args.m, args.n).lines():
        print(line)
    return 0


BENCH_COLUMNS = 64


def _time_per_call(func, repetitions: int) -> float:
    func()  # warm-up: the first banded call builds the cached plan
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_plan_build(g, repetitions: int) -> float:
    # Each repetition builds the plan of a fresh copy, so none hits the cache.
    best = float("inf")
    for _ in range(repetitions):
        fresh = BandedReflectors(g.ambient_dim, g.free_entries, g.betas)
        t0 = time.perf_counter()
        wy_chain(fresh, BLOCK_SIZE)
        best = min(best, time.perf_counter() - t0)
    return best


def _print_timing(label: str, seconds: float, flops: int, per: str = "matvec") -> None:
    rate = f"{flops / seconds:.3e} flops/s" if seconds > 0 and flops else "n/a"
    print(f"{label}: {seconds * 1e9:.0f} ns/{per}, {rate}")


def _cmd_bench(args) -> int:
    _require_shape("bench", args.m, args.n)
    if args.repetitions < 1:
        return _fail("repetitions must be at least 1")
    if args.block_size < 1:
        return _fail("block size must be at least 1")
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((args.m, args.n))
    f = factor_auto(a)
    g = f.reflectors
    buf = stdio.BytesIO()
    storage.write_factor(f, buf)
    data = buf.getvalue()
    print(f"seed: {args.seed}")
    print(f"placement: {f.placement.name}")
    print(f"factor bytes: {len(data)} sha256: {hashlib.sha256(data).hexdigest()}")
    print(f"storage: {storage_floats(g)} floats (+{g.count} betas), "
          f"{storage_floats_with_betas(g)} total")
    k, w = g.count, g.bandwidth
    banded_flops = 4 * k * w + 2 * k
    dense_flops = 2 * args.m * args.m
    print(f"banded matvec flops: {banded_flops}")
    x = rng.standard_normal(args.m)
    xs = rng.standard_normal((args.m, BENCH_COLUMNS))
    reps = args.repetitions

    build = _time_plan_build(g, reps)
    print(f"plan build (block size {BLOCK_SIZE}): {build * 1e9:.0f} ns")
    dense_g = apply_to_matrix(g, np.eye(args.m))
    _print_timing("dense matvec", _time_per_call(lambda: dense_g @ x, reps), dense_flops)
    _print_timing("banded matvec", _time_per_call(lambda: apply(g, x), reps), banded_flops)
    cols = f"{BENCH_COLUMNS}-column product"
    _print_timing(f"dense {cols}", _time_per_call(lambda: dense_g @ xs, reps),
                  dense_flops * BENCH_COLUMNS, "call")
    _print_timing(f"banded {cols}", _time_per_call(lambda: apply_to_matrix(g, xs), reps),
                  banded_flops * BENCH_COLUMNS, "call")

    b = args.block_size
    print(f"blocked: block size {b}, blocks {len(wy_chain(g, b))}")
    _print_timing("blocked matvec", _time_per_call(lambda: apply_blocked(g, x, b), reps),
                  banded_flops)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it takes ~0.8 ms, a quarter of a small in-process apply call.
    parser = argparse.ArgumentParser(
        prog="bandedhh",
        description="Factor matrices into banded Householder form and apply them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a matrix text file")
    p_factor.add_argument("input", help="input matrix in text form")
    p_factor.add_argument("output", help="output factor file")
    p_factor.add_argument("--mode", choices=sorted(_MODES), default="auto")
    p_factor.add_argument(
        "--self-check",
        action="store_true",
        help="re-read the written file and verify bytes and residual",
    )
    p_factor.set_defaults(func=_cmd_factor)

    p_apply = sub.add_parser("apply", help="apply a stored factor to a vector")
    p_apply.add_argument("factor", help="factor file")
    p_apply.add_argument("vector", help="vector as an m x 1 matrix text file")
    p_apply.add_argument("--transpose", action="store_true")
    p_apply.set_defaults(func=_cmd_apply)

    p_report = sub.add_parser("report", help="print storage counts for m, n")
    p_report.add_argument("m", type=int)
    p_report.add_argument("n", type=int)
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser("bench", help="time matvec paths on a seeded matrix")
    p_bench.add_argument("m", type=int)
    p_bench.add_argument("n", type=int)
    p_bench.add_argument("--repetitions", "--reps", type=int, default=10)
    p_bench.add_argument("--block-size", type=int, default=8)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ShapeError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
