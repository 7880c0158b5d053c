"""Command line front end: factor, apply and report subcommands.

A thin layer over the public library (the factor functions, apply and
apply_transpose, reconstruct_a, storage_floats and the storage module).
Timing lives in bench/run.py, not here.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a numerical
self-check fails.
"""

import argparse
import functools
import io as stdio
import math
import sys

import numpy as np

from . import _kernels, storage
from .apply import apply, apply_transpose
from .factor import (
    ShapeError,
    factor_auto,
    factor_complement,
    factor_tall,
    reconstruct_a,
    storage_floats,
)

_MODES = {
    "tall": factor_tall,
    "complement": factor_complement,
    "auto": factor_auto,
}


def _relative_residual(recon: np.ndarray, a: np.ndarray, peak: float) -> float:
    # Dividing by peak, max|a|, first keeps both norms clear of underflow
    # and overflow at any finite magnitude.
    if peak:
        recon, a = recon / peak, a / peak
    scale = np.linalg.norm(a)
    resid = np.linalg.norm(recon - a)
    return float(resid / scale) if scale else float(resid)


def _contract_bound(m: int, peak: float) -> float:
    """The README accuracy contract for m rows, peak = max|a|: 1e-12 + 4 sqrt(m) 2^-1074 / peak."""
    # 2^-1074 / peak first: it cannot overflow, and for peak < 1 it is normal
    return 1e-12 + (4 * math.sqrt(m) * (2.0**-1074 / peak) if peak else 0.0)


def _record(f) -> bytes:
    buf = stdio.BytesIO()
    storage.write_factor(f, buf)
    return buf.getvalue()


def _cmd_factor(args) -> int:
    a = storage.read_matrix(args.input)
    f = _MODES[args.mode](a)
    peak = _kernels.max_abs(a)  # the factor functions do not return theirs
    residual = _relative_residual(reconstruct_a(f), a, peak)
    record = _record(f)
    with open(args.output, "wb") as fh:
        fh.write(record)
    print(f"placement: {f.placement.name}")
    print(f"storage: {storage_floats(f.reflectors)} floats")
    print(f"residual: {residual:.3e}")
    print(f"wrote: {args.output} ({len(record)} bytes)")
    if args.self_check:
        with open(args.output, "rb") as fh:
            original = fh.read()
        # write_factor is injective, so the file holding the record written
        # and re-serializing to itself means it holds f bit for bit: its
        # residual is the one printed above, and needs no second reconstruction.
        if original != record or _record(storage.read_factor(stdio.BytesIO(original))) != original:
            print("self-check: FAILED (re-serialization differs)", file=sys.stderr)
            return 2
        tolerance = _contract_bound(a.shape[0], peak)
        if not residual <= tolerance:  # NaN fails too
            print(f"self-check: FAILED (residual {residual:.3e}, tolerance {tolerance:.3e})",
                  file=sys.stderr)
            return 2
        print("self-check: ok")
    return 0


def _cmd_apply(args) -> int:
    with open(args.factor, "rb") as fh:
        f = storage.read_factor(fh)
        if fh.read(1):
            raise storage.FactorFormatError(f"trailing data at byte {fh.tell() - 1}, where the record ends")
    vec = storage.read_matrix(args.vector)
    if vec.shape[1] != 1:
        raise ShapeError(f"expected a column vector, got {vec.shape[0]} x {vec.shape[1]}")
    g = f.reflectors
    if vec.shape[0] != g.ambient_dim:
        raise ShapeError(
            f"vector length {vec.shape[0]} does not match factor dimension "
            f"{g.ambient_dim}"
        )
    x = vec[:, 0]
    with np.errstate(all="ignore"):
        result = apply_transpose(g, x) if args.transpose else apply(g, x)
    if not np.isfinite(result).all():
        raise ValueError("the product overflows to non-finite values")
    storage.write_matrix(result.reshape(-1, 1), sys.stdout)
    return 0


def _storage_counts(m: int, n: int) -> tuple[int, int, int]:
    """Floats to store an m x n orthogonal part: dense, Householder, banded."""
    # n (m - (n + 1)/2) is always an integer: n(n + 1)/2 is triangular
    return m * n, n * m - n * (n + 1) // 2, n * (m - n)


def _cmd_report(args) -> int:
    if args.m < args.n or args.n < 0:
        raise ShapeError(f"report requires m >= n >= 0, got m={args.m} n={args.n}")
    dense, householder, banded = _storage_counts(args.m, args.n)

    def percent(num, den):
        return f"{100.0 * num / den:.1f}%" if den else "n/a"

    print(f"m={args.m} n={args.n}")
    print(f"dense:       {dense}")
    print(f"householder: {householder:.1f}")
    print(f"banded:      {banded}")
    print(f"banded/dense:       {percent(banded, dense)}")
    print(f"banded/householder: {percent(banded, householder)}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it takes 0.4-0.8 ms, about half a small in-process apply call.
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ShapeError and the format errors included
        print(f"error: {exc}", file=sys.stderr)
        return 1
