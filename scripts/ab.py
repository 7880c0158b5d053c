#!/usr/bin/env python3
"""Paired in-process timing of the working tree's bandedhh against a git revision.

    python3 scripts/ab.py --base REV [--pairs N]

REV's src/ is extracted with git archive into a temporary directory, and
both copies are loaded into this one process under distinct package names,
so each pair of timings sees the same interpreter, heap and host load. Each
request kind runs N pairs on one input drawn from a fixed seed, one call per
side per pair, and alternates which side goes first. (With a fresh input per
pair, the first call after each draw ran about 10% slower than the second,
and the median of the two orders' ratios sat anywhere between them.)

It first prints one JSON line of the environment: the numpy version, the
BLAS numpy was built against, OPENBLAS_NUM_THREADS and the CPU count. Then,
for each kind, it prints two JSON lines: REV against itself (A/A, the
control) and the working tree against REV. Each holds the median of the
per-pair time ratios (second side over first), its distribution-free 95%
interval, the pair count, the pairs the second side won, each side's median
time in ms and median minor page faults per call (this process's
ru_minflt, read around each call), and whether the two sides' outputs were
bit-identical on every pair (write_factor bytes, product bytes, CLI stdout).

An A/A row need not contain 1. Each side is bound once (its package,
input, factor and plan are built once, the second side last), so a fixed
difference between the two bindings, such as where a buffer landed, shows
as a ratio whose interval excludes 1 on identical code: base/base has read
0.944 and 0.965 on apply 4096x512 with 1 column, 0.955 with 64 columns,
and 0.974 on cli factor --self-check 1000x200. So read a change/base row
against its own kind's A/A row, not against 1, and re-run a kind whose
A/A interval excludes 1 before citing it.

The request kinds: factor_auto at 1000x200, 1500x300, 1000x900, 1200x1000
and 4096x512 (apply-stream's setup), at 2048x256 and 4000x500 (tall, away
from the benchmark's shape) and at 1024x1000 (the complement path, whose
LAPACK buffer is padded at m = 1024), at 1000x1000 (square, answered
without a QR), at 200000x4 and 100000x10 (tall and skinny, where the
band basis copies narrow rows in many small tiles), and at 1000x200
with one column scaled by 1e305 (the float64 shift path) and with
columns graded by logspace(-20, 20);
factor_tall and factor_complement, both forced placements, at 600x400;
apply with 1 and with 64 columns on one 4096x512 factor; and the CLI, run
in-process through cli.main on files written in the temporary directory:
factor --self-check at 1000x200, whose stdout and written file are
compared, and apply at 512x64. BLAS runs one thread unless
OPENBLAS_NUM_THREADS is set. Nothing is written inside the repository.
"""

import os

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read once, when numpy loads

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEED = 2011


def load(name: str, src: Path):
    """Import the bandedhh package under src as a package called name."""
    package = src / "bandedhh"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def median_interval(values) -> tuple:
    """The median of values and its distribution-free 95% interval.

    The interval is the l-th smallest and the l-th largest value, with l the
    largest rank such that P(Binomial(n, 1/2) < l) <= 0.025; it needs n >= 6.
    """
    x, n = sorted(values), len(values)
    tail, rank = 0.0, 0
    while (tail := tail + math.comb(n, rank) / 2**n) <= 0.025:
        rank += 1
    if rank == 0:
        raise ValueError("a 95% interval of the median needs at least 6 values")
    return statistics.median(x), x[rank - 1], x[n - rank]


def rng(*key) -> np.random.Generator:
    return np.random.default_rng([SEED, *key])


def environment() -> dict:
    """The numpy version, its BLAS, the BLAS thread setting and the CPU count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def factor_bytes(pkg, f) -> bytes:
    sink = io.BytesIO()
    pkg.write_factor(f, sink)
    return sink.getvalue()


# A kind is (data, bind): data is the input of every call on both sides;
# bind(pkg) sets a side up, untimed, and returns (run, render), where
# run(data) is the timed call and render(result) the bytes to compare.
def factor_kind(a, function: str = "factor_auto"):
    def bind(pkg):
        return getattr(pkg, function), lambda f: factor_bytes(pkg, f)
    return a, bind


def apply_kind(columns):
    a = rng(4096, 512).standard_normal((4096, 512))
    x = rng(4096, columns).standard_normal((4096,) if columns == 1 else (4096, columns))

    def bind(pkg):
        g = pkg.factor_auto(a).reflectors
        product = pkg.apply if columns == 1 else pkg.apply_to_matrix
        product(g, x)  # the first product builds the plan; keep that out of the timing
        return (lambda x: product(g, x)), np.ndarray.tobytes
    return x, bind


def cli_runner(pkg):
    """run(argv): pkg's cli.main(argv), in-process, returning its stdout."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code:
            raise RuntimeError(f"{pkg.__name__}: cli {argv[0]} exited {code}")
        return out.getvalue()
    return run


def cli_apply_kind(writer, tmp: Path):
    argv = ["apply", str(tmp / "a.bhf"), str(tmp / "x.txt")]
    with open(argv[1], "wb") as sink:
        writer.write_factor(writer.factor_auto(rng(512, 64).standard_normal((512, 64))), sink)
    writer.write_matrix(rng(512, 1).standard_normal((512, 1)), argv[2])
    return argv, lambda pkg: (cli_runner(pkg), str.encode)


def cli_factor_kind(writer, tmp: Path):
    # Both sides write the same path; each side's file is read back right
    # after its own call, before the other side runs.
    argv = ["factor", str(tmp / "f.txt"), str(tmp / "f.bhf"), "--self-check"]
    writer.write_matrix(rng(1000, 200).standard_normal((1000, 200)), argv[1])
    output = Path(argv[2])
    return argv, lambda pkg: (cli_runner(pkg), lambda out: out.encode() + output.read_bytes())


def compare(kind, first, second, pairs: int) -> dict:
    data, bind = kind
    sides = (bind(first), bind(second))
    times, faults, identical = ([], []), ([], []), True
    for i in range(pairs):
        digests = [b"", b""]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            run, render = sides[side]
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            result = run(data)
            times[side].append(time.perf_counter() - start)
            faults[side].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
            digests[side] = hashlib.sha256(render(result)).digest()
        identical = identical and digests[0] == digests[1]
    ratios = [b / a for a, b in zip(*times)]
    median, low, high = median_interval(ratios)
    return {
        "median_ratio": round(median, 4),
        "ci95": [round(low, 4), round(high, 4)],
        "pairs": pairs,
        "wins": sum(r < 1 for r in ratios),
        "bit_identical": identical,
        "median_ms": [round(1e3 * statistics.median(t), 4) for t in times],
        "median_minflt": [statistics.median(f) for f in faults],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--pairs", type=int, default=30, help="pairs per request kind (>= 6)")
    args = parser.parse_args(argv)
    if args.pairs < 6:
        parser.error("--pairs must be at least 6")
    sys.dont_write_bytecode = True
    print(json.dumps(environment()), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.base, "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        base = load("bandedhh_base", tmp / "src")
        control = load("bandedhh_base_control", tmp / "src")
        change = load("bandedhh_change", REPO / "src")
        kinds = {f"factor_auto {m}x{n}": factor_kind(rng(m, n).standard_normal((m, n)))
                 for m, n in ((1000, 200), (1500, 300), (1000, 900), (1200, 1000),
                              (4096, 512), (2048, 256), (4000, 500), (1024, 1000),
                              (1000, 1000), (200000, 4), (100000, 10))}
        for function in ("factor_tall", "factor_complement"):
            kinds[f"{function} 600x400"] = factor_kind(rng(600, 400).standard_normal((600, 400)),
                                                       function)
        a = rng(1000, 200).standard_normal((1000, 200))
        huge = a.copy()
        huge[:, 7] *= 1e305
        kinds["factor_auto 1000x200, one column x1e305"] = factor_kind(huge)
        kinds["factor_auto 1000x200, graded columns"] = factor_kind(a * np.logspace(-20, 20, 200))
        kinds["apply 4096x512, 1 column"] = apply_kind(1)
        kinds["apply 4096x512, 64 columns"] = apply_kind(64)
        kinds["cli factor --self-check 1000x200"] = cli_factor_kind(base, tmp)
        kinds["cli apply 512x64"] = cli_apply_kind(base, tmp)
        for name, kind in kinds.items():
            for label, second in (("base/base", control), ("change/base", change)):
                row = {"kind": name, "compare": label, **compare(kind, base, second, args.pairs)}
                print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
