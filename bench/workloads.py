"""The benchmark's four workloads.

Each is one single-threaded closed-loop client: request i + 1 is issued when
request i returns. Request i is built from (seed, i) alone and the mix of
request kinds repeats in a fixed cycle, so a seed fixes the whole stream and
every seed sees the same shares. The benchmark calls the program only through
public functions, looked up on their modules at call time so that the traced
run can wrap them.
"""

import contextlib
import importlib
import io
import os
import shutil
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from checks import ApplyBatch, Tally, check_factor, relative

# Random streams drawn from (seed, stream, index).
INPUT, CHECK, SETUP, PROBE, PROBE_CHECK = range(5)

FACTOR, APPLY, STORAGE, CLI = (
    importlib.import_module(f"bandedhh.{name}") for name in ("factor", "apply", "storage", "cli")
)


@dataclass
class Request:
    kind: str  # latency class; percentiles are reported per kind
    label: str  # input variant, one memory measurement each
    run: Callable[[], object]  # the timed call
    check: Callable[[object], None]  # records the output check in the tally
    reference: Optional[Callable[[], object]] = None  # a dense baseline on the same input


class Workload:
    """Hooks the runner calls; the defaults do nothing."""

    kinds: dict  # kind -> (name prefix for the report, unit); the first is the main kind
    references: dict = {}  # kind -> (reference metric, scale, ratio metric or None)
    cycle: int

    def __init__(self, seed: int, tally: Tally):
        self.seed = seed
        self.tally = tally

    def rng(self, stream: int, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index])

    def after_setup(self) -> None:
        pass

    def prepare_reference(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def probe(self, tally: Tally) -> list:
        return []

    def close(self) -> None:
        pass


class FactorStream(Workload):
    """factor_auto on a fixed cycle of (m, n, input class)."""

    kinds = {"factor": ("factor", "ms")}
    references = {"factor": ("ref.numpy_qr_ms", 1e3, "ref.factor_over_qr")}

    def __init__(self, seed, tally, cycle, placement, probe_scales=()):
        super().__init__(seed, tally)
        self.shapes = cycle
        self.cycle = len(cycle)
        self.placement = placement
        self.probe_scales = probe_scales

    def matrix(self, i: int) -> np.ndarray:
        m, n, variant = self.shapes[i % self.cycle]
        rng = self.rng(INPUT, i)
        if variant == "lowrank":
            r = max(1, n // 10)
            return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        a = rng.standard_normal((m, n))
        if variant != "full":
            a *= float(variant)
        return a

    def setup(self) -> None:
        # Warm-up: one factor of each shape, so that lazy set-up in the
        # program or in numpy is paid here and not by the first request.
        for j, (m, n) in enumerate(dict.fromkeys((m, n) for m, n, _ in self.shapes)):
            FACTOR.factor_auto(self.rng(SETUP, j).standard_normal((m, n)))

    def request(self, i: int) -> Request:
        a = self.matrix(i)
        check_rng = self.rng(CHECK, i)
        return Request(
            "factor",
            "x".join(map(str, a.shape)),
            lambda: FACTOR.factor_auto(a),
            lambda f: check_factor(a, f, self.placement, check_rng, self.tally),
            lambda: np.linalg.qr(a),
        )

    def probe(self, tally: Tally) -> list:
        # The tall path is known to fail at these magnitudes. They are checked
        # here, outside the request stream, so the defect stays measured.
        lines = []
        for j, scale in enumerate(self.probe_scales):
            m, n, _ = self.shapes[0]
            a = self.rng(PROBE, j).standard_normal((m, n)) * scale
            before = tally.failed
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    f = FACTOR.factor_auto(a)
            except Exception as exc:  # any error is a failed operation of the program
                tally.record(False)
                lines.append(f"probe scale {scale:g}: raised {type(exc).__name__}: {exc}")
                continue
            check_factor(a, f, self.placement, self.rng(PROBE_CHECK, j), tally)
            verdict = "ok" if tally.failed == before else "FAILED"
            lines.append(f"probe scale {scale:g}: {verdict}")
        return lines


class ApplyStream(Workload):
    """Requests against one 4096 x 512 factor (k = 512 reflections, w = 3584)."""

    kinds = {
        "vec": ("apply", "us"),
        "blocked": ("blocked", "us"),
        "block64": ("block64", "ms"),
    }
    references = {
        "vec": ("ref.dense_gemv_us", 1e6, "ref.banded_over_dense"),
        "block64": ("ref.dense_gemm64_ms", 1e3, None),
    }
    M, N, BLOCK, COLS = 4096, 512, 32, 64
    # Out of 50 requests: one 64-column batch, ten blocked calls, and 39
    # single-vector calls alternating between G x and G' x.
    cycle = 50
    BATCH_AT = 25

    def __init__(self, seed, tally):
        super().__init__(seed, tally)
        self.dense = None

    def setup(self) -> None:
        self.a = self.rng(SETUP, 0).standard_normal((self.M, self.N))
        self.f = FACTOR.factor_auto(self.a)
        g = self.f.reflectors
        x = self.rng(SETUP, 1).standard_normal(self.M)
        APPLY.apply(g, x)
        APPLY.apply_transpose(g, x)
        APPLY.apply_blocked(g, x, self.BLOCK)
        APPLY.apply_to_matrix(g, self.rng(SETUP, 2).standard_normal((self.M, self.COLS)))
        self.batch = ApplyBatch(g, self.rng(CHECK, 0), self.tally)

    def after_setup(self) -> None:
        check_factor(self.a, self.f, "TOP", self.rng(PROBE_CHECK, 0), self.tally)

    def prepare_reference(self) -> None:
        self.dense = dense_g(self.f.reflectors)

    def request(self, i: int) -> Request:
        g = self.f.reflectors
        pos = i % self.cycle
        rng = self.rng(INPUT, i)
        dense = self.dense
        if pos == self.BATCH_AT:
            xs = rng.standard_normal((self.M, self.COLS))
            return Request(
                "block64",
                "block64",
                lambda: APPLY.apply_to_matrix(g, xs),
                lambda ys: self.batch.add_matrix(xs, ys),
                None if dense is None else lambda: dense @ xs,
            )
        x = rng.standard_normal(self.M)
        if pos % 5 == 2:
            return Request(
                "blocked",
                "blocked",
                lambda: APPLY.apply_blocked(g, x, self.BLOCK),
                lambda y: self.batch.add(x, y, True),
            )
        forward = pos % 2 == 0
        return Request(
            "vec",
            "Gx" if forward else "G'x",
            (lambda: APPLY.apply(g, x)) if forward else (lambda: APPLY.apply_transpose(g, x)),
            lambda y: self.batch.add(x, y, forward),
            None if dense is None else (lambda: dense @ x) if forward else (lambda: dense.T @ x),
        )

    def finish(self) -> None:
        self.batch.flush()


def dense_g(g, block: int = 64) -> np.ndarray:
    """Dense m x m G for the reference baselines, built with compact WY blocks.

    Block [s, e) is I - V T V' on rows s .. e + w; blocks are applied to the
    identity from the last to the first, the order in which G x applies them.
    """
    free, betas = g.free_entries, g.betas
    k, w = free.shape
    out = np.eye(k + w)
    for s in range((k - 1) // block * block if k else -1, -1, -block):
        e = min(s + block, k)
        v = np.zeros((e - s + w, e - s))
        t = np.zeros((e - s, e - s))
        for j in range(e - s):
            v[j, j] = 1.0
            v[j + 1 : j + 1 + w, j] = free[s + j]
            t[:j, j] = -betas[s + j] * (t[:j, :j] @ (v[:, :j].T @ v[:, j]))
            t[j, j] = betas[s + j]
        rows = out[s : e + w]
        rows -= v @ (t @ (v.T @ rows))
    return out


class CliRoundtrip(Workload):
    """cli.main factor --self-check, then apply and apply --transpose, in-process."""

    kinds = {"cli_apply": ("cli_apply", "ms"), "cli_factor": ("cli_factor", "ms")}
    SHAPES = ((512, 64), (1000, 200))
    ORDER = (0, 0, 1)  # shape of each round trip: the median CLI apply is a 512-row one
    cycle = 3 * len(ORDER)

    def __init__(self, seed, tally, workdir):
        super().__init__(seed, tally)
        self.workdir = workdir

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs = []
        for j, (m, n) in enumerate(self.SHAPES):
            rng = self.rng(SETUP, j)
            a, x = rng.standard_normal((m, n)), rng.standard_normal(m)
            stem = os.path.join(self.workdir, f"{m}x{n}")
            STORAGE.write_matrix(a, stem + ".a.txt")
            STORAGE.write_matrix(x.reshape(-1, 1), stem + ".x.txt")
            self.inputs.append((a, x, stem))
        for j in range(len(self.SHAPES)):
            for step in range(3):
                self.call(self.argv(j, step))

    def argv(self, j: int, step: int) -> list:
        stem = self.inputs[j][2]
        if step == 0:
            return ["factor", stem + ".a.txt", stem + ".bhf", "--self-check"]
        return ["apply", stem + ".bhf", stem + ".x.txt"] + ["--transpose"] * (step == 2)

    @staticmethod
    def call(argv: list) -> tuple:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = CLI.main(argv)
        return code, out.getvalue()

    def request(self, i: int) -> Request:
        trip, step = divmod(i, 3)
        j = self.ORDER[trip % len(self.ORDER)]
        argv = self.argv(j, step)
        check_rng = self.rng(CHECK, i)
        return Request(
            "cli_factor" if step == 0 else "cli_apply",
            f"{'factor' if step == 0 else 'apply'} {'x'.join(map(str, self.SHAPES[j]))}",
            lambda: self.call(argv),
            lambda out: self.check(j, step, out, check_rng),
        )

    def check(self, j: int, step: int, out: tuple, rng) -> None:
        code, text = out
        a, x, stem = self.inputs[j]
        if code != 0 or (step == 0 and "self-check: ok" not in text):
            self.tally.record(False)
            return
        with open(stem + ".bhf", "rb") as fh:
            f = STORAGE.read_factor(fh)
        if step == 0:
            check_factor(a, f, "TOP", rng, self.tally)
            return
        # apply must print exactly what the library's apply returns
        want = (APPLY.apply_transpose if step == 2 else APPLY.apply)(f.reflectors, x)
        try:
            got = np.array([float(v) for v in text.split("\n")[1 : 1 + x.size]])
        except ValueError:
            got = None
        if got is None or got.shape != want.shape:
            self.tally.record(False)
            return
        self.tally.record(bool(np.array_equal(got, want)), relative(got - want, want))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# The smaller shape is three quarters of each factor cycle, so the median
# latency falls inside its cluster instead of in the gap between the shapes.
# Input classes: Gaussian, low rank (rank n / 10), or Gaussian times a scale.
TALL_CYCLE = (
    (1000, 200, "full"), (1000, 200, "full"), (1500, 300, "full"),
    (1000, 200, "lowrank"), (1000, 200, "full"), (1000, 200, "1e-100"),
    (1500, 300, "lowrank"), (1000, 200, "full"), (1000, 200, "full"),
    (1000, 200, "1e100"), (1500, 300, "full"), (1000, 200, "lowrank"),
)
SQUARE_CYCLE = (
    (1200, 1000, "full"), (1000, 900, "full"), (1000, 900, "lowrank"), (1000, 900, "full"),
    (1200, 1000, "lowrank"), (1000, 900, "full"), (1000, 900, "lowrank"), (1000, 900, "full"),
)
EXTREME_SCALES = (1e-300, 1e-170, 1e160, 1e300)


def make(name: str, seed: int, tally: Tally, workdir: str) -> Workload:
    if name == "tall-factor":
        return FactorStream(seed, tally, TALL_CYCLE, "TOP", EXTREME_SCALES)
    if name == "square-factor":
        return FactorStream(seed, tally, SQUARE_CYCLE, "BOTTOM")
    if name == "apply-stream":
        return ApplyStream(seed, tally)
    return CliRoundtrip(seed, tally, workdir)
