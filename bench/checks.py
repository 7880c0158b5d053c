"""Output checks, run outside the timed region.

Every norm is taken after dividing by the largest input magnitude, so the
checks stay meaningful from 1e-300 to 1e300. The reference apply below is
the benchmark's own per-reflection loop and does not call the program.
"""

import math

import numpy as np

TOL = 1e-12


class Tally:
    """Checked operations, failures and the worst probe values seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_scaled_residual = 0.0
        self.max_orth_probe = 0.0
        self.skipped_reflections = 0  # zero betas over the factors checked

    def record(self, ok: bool, residual: float = 0.0, orth: float = 0.0) -> None:
        self.attempted += 1
        self.failed += not ok
        self.max_scaled_residual = _worse(self.max_scaled_residual, residual)
        self.max_orth_probe = _worse(self.max_orth_probe, orth)


def _worse(a: float, b: float) -> float:
    return b if not math.isfinite(b) or b > a else a


def ref_apply(free, betas, x, forward: bool) -> np.ndarray:
    """G x (forward) or G' x for a banded reflector product, one reflection at a time."""
    out = np.array(x, dtype=np.float64)
    k, w = free.shape
    for i in range(k - 1, -1, -1) if forward else range(k):
        beta = betas[i]
        if beta == 0.0:
            continue
        seg = out[i + 1 : i + 1 + w]
        t = beta * (out[i] + free[i] @ seg)
        out[i] -= t
        seg -= t * free[i]
    return out


def relative(diff, ref) -> float:
    """||diff|| / ||ref||, both divided by max|ref| before the norms."""
    with np.errstate(all="ignore"):
        scale = float(np.max(np.abs(ref))) if ref.size else 0.0
        if not scale or not math.isfinite(scale):
            return math.inf
        den = np.linalg.norm(ref / scale)
        num = np.linalg.norm(diff / scale)
    out = float(num / den)
    return out if math.isfinite(out) else math.inf


def check_factor(a, f, placement: str, rng, tally: Tally) -> None:
    """Reconstruction probe ||G pad(B x) - A x|| and orthogonality probe ||G'G z - z||."""
    m, n = a.shape
    g = f.reflectors
    if f.placement.name != placement or f.core.shape != (n, n) or g.ambient_dim != m:
        tally.record(False)
        return
    tally.skipped_reflections += int(np.count_nonzero(g.betas == 0.0))
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    scale = scale if scale else 1.0
    x = rng.standard_normal(n)
    z = rng.standard_normal(m)
    with np.errstate(all="ignore"):
        ax = (a / scale) @ x
        y = np.zeros(m)
        rows = slice(0, n) if placement == "TOP" else slice(m - n, m)
        y[rows] = (f.core / scale) @ x
        gy = ref_apply(g.free_entries, g.betas, y, True)
        gtgz = ref_apply(g.free_entries, g.betas, ref_apply(g.free_entries, g.betas, z, True), False)
    residual = relative(gy - ax, ax)
    orth = relative(gtgz - z, z)
    tally.record(residual <= TOL and orth <= TOL, residual, orth)


class ApplyBatch:
    """Checks y = G x or y = G' x for a stream of requests.

    A random combination of a batch's inputs goes through the reference apply
    once and is compared with the same combination of the outputs, so the
    cost per request stays small however fast the program gets. When a batch
    disagrees, each of its requests is checked on its own, so failures are
    counted per request.
    """

    def __init__(self, g, rng, tally: Tally, size: int = 32):
        self.free, self.betas = g.free_entries, g.betas
        self.rng = rng
        self.tally = tally
        self.size = size
        self.pending = {True: [], False: []}

    def add(self, x, y, forward: bool) -> None:
        if not isinstance(y, np.ndarray) or y.shape != x.shape or not np.isfinite(y).all():
            self.tally.record(False)
            return
        batch = self.pending[forward]
        batch.append((x, y))
        if len(batch) == self.size:
            self._flush(forward)

    def add_matrix(self, xs, ys) -> None:
        """One request with many right-hand sides, checked through one combination."""
        if not isinstance(ys, np.ndarray) or ys.shape != xs.shape or not np.isfinite(ys).all():
            self.tally.record(False)
            return
        c = self.rng.standard_normal(xs.shape[1])
        residual = self._residual(xs @ c, ys @ c, True)
        self.tally.record(residual <= TOL, residual)

    def flush(self) -> None:
        for forward in (True, False):
            if self.pending[forward]:
                self._flush(forward)

    def _flush(self, forward: bool) -> None:
        batch, self.pending[forward] = self.pending[forward], []
        xs = np.stack([x for x, _ in batch], axis=1)
        ys = np.stack([y for _, y in batch], axis=1)
        c = self.rng.standard_normal(len(batch))
        residual = self._residual(xs @ c, ys @ c, forward)
        if residual <= TOL:
            for _ in batch:
                self.tally.record(True, residual)
            return
        for x, y in batch:
            residual = self._residual(x, y, forward)
            self.tally.record(residual <= TOL, residual)

    def _residual(self, x, y, forward: bool) -> float:
        ref = ref_apply(self.free, self.betas, x, forward)
        return relative(y - ref, ref)
