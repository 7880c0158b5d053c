"""bandedhh benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see workloads.py): tall-factor, square-factor,
apply-stream, cli-roundtrip.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Untraced (--trace 0), metrics holds the
end-to-end metrics, the same names on every workload:

    setup_s    median of three set-ups of the workload
    p50_ms     median latency of the workload's main request kind: factor_auto
               on the factor workloads, single-vector apply/apply_transpose on
               apply-stream, CLI apply on cli-roundtrip
    ops_per_s  requests per second of request time over the whole request
               mix: the cycle length over the median time of one complete
               cycle, times the share of requests that passed their check

Metrics are computed over the complete request cycles a run finishes, so
that every run and every seed weighs the request kinds alike.

Traced (--trace 1), metrics holds the per-layer metrics: spans recorded
around the program's functions, computed kernel counts, output checks,
reference baselines, peak memory and the tracing overhead. What each layer
should move:

    dense.*.self_s            p50_ms, ops_per_s on tall-factor (little on square-factor)
    factor.factor_tall        p50_ms on tall-factor
    factor.factor_complement  p50_ms and mem.peak_mb on square-factor
    kernels.apply_banded      p50_ms on apply-stream and cli-roundtrip
    kernels.apply_banded_matrix  ops_per_s on apply-stream (64-column batches),
                              square-factor (G'A) and cli-roundtrip (reconstruct_a)
    apply.wy_chain, apply.apply_blocked  ops_per_s on apply-stream
    storage.*, cli.main       p50_ms and ops_per_s on cli-roundtrip

Lines before the JSON report every metric per request kind with its unit
and sample count. The full record, with the environment, goes to
.bench_out/<workload>-seed<N>-trace<T>.json; the traced run also writes its
spans beside it.
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
WORKLOADS = ("tall-factor", "square-factor", "apply-stream", "cli-roundtrip")
# Reference baselines; each workload measures those that apply to it, the rest read 0.
REFERENCES = ("ref.numpy_qr_ms", "ref.factor_over_qr", "ref.dense_gemv_us",
              "ref.dense_gemm64_ms", "ref.banded_over_dense")


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def finite(v: float) -> float:
    # JSON has no infinity; a non-finite residual is reported as the largest double.
    return v if math.isfinite(v) else sys.float_info.max


class Stream:
    """Samples of one pass over the request stream."""

    def __init__(self):
        self.records = []  # (kind, seconds, raised) per request
        self.failed = 0
        self.refs = {}  # kind -> [(request seconds, reference seconds)]
        self.errors = []

    def busy(self) -> float:
        return sum(seconds for _, seconds, _ in self.records)

    def cycles(self, cycle: int) -> list:
        """The records split into complete request cycles; a partial cycle is dropped."""
        n = min(cycle, len(self.records)) or 1
        return [self.records[j : j + n] for j in range(0, len(self.records) - n + 1, n)]


def execute(req, i, out: Stream, tally, rec=None) -> float:
    """Run one request, time it, and check its output outside the timed region."""
    if rec is not None:
        rec.request = i
        rec.install()
    t0 = time.perf_counter()
    try:
        result = req.run()
        raised = False
    except Exception as exc:  # a failed request is counted, not fatal
        raised = True
        out.errors.append(f"request {i} ({req.kind} {req.label}): {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if rec is not None:
        rec.uninstall()
    out.records.append((req.kind, seconds, raised))
    if raised:
        tally.record(False)
    else:
        req.check(result)
    return seconds


def run_stream(wl, tally, deadline=None, count=None, rec=None, refs=False):
    """Issue requests 0, 1, ... until the wall-clock deadline or count requests.

    With a recorder, each request runs twice, untraced and traced, in an order
    that alternates, so that the difference is the tracing overhead.
    Returns the untraced and the traced samples.
    """
    plain, traced = Stream(), Stream()
    failed_before = tally.failed
    i = 0
    while (count is None and time.perf_counter() < deadline) or (count is not None and i < count):
        order = (None,) if rec is None else (None, rec) if i % 2 == 0 else (rec, None)
        for r in order:
            req = wl.request(i)
            seconds = execute(req, i, plain if r is None else traced, tally, r)
        if refs and req.reference is not None:
            t0 = time.perf_counter()
            req.reference()
            plain.refs.setdefault(req.kind, []).append((seconds, time.perf_counter() - t0))
        i += 1
    wl.finish()
    plain.failed = tally.failed - failed_before
    return plain, traced


def peak_memory(wl, tally) -> dict:
    """tracemalloc peak of one request of each (kind, label) in the cycle, in MB."""
    first = {}
    for i in range(wl.cycle):
        req = wl.request(i)
        first.setdefault((req.kind, req.label), req)
    peaks = {}
    for (kind, label), req in first.items():
        tracemalloc.start()
        try:
            result = req.run()
        except Exception:  # counted as a failed operation
            result = None
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        if result is None:
            tally.record(False)
        else:
            req.check(result)
        peaks[f"{kind} {label}"] = peak / 1e6
    wl.finish()
    return peaks


def report(wl, stream: Stream, setup: list) -> dict:
    """Every metric of an untraced pass: name -> (value, unit, samples)."""
    cycles = stream.cycles(wl.cycle)
    records = [r for c in cycles for r in c]
    latency = {}
    for kind, seconds, raised in records:
        if not raised:
            latency.setdefault(kind, []).append(seconds)
    out = {"setup_s": (statistics.median(setup), "s", len(setup))}
    main = latency.get(next(iter(wl.kinds)), [])
    out["p50_ms"] = (statistics.median(main) * 1e3 if main else math.inf, "ms", len(main))
    good = max(len(records) - stream.failed, 0)
    busy = statistics.median(sum(s for _, s, _ in c) for c in cycles) if cycles else 0.0
    rate = len(cycles[0]) / busy * good / len(records) if busy else 0.0
    out["ops_per_s"] = (rate, "1/s", good)
    for kind, (prefix, unit) in wl.kinds.items():
        values = latency.get(kind, [])
        if not values:
            continue
        scale = {"ms": 1e3, "us": 1e6}[unit]
        out[f"{prefix}_p50_{unit}"] = (statistics.median(values) * scale, unit, len(values))
        # the highest tail percentile with at least ten samples beyond it
        for q in (99, 90):
            if len(values) * (100 - q) >= 1000:
                out[f"{prefix}_p{q}_{unit}"] = (percentile(values, q / 100) * scale, unit, len(values))
                break
    requests = len(stream.records)
    out["failed_ratio"] = (stream.failed / requests if requests else 0.0, "ratio", requests)
    return out


def reference_metrics(wl, stream: Stream) -> dict:
    out = {}
    for kind, (name, scale, ratio) in wl.references.items():
        pairs = stream.refs.get(kind, [])
        out[name] = statistics.median(r for _, r in pairs) * scale if pairs else 0.0
        if ratio:
            out[ratio] = statistics.median(s / r for s, r in pairs) if pairs else 0.0
    return out


def environment(bandedhh, np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(bandedhh, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "backend": backend() if callable(backend) else None,
        "git_sha": git_sha(ROOT / ".git"),
    }


def git_sha(git: Path):
    """HEAD commit read from the .git files, or None outside a git checkout."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bandedhh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    sys.dont_write_bytecode = True  # leave no compiled files in the checkout
    if not (src / "bandedhh" / "__init__.py").is_file():
        print(f"error: no bandedhh sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One BLAS thread unless the caller sets another count: on a small shared
    # machine a second BLAS thread makes timings far less repeatable.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np

    import bandedhh
    import spans
    import workloads
    from checks import Tally

    if Path(bandedhh.__file__).resolve().parent != (src / "bandedhh").resolve():
        print(f"error: imported bandedhh from {bandedhh.__file__}, not {src}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tally = Tally()
    wl = workloads.make(args.workload, args.seed, tally, str(OUT / f"work-{os.getpid()}"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(bandedhh, np)}
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup.append(time.perf_counter() - t0)
        wl.after_setup()
        rec = spans.Recorder() if args.trace else None
        untraced, traced = run_stream(wl, tally, deadline=time.perf_counter() + args.seconds, rec=rec)
        named = report(wl, untraced, setup)
        peaks = peak_memory(wl, tally)
        named["peak_mem_mb"] = (max(peaks.values()), "MB", len(peaks))
        probe = Tally()
        probe_lines = wl.probe(probe)
        if args.trace:
            wl.prepare_reference()
            refs, _ = run_stream(wl, tally, count=wl.cycle, refs=True)
    finally:
        wl.close()

    for name, (value, unit, n) in named.items():
        print(f"{name:22s} {value:14.6g} {unit:6s} n={n}")
    for line in probe_lines + untraced.errors[:5]:
        print(line)
    record.update(
        setup_s=setup,
        end_to_end={k: {"value": finite(v), "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        peak_mem_mb=peaks,
        probe={"scales": probe_lines, "attempted": probe.attempted, "failed": probe.failed},
    )

    if args.trace:
        layer = per_layer(rec, tally, untraced, traced, refs, wl, named, probe)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record.update(per_layer=metrics, computed_counts=(
            "kernel flops follow the FlopCounter convention and bytes are the sizes of the "
            "arrays each kernel call reads and writes; both ignore cache misses"))
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(rec.records()))
    else:
        metrics = {k: {"value": finite(named[k][0]), "unit": named[k][1]}
                   for k in ("setup_s", "p50_ms", "ops_per_s")}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def per_layer(rec, tally, untraced, traced, refs, wl, named, probe) -> dict:
    """Per-layer metrics of the traced run: name -> (value, unit)."""
    from spans import KERNEL_SPANS

    out = {}
    for name, s in rec.summary().items():
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_s"] = (s["self_s"], "s")
        out[f"{name}.errors"] = (s["errors"], "count")
    for name in KERNEL_SPANS:
        flops = rec.counts[f"{name}.computed_flops"]
        nbytes = rec.counts[f"{name}.computed_bytes"]
        out[f"{name}.computed_flops"] = (flops, "flop")
        out[f"{name}.computed_bytes"] = (nbytes, "B")
        out[f"{name}.computed_flops_per_byte"] = (flops / nbytes if nbytes else 0.0, "flop/B")
    out["storage.bytes_read"] = (rec.counts["storage.bytes_read"], "B")
    out["storage.bytes_written"] = (rec.counts["storage.bytes_written"], "B")
    out["factor.skipped_reflections"] = (tally.skipped_reflections, "count")
    out["check.max_scaled_residual"] = (finite(tally.max_scaled_residual), "ratio")
    out["check.max_orth_probe"] = (finite(tally.max_orth_probe), "ratio")
    out["check.failed"] = (tally.failed, "count")
    out["check.attempted"] = (tally.attempted, "count")
    out["failed_ratio"] = (tally.failed / tally.attempted if tally.attempted else 0.0, "ratio")
    measured = reference_metrics(wl, refs)
    for name in REFERENCES:
        unit = name.rsplit("_", 1)[-1]
        out[name] = (measured.get(name, 0.0), unit if unit in ("ms", "us") else "ratio")
    extra = traced.busy() - untraced.busy()
    out["trace.overhead_ms_per_op"] = (extra / len(traced.records) * 1e3, "ms")
    out["trace.overhead_ratio"] = (extra / untraced.busy(), "ratio")
    out["mem.peak_mb"] = (named["peak_mem_mb"][0], "MB")
    out["probe.extreme_failed"] = (probe.failed, "count")
    out["probe.extreme_attempted"] = (probe.attempted, "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
