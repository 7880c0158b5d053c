"""Span recorder for the traced benchmark run.

The traced run installs it around each traced request and removes it
before the output check. It replaces the bandedhh functions the program
looks up at call time (module attributes, and the values of module-level
dicts such as the CLI's mode table) with wrappers that record one span per
call: name, start, end, parent span and request id. Spans stay in memory
and are written out when the run ends. A target that no longer exists in
the program is skipped and reports zero calls.
"""

import functools
import os
import sys
import time

import numpy as np

# (span name, module, attribute)
TARGETS = (
    ("dense.flip180", "bandedhh.dense", "flip180"),
    ("dense.lq", "bandedhh.dense", "lq"),
    ("dense.householder_qr", "bandedhh.dense", "householder_qr"),
    ("dense.accumulate_q", "bandedhh.dense", "accumulate_q"),
    ("factor.factor_auto", "bandedhh.factor", "factor_auto"),
    ("factor.factor_tall", "bandedhh.factor", "factor_tall"),
    ("factor.factor_complement", "bandedhh.factor", "factor_complement"),
    ("factor.reconstruct_a", "bandedhh.factor", "reconstruct_a"),
    ("kernels.apply_banded", "bandedhh._kernels", "apply_banded"),
    ("kernels.apply_banded_matrix", "bandedhh._kernels", "apply_banded_matrix"),
    ("apply.apply", "bandedhh.apply", "apply"),
    ("apply.apply_transpose", "bandedhh.apply", "apply_transpose"),
    ("apply.apply_to_matrix", "bandedhh.apply", "apply_to_matrix"),
    ("apply.apply_blocked", "bandedhh.apply", "apply_blocked"),
    ("apply.wy_chain", "bandedhh.apply", "wy_chain"),
    ("storage.read_matrix", "bandedhh.storage", "read_matrix"),
    ("storage.write_matrix", "bandedhh.storage", "write_matrix"),
    ("storage.read_factor", "bandedhh.storage", "read_factor"),
    ("storage.write_factor", "bandedhh.storage", "write_factor"),
    ("cli.main", "bandedhh.cli", "main"),
)

# Counters recorded at span boundaries, beside the per-span calls/self_s/errors.
KERNEL_SPANS = ("kernels.apply_banded", "kernels.apply_banded_matrix")
COUNTERS = tuple(
    f"{k}.{c}" for k in KERNEL_SPANS for c in ("computed_flops", "computed_bytes")
) + ("storage.bytes_read", "storage.bytes_written")


def _count_kernel(name):
    # Computed from the FlopCounter convention, (4w + 2) flops per active
    # reflection and column, and from the sizes of the arrays the kernel
    # reads (free, betas, x) and writes (x). Cache misses are ignored.
    def count(counts, args, result):
        if len(args) < 3 or not all(isinstance(v, np.ndarray) for v in args[:3]):
            return
        free, betas, x = args[:3]
        cols = x.shape[1] if x.ndim == 2 else 1
        active = int(np.count_nonzero(betas))
        counts[f"{name}.computed_flops"] += (4 * free.shape[1] + 2) * active * cols
        counts[f"{name}.computed_bytes"] += free.nbytes + betas.nbytes + 2 * x.nbytes

    return count


def _count_read_matrix(counts, args, result):
    if args and isinstance(args[0], (str, os.PathLike)):
        counts["storage.bytes_read"] += os.path.getsize(args[0])


def _count_read_factor(counts, args, result):
    # The BHF1 record is 24 header bytes plus betas, free entries and core.
    g = result.reflectors
    counts["storage.bytes_read"] += 24 + 8 * (g.betas.size + g.free_entries.size + result.core.size)


def _count_written(counts, args, result):
    if isinstance(result, int):
        counts["storage.bytes_written"] += result


_COUNTS = {
    "kernels.apply_banded": _count_kernel("kernels.apply_banded"),
    "kernels.apply_banded_matrix": _count_kernel("kernels.apply_banded_matrix"),
    "storage.read_matrix": _count_read_matrix,
    "storage.read_factor": _count_read_factor,
    "storage.write_matrix": _count_written,
    "storage.write_factor": _count_written,
}


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, request id, raised]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = -1
        self._stack = []
        self._patches = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bandedhh"]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original, _COUNTS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((vars(module), key, original))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    def _wrap(self, name, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else None
            span = [name, 0.0, 0.0, parent, rec.request, False]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                count(rec.counts, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, self time (duration minus children) and errors."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name, _, _ in TARGETS}
        for (name, start, end, _, _, raised), child in zip(self.spans, covered):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child
            entry["errors"] += raised
        return out

    def records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r, "raised": x}
            for n, s, e, p, r, x in self.spans
        ]
