#!/usr/bin/env python3
"""Reference check for `bandedhh apply`, kept independent of the package.

Reads a BHF2 factor file with its own parser, derives each reflection's
beta = 2 / (1 + t't) from its tail t with its own arithmetic, rebuilds
the reflection product as dense m x m matrices, multiplies, and prints
the result in the same text format as the CLI. Slow on purpose. Any
other magic, BHF1 included, is refused.
"""

import argparse
import struct
import sys

import numpy as np


def read_factor_raw(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"BHF2":
        raise SystemExit(f"not a BHF2 factor file: {path}")
    m, n, placement, k, w = struct.unpack_from("<5I", data, 4)
    free = np.frombuffer(data, dtype="<f8", count=k * w, offset=24).reshape(k, w)
    return m, n, placement, free


def dense_product(m, free):
    k, w = free.shape
    out = np.eye(m)
    for i in range(k):
        v = np.zeros(m)
        v[i] = 1.0
        v[i + 1 : i + 1 + w] = free[i]
        beta = 2.0 / sum(x * x for x in v.tolist())
        out = out @ (np.eye(m) - beta * np.outer(v, v))
    return out


def read_vector(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    rows, cols = (int(t) for t in lines[0].split())
    if cols != 1:
        raise SystemExit("expected an m x 1 vector file")
    return np.array([float(lines[1 + i]) for i in range(rows)])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("factor")
    parser.add_argument("vector")
    parser.add_argument("--transpose", action="store_true")
    args = parser.parse_args()

    m, _, _, free = read_factor_raw(args.factor)
    x = read_vector(args.vector)
    if x.shape[0] != m:
        raise SystemExit(f"vector length {x.shape[0]} != factor dimension {m}")
    g = dense_product(m, free)
    y = g.T @ x if args.transpose else g @ x
    sys.stdout.write(f"{m} 1\n")
    for value in y:
        sys.stdout.write(format(value, ".17g") + "\n")


if __name__ == "__main__":
    main()
