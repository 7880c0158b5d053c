"""The benchmark's four workloads run and check one request of every kind.

bench/ is imported read-only, as bench/run.py imports it, so a change to the
program that breaks a workload fails here and not first in a benchmark run.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", ["tall-factor", "square-factor", "apply-stream", "cli-roundtrip"])
def test_workload_runs_every_kind(name, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import Tally
    from workloads import make

    tally = Tally()
    wl = make(name, 0, tally, str(tmp_path / "work"))
    ran = set()
    try:
        wl.setup()
        wl.after_setup()
        for i in range(wl.cycle):
            req = wl.request(i)
            if req.kind not in ran:
                req.check(req.run())
                ran.add(req.kind)
        wl.finish()
    finally:
        wl.close()
    assert ran == set(wl.kinds)
    assert tally.attempted > 0 and tally.failed == 0
