import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bandedhh import (
    BandedReflectors,
    CompactSubspaceFactor,
    Placement,
    apply,
    apply_transpose,
    cli,
    read_factor,
    read_matrix,
    reconstruct_a,
    storage,
    write_matrix,
)
from bandedhh.cli import main

ORACLE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "dense_apply_oracle.py"


def write_random(path, m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    write_matrix(a, path)
    return a


class TestFactorCommand:
    def test_tall_mode_top_placement(self, tmp_path, capsys):
        write_random(tmp_path / "a.txt", 7, 4, 0)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--mode", "tall"])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement: TOP" in out
        assert "12 floats (+4 betas)" in out
        assert (tmp_path / "a.bhf").stat().st_size == 280

    def test_auto_mode_narrow_band(self, tmp_path, capsys):
        write_random(tmp_path / "a.txt", 10, 9, 1)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf")])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement: BOTTOM" in out
        assert "9 floats (+1 betas)" in out

    def test_wide_input_rejected(self, tmp_path, capsys):
        write_random(tmp_path / "a.txt", 3, 5, 2)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf")])
        assert code == 1
        assert "m >= n" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        code = main(["factor", str(tmp_path / "nope.txt"), str(tmp_path / "a.bhf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_self_check_passes(self, tmp_path, capsys):
        write_random(tmp_path / "a.txt", 12, 5, 3)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        assert code == 0
        assert "self-check: ok" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
    def test_self_check_residual_at_extreme_scale(self, tmp_path, capsys, scale):
        a = np.random.default_rng(4).standard_normal((12, 5)) * scale
        write_matrix(a, tmp_path / "a.txt")
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-check: ok" in out
        residual = float(out.split("residual: ")[1].split()[0])
        assert np.isfinite(residual) and residual <= 1e-12
        with open(tmp_path / "a.bhf", "rb") as fh:
            recon = reconstruct_a(read_factor(fh))
        if (recon != a).any():
            assert residual > 0.0

    def test_self_check_fails_on_non_finite_residual(self, tmp_path, capsys, monkeypatch):
        write_random(tmp_path / "a.txt", 12, 5, 5)
        monkeypatch.setattr(cli, "reconstruct_a", lambda f: np.full((12, 5), np.nan))
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        captured = capsys.readouterr()
        assert code == 2
        assert "residual: nan" in captured.out
        assert "self-check: FAILED (residual nan" in captured.err

    def test_self_check_fails_on_re_serialization(self, tmp_path, capsys, monkeypatch):
        write_random(tmp_path / "a.txt", 12, 5, 5)
        original = storage.read_factor

        def nudged(source):
            f = original(source)
            core = f.core.copy()
            core[0, 0] = np.nextafter(core[0, 0], np.inf)
            return CompactSubspaceFactor(f.reflectors, core, f.placement)

        monkeypatch.setattr(storage, "read_factor", nudged)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        captured = capsys.readouterr()
        assert code == 2
        assert "self-check" not in captured.out
        assert captured.err == "self-check: FAILED (re-serialization differs)\n"

    def test_self_check_reads_the_file_once(self, tmp_path, capsys, monkeypatch):
        write_random(tmp_path / "a.txt", 12, 5, 3)
        reads = []

        def counting_open(path, mode="r", *args, **kwargs):
            if "r" in mode and str(path) == str(tmp_path / "a.bhf"):
                reads.append(path)
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        assert code == 0
        assert "self-check: ok" in capsys.readouterr().out
        assert len(reads) == 1

    def test_output_in_missing_directory(self, tmp_path, capsys):
        write_random(tmp_path / "a.txt", 7, 4, 0)
        code = main(["factor", str(tmp_path / "a.txt"),
                     str(tmp_path / "missing" / "a.bhf")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    # A valid factor whose core reaches 0.54 DBL_MAX: the reconstruction
    # behind the residual must not overflow to nan.
    def test_self_check_core_near_limit(self, tmp_path, capsys):
        a = np.random.default_rng(145).standard_normal((4, 2))
        a = a / np.linalg.norm(a) * (0.6 * np.finfo(np.float64).max)
        write_matrix(a, tmp_path / "a.txt")
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--self-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-check: ok" in out
        assert float(out.split("residual: ")[1].split()[0]) <= 1e-12

    # Finite input whose factor overflows float64: a column of 1.7e308, a
    # column scaled to 0.9 DBL_MAX whose dlarfg step overflows, and an 8x6
    # that factor_auto places BOTTOM. No file is written.
    @pytest.mark.parametrize("self_check", [[], ["--self-check"]])
    @pytest.mark.parametrize("mode", ["tall", "complement", "auto"])
    @pytest.mark.parametrize("case", ["8x1 of 1.7e308", "8x1 at 0.9 DBL_MAX", "8x6"])
    def test_overflowing_factor_is_an_error(self, tmp_path, capsys, case, mode, self_check):
        if case == "8x1 of 1.7e308":
            a = np.full((8, 1), 1.7e308)
        elif case == "8x1 at 0.9 DBL_MAX":
            a = np.random.default_rng(1).standard_normal((8, 1))
            a = a / np.linalg.norm(a) * (0.9 * np.finfo(np.float64).max)
        else:
            a = np.random.default_rng(14).standard_normal((8, 6))
            a[:, 0] = 1.7e308
        write_matrix(a, tmp_path / "a.txt")
        code = main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf"),
                     "--mode", mode] + self_check)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the factor of this matrix overflows float64\n"
        assert not (tmp_path / "a.bhf").exists()


class TestApplyCommand:
    def _factor(self, tmp_path, m, n, seed):
        a = write_random(tmp_path / "a.txt", m, n, seed)
        assert main(["factor", str(tmp_path / "a.txt"), str(tmp_path / "a.bhf")]) == 0
        return a

    def test_square_factor_is_identity(self, tmp_path, capsys):
        self._factor(tmp_path, 5, 5, 4)
        capsys.readouterr()
        x = write_random(tmp_path / "x.txt", 5, 1, 5)
        code = main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")])
        assert code == 0
        out = capsys.readouterr().out
        (tmp_path / "y.txt").write_text(out)
        assert np.array_equal(read_matrix(tmp_path / "y.txt"), x)

    def test_apply_then_transpose_restores(self, tmp_path, capsys):
        self._factor(tmp_path, 9, 4, 6)
        capsys.readouterr()
        x = write_random(tmp_path / "x.txt", 9, 1, 7)
        assert main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")]) == 0
        (tmp_path / "y.txt").write_text(capsys.readouterr().out)
        assert main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "y.txt"),
                     "--transpose"]) == 0
        (tmp_path / "z.txt").write_text(capsys.readouterr().out)
        z = read_matrix(tmp_path / "z.txt")
        assert np.linalg.norm(z - x) <= 1e-13 * np.linalg.norm(x)

    def test_matches_dense_oracle_script(self, tmp_path, capsys):
        self._factor(tmp_path, 8, 3, 8)
        capsys.readouterr()
        write_random(tmp_path / "x.txt", 8, 1, 9)
        assert main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")]) == 0
        (tmp_path / "y.txt").write_text(capsys.readouterr().out)
        result = subprocess.run(
            [sys.executable, str(ORACLE_SCRIPT), str(tmp_path / "a.bhf"),
             str(tmp_path / "x.txt")],
            capture_output=True, text=True, check=True)
        (tmp_path / "y_oracle.txt").write_text(result.stdout)
        y = read_matrix(tmp_path / "y.txt")
        y_oracle = read_matrix(tmp_path / "y_oracle.txt")
        assert np.linalg.norm(y - y_oracle) <= 1e-13 * np.linalg.norm(y_oracle)

    def test_dimension_mismatch(self, tmp_path, capsys):
        self._factor(tmp_path, 9, 4, 10)
        capsys.readouterr()
        write_random(tmp_path / "x.txt", 5, 1, 11)
        code = main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_corrupt_factor_file(self, tmp_path, capsys):
        (tmp_path / "bad.bhf").write_bytes(b"XHF1" + b"\x00" * 40)
        write_random(tmp_path / "x.txt", 5, 1, 12)
        code = main(["apply", str(tmp_path / "bad.bhf"), str(tmp_path / "x.txt")])
        assert code == 1
        assert "magic" in capsys.readouterr().err

    def test_matrix_instead_of_vector(self, tmp_path, capsys):
        self._factor(tmp_path, 9, 4, 13)
        write_random(tmp_path / "x.txt", 9, 2, 14)
        capsys.readouterr()
        code = main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")])
        assert code == 1
        assert capsys.readouterr().err == "error: expected a column vector, got 9 x 2\n"

    def test_missing_vector_file(self, tmp_path, capsys):
        self._factor(tmp_path, 9, 4, 15)
        capsys.readouterr()
        code = main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "nope.txt")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("transpose", [[], ["--transpose"]])
    def test_overflowing_product(self, tmp_path, capsys, transpose):
        self._factor(tmp_path, 8, 3, 8)
        write_matrix(np.full((8, 1), 1.7e308), tmp_path / "x.txt")
        capsys.readouterr()
        code = main(["apply", str(tmp_path / "a.bhf"), str(tmp_path / "x.txt")] + transpose)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the product overflows to non-finite values\n"

    # The exact product of the 2x2 hand reflection fits, so apply prints it.
    @pytest.mark.parametrize("transpose", [[], ["--transpose"]])
    def test_product_near_limit(self, tmp_path, capsys, transpose):
        g = BandedReflectors(2, [[1.0]], [1.0])
        with open(tmp_path / "h.bhf", "wb") as fh:
            storage.write_factor(CompactSubspaceFactor(g, [[1.0]], Placement.TOP), fh)
        x = np.array([1e308, 1e308])
        write_matrix(x.reshape(-1, 1), tmp_path / "x.txt")
        code = main(["apply", str(tmp_path / "h.bhf"), str(tmp_path / "x.txt")] + transpose)
        assert code == 0
        (tmp_path / "y.txt").write_text(capsys.readouterr().out)
        expected = apply_transpose(g, x) if transpose else apply(g, x)
        assert np.array_equal(read_matrix(tmp_path / "y.txt")[:, 0], expected)

    def test_header_declaring_unreadable_payload(self, tmp_path, capsys):
        # k + k w + n^2 doubles is more bytes than an index-sized integer holds
        m, n = 2**31, 2**31 - 2
        header = struct.pack("<5I", m, n, 0, n, m - n)
        (tmp_path / "huge.bhf").write_bytes(b"BHF1" + header + bytes(64))
        write_random(tmp_path / "x.txt", 5, 1, 16)
        code = main(["apply", str(tmp_path / "huge.bhf"), str(tmp_path / "x.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: truncated payload")


class TestReportCommand:
    def test_seven_by_four(self, capsys):
        assert main(["report", "7", "4"]) == 0
        out = capsys.readouterr().out
        assert "dense:       28" in out
        assert "householder: 18.0" in out
        assert "banded:      12" in out
        assert "banded/dense:       42.9%" in out
        assert "banded/householder: 66.7%" in out

    def test_square_has_zero_banded(self, capsys):
        assert main(["report", "5", "5"]) == 0
        assert "banded:      0" in capsys.readouterr().out

    def test_double_ratio(self, capsys):
        assert main(["report", "8", "4"]) == 0
        assert "banded/dense:       50.0%" in capsys.readouterr().out

    def test_monotone_counts(self, capsys):
        from bandedhh.cli import StorageReport

        for m in range(1, 101):
            for n in range(1, m + 1):
                rep = StorageReport(m, n)
                assert rep.banded_floats <= rep.householder_floats <= rep.dense_floats

    def test_invalid_shape(self, capsys):
        assert main(["report", "3", "5"]) == 1


class TestBenchCommand:
    def test_prints_flop_formula(self, capsys):
        m, n = 24, 6
        assert main(["bench", str(m), str(n), "--reps", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert f"banded matvec flops: {4 * n * (m - n) + 2 * n}" in out

    def test_block_report(self, capsys):
        assert main(["bench", "40", "16", "--reps", "2", "--block-size", "8",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "blocked: block size 8, blocks 2" in out

    def test_seeded_determinism(self, capsys):
        assert main(["bench", "20", "7", "--reps", "1", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["bench", "20", "7", "--reps", "1", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        digest = [ln for ln in first.splitlines() if ln.startswith("factor bytes")]
        assert digest == [ln for ln in second.splitlines() if ln.startswith("factor bytes")]

    def test_usage_error(self, capsys):
        assert main(["bench", "4", "9"]) == 1

    @pytest.mark.parametrize("m,n", [(4, -1), (4, 9), (-2, -3)])
    def test_shape_rule_matches_report(self, capsys, m, n):
        assert main(["bench", str(m), str(n)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bench requires m >= n >= 0, got m={m} n={n}\n"
        assert main(["report", str(m), str(n)]) == 1
        assert capsys.readouterr().err == captured.err.replace("bench", "report")

    @pytest.mark.parametrize("flag,message", [
        ("--reps", "repetitions must be at least 1"),
        ("--block-size", "block size must be at least 1"),
    ])
    def test_count_below_one(self, capsys, flag, message):
        assert main(["bench", "8", "3", flag, "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_parser_built_once_per_process(self, capsys):
        cli._build_parser.cache_clear()
        assert main(["report", "7", "4"]) == 0
        assert main(["report", "9", "3"]) == 0
        assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()
        # A cached parser answers --help and a bad argument as a fresh one does.
        fresh_help = cli._build_parser.__wrapped__().format_help()
        for _ in range(2):
            assert main(["--help"]) == 0
            assert capsys.readouterr().out == fresh_help
        errors = []
        for _ in range(2):
            assert main(["report", "seven", "4"]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "invalid int value: 'seven'" in errors[0]
