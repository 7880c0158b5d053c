"""The public surface: the README example runs and names all of the pinned __all__;
every entry refuses complex input, and no array holder compares its arrays."""
import argparse
import dataclasses
import importlib
import inspect
import io
import pkgutil
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bandedhh
from bandedhh import cli
from bandedhh._kernels import BlockedWY

README = Path(__file__).resolve().parent.parent / "README.md"
CODE_LINES = README.parent / "scripts" / "code_lines.py"
UNCOVERED = README.parent / "scripts" / "uncovered.py"
AB = README.parent / "scripts" / "ab.py"

PUBLIC = {
    "FlopCounter",
    "apply",
    "apply_blocked",
    "apply_counted",
    "apply_to_matrix",
    "apply_transpose",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "Placement",
    "ShapeError",
    "factor_auto",
    "factor_complement",
    "factor_tall",
    "reconstruct_a",
    "storage_floats",
    "BadMagicError",
    "DimensionError",
    "FactorFormatError",
    "MatrixFormatError",
    "TruncatedPayloadError",
    "read_factor",
    "read_matrix",
    "write_factor",
    "write_matrix",
    "__version__",
}


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["counter"].total == 4 * 40 * 160 + 2 * 40 == 25680


def test_all_is_the_documented_surface():
    assert len(bandedhh.__all__) == len(PUBLIC) == 25
    assert set(bandedhh.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(bandedhh, name)


# __init__ star-imports apply, factor and storage in that order, so a name
# in two of their __all__ lists would be silently shadowed by the later one.
def test_star_exports_are_disjoint():
    modules = [importlib.import_module(f"bandedhh.{m}") for m in ("apply", "factor", "storage")]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(names) | {"__version__"} == PUBLIC


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [n for n in bandedhh.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert missing == []


# Every `bandedhh <cmd>` line of the README names a subcommand, and every
# subcommand has such a line, so the README cannot drift from the parser.
def test_readme_cli_lines_match_the_parser():
    documented = set(re.findall(r"^bandedhh (\S+)", README.read_text(), re.MULTILINE))
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert documented == set(sub.choices) == {"factor", "apply", "report"}


# scripts/code_lines.py counts neither blank lines, comment-only lines nor
# module, class or function docstrings; a string that is not a docstring,
# and a line with code before its comment, are code.
SAMPLE = '''"""Module docstring,
two lines."""

import os  # a comment after code


class A:
    """Class docstring."""

    # a comment alone
    def f(self):
        """Function docstring."""
        return """not a docstring
        """
'''


def test_code_lines_script(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    assert runpy.run_path(str(CODE_LINES))["code_lines"](tmp_path / "sample.py") == 5
    out = subprocess.run([sys.executable, str(CODE_LINES)],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    package = README.parent / "src" / "bandedhh"
    assert [name for name, _ in rows[:-1]] == sorted(p.name for p in package.glob("*.py"))
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])


# scripts/uncovered.py on a sample package, not on the suite itself: of the
# statements that must run (no def, class, import or docstring, and an if
# only by its header), the untaken return and the uncalled method are
# listed, and a module that never ran is named apart. A tracer already
# running, as under the script itself, is restored afterwards.
UNCOVERED_SAMPLE = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    if (x
            and True):
        return 1
    return 2


class C:
    """Class docstring."""

    def g(self):
        return os.sep
'''


def test_uncovered_script(tmp_path):
    script = runpy.run_path(str(UNCOVERED))
    assert script["statements"](UNCOVERED_SAMPLE) == [(7, 8), (9, 9), (10, 10), (17, 17)]
    (tmp_path / "sample.py").write_text(UNCOVERED_SAMPLE)
    (tmp_path / "unused.py").write_text("x = 1\n")
    outer = sys.gettrace()
    result, executed = script["executed_lines"](
        tmp_path, lambda: runpy.run_path(str(tmp_path / "sample.py"))["f"](True))
    assert result == 1 and sys.gettrace() is outer
    assert list(executed) == [tmp_path / "sample.py"]
    missing, unimported = script["uncovered"](tmp_path, executed)
    assert missing == ["sample.py:10: return 2", "sample.py:17: return os.sep"]
    assert unimported == ["unused.py"]


# scripts/ab.py: 9 paired ratios give the 2nd and 8th order statistics as the
# median's 95% interval (P(Binomial(9, 1/2) <= 1) = 10/512 <= 0.025), and one
# source tree loads as two independent packages with the same bytes out.
def test_ab_script():
    ab = runpy.run_path(str(AB))
    ratios = [1.3, 0.9, 1.1, 0.7, 1.0, 1.2, 0.8, 1.4, 0.6]
    assert ab["median_interval"](ratios) == (1.0, 0.7, 1.3)
    with pytest.raises(ValueError):
        ab["median_interval"](ratios[:5])
    first, second = (ab["load"](f"bandedhh_ab_test_{side}", README.parent / "src")
                     for side in ("first", "second"))
    assert first.factor_tall is not second.factor_tall
    a = np.random.default_rng(14).standard_normal((7, 4))
    first_bytes, second_bytes = (ab["factor_bytes"](pkg, pkg.factor_tall(a))
                                 for pkg in (first, second))
    assert first_bytes == second_bytes == ab["factor_bytes"](bandedhh, bandedhh.factor_tall(a))
    row = ab["compare"](ab["factor_kind"](a), first, second, 6)
    assert row["pairs"] == 6 and row["bit_identical"] is True
    assert len(row["median_minflt"]) == 2 and min(row["median_minflt"]) >= 0
    env = ab["environment"]()
    assert list(env) == ["numpy", "blas", "OPENBLAS_NUM_THREADS", "cpu_count"]
    assert env["numpy"] == np.__version__


# A generated __eq__ over ndarray fields has no single truth value: ==, `in`
# and list.index raise ValueError on any instance with more than one entry,
# and the type is unhashable. Every such class compares by identity.
@pytest.mark.parametrize("make", [
    lambda: bandedhh.BandedReflectors([[0.5], [0.25]]),
    lambda: bandedhh.CompactSubspaceFactor(
        bandedhh.BandedReflectors([[0.5], [0.25]]), np.eye(2), bandedhh.Placement.TOP),
    lambda: BlockedWY(np.ones((3, 2)), np.eye(2), 0),
], ids=["BandedReflectors", "CompactSubspaceFactor", "BlockedWY"])
def test_array_holders_compare_by_identity(make):
    x, y = make(), make()
    assert (x == y) is False
    assert (x == x) is True
    assert x not in [y]
    assert [y, x].index(x) == 1
    assert hash(x) == hash(x)
    assert len({x, y}) == 2


def test_no_dataclass_compares_arrays():
    modules = [importlib.import_module(f"bandedhh.{info.name}")
               for info in pkgutil.iter_modules(bandedhh.__path__) if info.name != "__main__"]
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__]
    holders = [cls for cls in classes
               if any(f.type is np.ndarray for f in dataclasses.fields(cls))]
    assert {cls.__name__ for cls in holders} == {
        "BandedReflectors", "CompactSubspaceFactor", "BlockedWY"}
    assert [cls.__name__ for cls in holders if "__eq__" in vars(cls)] == []


# Every public entry refuses complex input, where a float64 conversion would
# drop the imaginary part with only a ComplexWarning.
G = bandedhh.BandedReflectors(np.zeros((2, 2)))
COMPLEX_ENTRIES = {
    "factor_tall": lambda: bandedhh.factor_tall(np.ones((6, 3)) * 1j),
    "factor_complement": lambda: bandedhh.factor_complement(np.ones((6, 5)) * 1j),
    "factor_auto": lambda: bandedhh.factor_auto(np.ones((3, 2)) * 1j),
    "write_matrix": lambda: bandedhh.write_matrix(np.ones((2, 2)) * 1j, io.StringIO()),
    "apply": lambda: bandedhh.apply(G, np.ones(4) * 1j),
    "apply_transpose": lambda: bandedhh.apply_transpose(G, [1j, 0, 0, 0]),
    "apply_counted": lambda: bandedhh.apply_counted(G, np.ones(4) * 1j, bandedhh.FlopCounter()),
    "apply_to_matrix": lambda: bandedhh.apply_to_matrix(G, np.ones((4, 2)) * 1j),
    "apply_blocked": lambda: bandedhh.apply_blocked(G, np.ones(4) * 1j, 1),
    "BandedReflectors": lambda: bandedhh.BandedReflectors(np.zeros((2, 2)) * 1j),
    "CompactSubspaceFactor": lambda: bandedhh.CompactSubspaceFactor(
        G, np.eye(2) * (1 + 0j), bandedhh.Placement.TOP),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_ENTRIES))
def test_complex_input_rejected(name):
    with pytest.raises(ValueError, match=r"^expected real values, got complex$"):
        COMPLEX_ENTRIES[name]()
