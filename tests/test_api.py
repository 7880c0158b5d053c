"""The public surface: the README example runs and names all of the pinned __all__."""
import re
from pathlib import Path

import bandedhh

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "BlockedWY",
    "FlopCounter",
    "apply",
    "apply_blocked",
    "apply_counted",
    "apply_to_matrix",
    "apply_transpose",
    "wy_chain",
    "BandedReflectors",
    "CompactSubspaceFactor",
    "Placement",
    "ShapeError",
    "factor_auto",
    "factor_complement",
    "factor_tall",
    "reconstruct_a",
    "storage_floats",
    "storage_floats_with_betas",
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
    assert len(bandedhh.__all__) == len(PUBLIC) == 28
    assert set(bandedhh.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(bandedhh, name)


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [n for n in bandedhh.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert missing == []
