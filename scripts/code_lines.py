#!/usr/bin/env python3
"""Count the code lines of each module of src/bandedhh, and their total.

A code line is any line that is not blank, not a comment alone, and not
part of a module, class or function docstring. Run it from anywhere:

    python3 scripts/code_lines.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandedhh"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main() -> int:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
