#!/usr/bin/env python3
"""List the statements of src/bandedhh that the tier-1 tests never execute.

    python3 scripts/uncovered.py [PYTEST_ARG ...]

It runs pytest in this process (with no arguments, the tier-1 run: -q
--continue-on-collection-errors, from the repository root) under
sys.settrace and threading.settrace, recording only the lines executed in
src/bandedhh, so the rest of the run pays for one call per Python frame
and nothing per line. src is put first on sys.path, so the package that
runs is this tree's. Then it prints each statement that never ran as
module:line: text, skipping def and class lines, imports and docstrings,
and names each module that was never imported in this process (such as
__main__.py, which only runs as `python -m bandedhh` in a subprocess). It
exits 1 if any statement is listed, else with pytest's own exit status.

Tracing is by line: a statement that shares its line with another (a
one-line `if x: y`) counts as run when that line runs. No dependency
beyond pytest is needed.
"""

import ast
import os
import runpy
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "bandedhh"

# code_lines.py's rule for a docstring line, loaded by path: scripts/ is no package.
docstring_lines = runpy.run_path(str(Path(__file__).with_name("code_lines.py")))["docstring_lines"]

# Statements that run when their module loads, whatever the tests do;
# docstrings are skipped separately.
SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> list[tuple[int, int]]:
    """The (first, last) lines of each statement to check, in source order.

    A compound statement spans only its header, up to the line before its
    body, so it counts as run when its test or its iteration ran.
    """
    tree = ast.parse(source)
    docstrings = docstring_lines(tree)
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP) or node.lineno in docstrings:
            continue
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.append((node.lineno, last))
    return sorted(spans)


def executed_lines(package: Path, run) -> tuple[object, dict[Path, set[int]]]:
    """run() under line tracing of the files in package: its result, and the lines each ran.

    A file that never ran any code, so one that was never imported, has no key.
    """
    prefix = str(package) + os.sep
    executed = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = executed.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    outer = sys.gettrace(), threading.gettrace()  # a tracer already running, if any
    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(outer[0])
        threading.settrace(outer[1])
    return result, {Path(name): lines for name, lines in executed.items()}


def uncovered(package: Path, executed: dict[Path, set[int]]) -> tuple[list[str], list[str]]:
    """(each statement of package that never ran, as module:line: text; unimported modules)."""
    missing, unimported = [], []
    for path in sorted(package.glob("*.py")):
        if path not in executed:
            unimported.append(path.name)
            continue
        source = path.read_text()
        text = source.splitlines()
        missing += [f"{path.name}:{first}: {text[first - 1].strip()}"
                    for first, last in statements(source)
                    if executed[path].isdisjoint(range(first, last + 1))]
    return missing, unimported


def main(argv=None) -> int:
    import pytest

    args = sys.argv[1:] if argv is None else argv
    os.chdir(REPO)
    sys.path.insert(0, str(REPO / "src"))
    status, executed = executed_lines(
        PACKAGE, lambda: pytest.main(args or ["-q", "--continue-on-collection-errors"]))
    missing, unimported = uncovered(PACKAGE, executed)
    print(f"\n{len(missing)} statement(s) of src/bandedhh never executed")
    for row in missing:
        print(row)
    for name in unimported:
        print(f"{name}: never imported in this process")
    return 1 if missing else int(status)


if __name__ == "__main__":
    sys.exit(main())
