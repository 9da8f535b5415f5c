#!/usr/bin/env python3
"""List the statements of src/ltclab that no Tier-1 test executes.

Runs the test suite in this process under a line tracer from the standard
library (``sys.settrace``) and prints every statement of ``src/ltclab`` that
never ran, one per line, as ``file:line: text``.  A statement counts as run
when any line of its own span ran: a simple statement's lines, or a compound
statement's header up to its first body statement.  Docstrings, ``try:`` and
``else:`` headers and ``global`` declarations produce no line events and are
not listed.

Only this process is traced: code that a test runs in a subprocess (the
report scripts of ``tests/test_reports.py``) counts as not run unless some
in-process test runs it too.  A statement that only some hypothesis draws
reach can come and go between runs.  The suite runs about twice as slow
under the tracer.  Always exits 0, whatever the tests do.

    python3 scripts/uncovered.py [pytest arguments]
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ltclab"


def _statements(path: pathlib.Path) -> dict[int, range]:
    """First line -> the lines of each statement's own span, for the statements that emit line events."""
    spans = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        spans[first] = range(first, max(first, last) + 1)
    return spans


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    import pytest

    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *sys.argv[1:]])
    finally:
        sys.settrace(None)

    missed = 0
    for name, path in files.items():
        lines = path.read_text().splitlines()
        for first, span in sorted(_statements(path).items()):
            if not ran[name].intersection(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{missed} statements not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
