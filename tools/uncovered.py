"""Print every statement of a package that a pytest run never executes.

Usage: python tools/uncovered.py [--source DIR] [PYTEST_ARG ...]

Needs no coverage package.  The script runs pytest in its own process, with
the given arguments (none: the suite as ``pyproject.toml`` configures it),
while a ``sys.settrace`` hook records the lines run in the ``*.py`` files
under ``--source`` (``src/gnfkit`` by default).  It then prints
``path:line: text`` for each statement of those files that never ran, file
by file in line order, and their count.  Run it from the repository root, so
that the package is first imported under the hook; processes the tests
start are not traced.

A statement is an ``ast`` statement node that compiles to code; its lines
run from its first decorator, if any, through its last line, or up to its
body for a compound statement, and it ran when any of them did.  The hook
makes a run several times slower (minutes over the whole suite), so the
suite does not run this script.  Exit status: pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
import types
from pathlib import Path

import pytest


def runnable_lines(code: types.CodeType) -> set[int]:
    """The lines that the code object and the ones nested in it run."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= runnable_lines(const)
    return out


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """Each statement of the file that compiles to code, by first line, with
    the lines whose running counts as running it."""
    source = path.read_text()
    runnable = runnable_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        lines = set(range(first, max(first, last) + 1)) & runnable
        if lines:
            out.append((node.lineno, lines))
    return sorted(out)


def traced_run(files: list[Path], pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code over the arguments and the lines run in each file."""
    ran: dict[Path, set[int]] = {path: set() for path in files}
    by_name: dict[str, set[int] | None] = {}

    def lines_of(code: types.CodeType) -> set[int] | None:
        name = code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(Path(os.path.realpath(name)))
        return by_name[name]

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if lines_of(frame.f_code) is not None else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        usage="python tools/uncovered.py [--source DIR] [PYTEST_ARG ...]")
    parser.add_argument("--source", default="src/gnfkit",
                        help="the directory whose *.py files are checked")
    args, pytest_args = parser.parse_known_args(argv)
    files = sorted(Path(os.path.realpath(args.source)).rglob("*.py"))
    if not files:
        print(f"no *.py files under {args.source}", file=sys.stderr)
        return 2
    # read before the run, which imports the files as they are now
    texts = {path: path.read_text().splitlines() for path in files}
    found = {path: statements(path) for path in files}
    code, ran = traced_run(files, pytest_args)
    total = missed = 0
    for path in files:
        text = texts[path]
        shown = os.path.relpath(path)
        for line, lines in found[path]:
            total += 1
            if not lines & ran[path]:
                missed += 1
                print(f"{shown}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
