"""Count code lines: lines that are not blank, comments or docstrings.

Usage: python tools/code_lines.py PATH [PATH ...]

Each path is a Python file or a directory searched for `*.py` files.  Prints
one line per file and a total.  Docstrings are the string statements that
`ast` reports as the first statement of a module, class or function; comments
and blank lines are read off `tokenize`.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) of every docstring token."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add((body[0].lineno, body[0].col_offset))
    return out


def code_lines(path: Path) -> int:
    source = path.read_text()
    docs = docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docs):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    out = []
    for p in map(Path, paths):
        out += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return out


def main(argv: list[str]) -> int:
    if not argv or any(a.startswith("-") for a in argv):
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    missing = [a for a in argv if not Path(a).exists()]
    if missing:
        print("\n".join(f"no such file: {a}" for a in missing), file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
