#!/usr/bin/env python3
"""Count the code lines of softcbf's modules: lines that hold a token of
code, so blank lines, comments and docstrings do not count.

    python scripts/code_lines.py [FILE.py ...]

Without arguments it counts src/softcbf/*.py.  Prints one line per module
and a total, in the layout of `wc -l`, so that a change which only deletes
comments or docstrings shows no drop here.
"""
import ast
import os
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    with open(path, "rb") as fobj:
        for tok in tokenize.tokenize(fobj.readline):
            if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "softcbf").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {os.path.relpath(path)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
