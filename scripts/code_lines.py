#!/usr/bin/env python3
"""Count the lines and the code lines of every module of ``src/sulmin``.

Usage: code_lines.py [DIR [OTHER_DIR]]

Prints one line per module of DIR (default: this checkout's ``src/sulmin``)
and a total: all lines, then code lines.  With OTHER_DIR, for instance the
``src/sulmin`` of a parent checkout, it prints instead each module's code
lines in DIR, in OTHER_DIR and their difference (DIR minus OTHER_DIR, so
code deleted in DIR reads negative), then the totals; a module missing from
one tree counts 0 there.  A code line holds at least one
token that is not a comment, and is not part of a docstring: a string
literal that stands first in a module, class or function body, found
through ``ast``.  Blank lines, comment lines and docstring lines are left
out; a line that holds code and a trailing comment counts.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str):
    """``(all lines, code lines)`` of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def compare(directory: Path, other: Path) -> int:
    """Code lines per module in both trees, and their difference."""
    def code(d: Path) -> dict:
        return {p.name: count(p.read_text())[1] for p in d.glob("*.py")}

    mine, theirs = code(directory), code(other)
    rows = [(name, mine.get(name, 0), theirs.get(name, 0))
            for name in sorted(mine.keys() | theirs.keys())]
    rows.append(("total", sum(mine.values()), sum(theirs.values())))
    for name, a, b in rows:
        print(f"{name:24} {a:6} {b:6} {a - b:+6}")
    return 0


def main(argv) -> int:
    directory = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "sulmin"
    if len(argv) > 2:
        return compare(directory, Path(argv[2]))
    total_lines = total_code = 0
    for path in sorted(directory.glob("*.py")):
        lines, code = count(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.name:24} {lines:6} {code:6}")
    print(f"{'total':24} {total_lines:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
