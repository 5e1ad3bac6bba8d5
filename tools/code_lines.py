"""Print the code lines of each module of ``src/stochres`` and their total.

Usage (from anywhere):

    python3 tools/code_lines.py

A code line is a physical line that holds a token other than a comment or
a docstring.  Blank lines, comment lines and the lines of a docstring do
not count; a statement split over n lines counts n.
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stochres"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(source: str) -> set[tuple[int, int]]:
    """(first line, last line) of each docstring of the module source."""
    return {
        (node.body[0].lineno, node.body[0].end_lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None
    }


def code_lines(source: str) -> int:
    """The number of code lines of the module source."""
    docstrings = _docstrings(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and (tok.start[0], tok.end[0]) in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
