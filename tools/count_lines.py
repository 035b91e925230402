"""Count the lines of the nlwaves package, module by module.

    python3 tools/count_lines.py [DIR]

For each module of DIR (default: ``src/nlwaves``) and in total, prints the
physical lines and the code lines: the lines that hold a token other than a
comment, with blank lines and docstrings left out.  Tokens come from
``tokenize``; docstrings are the string statements that open a module, class
or function body, found with ``ast``.  A token that spans several lines,
such as a string, counts every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0]) if args else ROOT / "src" / "nlwaves"
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
