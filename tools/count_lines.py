"""Count the lines of the nlwaves package, module by module.

    python3 tools/count_lines.py [DIR]
    python3 tools/count_lines.py --rev REV [DIR]

For each module of DIR (default: ``src/nlwaves``) and in total, prints the
physical lines and the code lines: the lines that hold a token other than a
comment, with blank lines and docstrings left out.  Tokens come from
``tokenize``; docstrings are the string statements that open a module, class
or function body, found with ``ast``.  A token that spans several lines,
such as a string, counts every line it spans.

With --rev, prints instead the code lines of each module at the git revision
REV (read with ``git show``), in the working tree, and the difference; a
module present on one side only counts 0 on the other.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _sources_at(package: Path, rev: str) -> dict[str, str]:
    """{file name: source} of the modules of `package` at the git revision `rev`."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", str(package), *args], check=True,
                              capture_output=True, text=True).stdout

    names = [n for n in git("ls-tree", "--name-only", rev).splitlines() if n.endswith(".py")]
    return {name: git("show", f"{rev}:./{name}") for name in names}


def _print_counts(package: Path) -> None:
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{totals[0]:>8}{totals[1]:>8}")


def _print_change(package: Path, rev: str) -> None:
    before = {name: count(source)[1] for name, source in _sources_at(package, rev).items()}
    after = {path.name: count(path.read_text(encoding="utf-8"))[1]
             for path in package.glob("*.py")}
    rows = [(name, before.get(name, 0), after.get(name, 0)) for name in sorted({*before, *after})]
    rows.append(("total", sum(before.values()), sum(after.values())))
    print(f"{'module':<16}{'rev':>8}{'tree':>8}{'diff':>8}")
    for name, old, new in rows:
        print(f"{name:<16}{old:>8}{new:>8}{new - old:>+8}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="compare the code lines with this git revision")
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "nlwaves")
    args = parser.parse_args(argv)
    if args.rev is None:
        _print_counts(args.dir)
    else:
        _print_change(args.dir, args.rev)
    return 0


if __name__ == "__main__":
    sys.exit(main())
