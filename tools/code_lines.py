"""Count the lines of code of Python files: lines that hold a token of code,
so not blank, not comment-only and not inside a module, class or function
docstring. A string that spans lines counts on every line it covers, unless
it is a docstring.

    python3 tools/code_lines.py                               # src, tests and tools
    python3 tools/code_lines.py src/mergegame tests tools     # a total per directory
    python3 tools/code_lines.py --files src/mergegame         # and each file's count

With no directory it counts the repository's src, tests and tools, wherever
it is run from: the totals that change reports give.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEFAULT_DIRS = ("src", "tests", "tools")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by the docstrings of the module and of its classes
    and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of code in source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", type=Path,
                        help="directories to count, recursively (default: the repository's "
                             + ", ".join(DEFAULT_DIRS) + ")")
    parser.add_argument("--files", action="store_true", help="also print each file's count")
    args = parser.parse_args(argv)
    # each directory by the name it is printed under
    named = {d: d for d in args.dirs} or {Path(d): REPO / d for d in DEFAULT_DIRS}
    for name, root in named.items():
        total = 0
        for path in sorted(root.rglob("*.py")):
            n = code_lines(path.read_text())
            total += n
            if args.files:
                print(f"{n:>7}  {name / path.relative_to(root)}")
        print(f"{total:>7}  {name}  (total)")


if __name__ == "__main__":
    main()
