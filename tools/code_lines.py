"""Count the code lines of the package, per module and in total.

A code line holds a token other than a comment, a line break, an indent or
a dedent, and is not part of a docstring (the first statement of a module,
class or function when it is a string). `wc -l` is printed beside it, so a
change that only moves docstrings or comments shows as such.

    python3 tools/code_lines.py [DIR]

DIR defaults to `src/lteadv_sim` next to this script's directory; every
`*.py` file directly in it is counted. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in `tree`."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`, as the module docstring
    defines them."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "lteadv_sim")
    code_total = wc_total = 0
    print(f"{'module':<16} {'code':>6} {'wc -l':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, wc = code_lines(source), source.count("\n")
        code_total, wc_total = code_total + code, wc_total + wc
        print(f"{path.name:<16} {code:>6} {wc:>6}")
    print(f"{'total':<16} {code_total:>6} {wc_total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
