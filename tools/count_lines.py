"""Count the physical and code lines of the package's modules.

    python3 tools/count_lines.py [DIR]

DIR defaults to ``src/liering`` next to this script's parent.  For each
``*.py`` file directly in DIR, and for their total, it prints the physical
lines (as ``wc -l`` counts them) and the code lines: the lines that are not
blank, not a ``#`` comment, and not inside a module, class or function
docstring, whose line ranges come from ``ast``.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of ``tree``'s scopes span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = docstring_lines(ast.parse(source))
    physical = source.count("\n")
    code = sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return physical, code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = args[0] if args else os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                             os.pardir, "src", "liering")
    totals = [0, 0]
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as handle:
            physical, code = count(handle.read())
        totals[0] += physical
        totals[1] += code
        print(f"{physical:6} {code:6}  {name}")
    print(f"{totals[0]:6} {totals[1]:6}  total (physical, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
