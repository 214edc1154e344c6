"""Count the code lines of the package, one module at a time.

    python3 tools/code_lines.py [SRC]

A code line holds a token other than a comment; module, class and function
docstrings and blank lines do not count, and a statement spread over several
lines counts each line it holds a token on.  Prints each module's count, the
total, and the number of names in ``redei_berge.__all__`` (read from the
source, not imported).  ``SRC`` is the directory that holds the package
(default: ``src`` beside this script's directory).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = "redei_berge"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def exports(source: str) -> int:
    """The number of names in a module's literal ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return len(ast.literal_eval(node.value))
    raise ValueError("no __all__ assignment")


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    package = src / PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")
    init = (package / "__init__.py").read_text(encoding="utf-8")
    print(f"{'__all__':<12} {exports(init):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
