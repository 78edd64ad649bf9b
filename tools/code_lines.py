"""Count the code lines of the package: every line a code token touches.

Docstrings, comments and blank lines do not count. A docstring here is any
string that stands alone as a statement (a module, class or function
docstring, or one under an assignment); every other token counts on each
line it spans, so a multi-line call or string literal counts in full.

    python tools/code_lines.py [DIR]

prints one line per module of DIR (default: the repository's
``src/cartanbundle``), largest first, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that a code token touches."""
    docstrings = {
        (node.lineno, node.col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "cartanbundle"
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(root.glob("*.py"))}
    if not counts:
        sys.exit(f"no Python modules in {root}")
    for name, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
