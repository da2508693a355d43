"""Count the code lines of Python sources, per module and in total.

A code line holds a token other than a comment, ``NL``, ``NEWLINE``,
``INDENT``, ``DEDENT`` or ``ENDMARKER``; a token that spans lines, such as a
multi-line string argument, holds each of them.  The lines of a statement
that is a string literal alone (a docstring, or the doc string after a
constant) are skipped.  So blank lines, comments and docstrings never count,
and reformatting code within a line never changes the count.

Usage: ``python tools/code_lines.py PATH...``, each a ``.py`` file or a
directory searched for them; prints one ``<lines> <path>`` row per module and
a ``<lines> total`` row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of ``source``, a module's text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> None:
    files = [f for p in map(Path, paths) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
    counts = [code_lines(f.read_text(encoding="utf-8")) for f in files]
    for f, n in zip(files, counts):
        print(f"{n:6d} {f}")
    print(f"{sum(counts):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
