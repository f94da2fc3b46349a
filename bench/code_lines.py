"""Code lines of the rigidset package in one or more source trees, per
module and in total.

    python3 bench/code_lines.py /path/to/parent .

A code line of a module under TREE/src/rigidset is a line that holds a
token other than a comment and outside a docstring: blank lines, comment
lines and docstrings are not counted, and a statement or string literal
over several lines counts each of them. A docstring is the string literal
that opens a module, class or function body. One column per tree, headed
by the path as given; a module missing from a tree counts 0 there.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE or (token.type == tokenize.STRING
                                      and token.start[0] in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def package_lines(tree: str) -> dict:
    """{module name: code lines} of TREE/src/rigidset/*.py."""
    package = os.path.join(tree, "src", "rigidset")
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                counts[name[:-3]] = code_lines(f.read())
    return counts


def main(argv: list) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [package_lines(tree) for tree in argv]
    rows = [["module"] + argv]
    rows += [[name] + [str(c.get(name, 0)) for c in counts] for name in sorted(set().union(*counts))]
    rows.append(["total"] + [str(sum(c.values())) for c in counts])
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print(row[0].ljust(widths[0]), *(cell.rjust(w) for cell, w in zip(row[1:], widths[1:])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
