"""The exact route, everything `analyze` and `complete` run, imports no
numpy: a precondition for starting those subcommands without it."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "rigidset")


def imported_modules(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", ["graphs", "linalg", "frameworks", "rigidity", "thresholds"])
def test_exact_modules_import_no_numpy(module):
    names = list(imported_modules(os.path.join(SRC, module + ".py")))
    assert names, "parsed no import at all"
    assert [n for n in names if n.split(".")[0] == "numpy"] == []
