"""Checks on the test oracles themselves.

tests/oracles.py imports from rigidset only the output type and what a
seed gives, and no test module imports another, so every reference lives
in one place and none ranks through the engine it checks. A mutation check
(DeMillo, Lipton & Sayward 1978, "Hints on Test Data Selection") shows
that the differential comparisons through the oracles catch a broken
RowSpace: each mutant below, an edit to RowSpace's source, must make at
least one of them disagree.
"""

import ast
import inspect
import itertools
import os
import textwrap

import oracles
import pytest

from rigidset import linalg
from rigidset.graphs import double_banana, make_graph
from rigidset.linalg import RowSpace
from rigidset.rigidity import generic_rank, is_framework_inf_rigid, sample_generic_config

TESTS = os.path.dirname(os.path.abspath(__file__))

# the output type, the constructor that canonicalizes it, and the witness
# and prime that a seed gives
ORACLE_IMPORTS = {"Graph", "make_graph", "sample_generic_config", "_witness_modulus"}


def imports(path):
    """(module, imported names) for each import statement of a file; the
    names are None for a plain `import module`."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), [a.name for a in node.names]


def test_oracles_import_only_the_graph_type_and_seed_draws():
    found = [(module, names) for module, names in imports(os.path.join(TESTS, "oracles.py"))
             if module.split(".")[0] == "rigidset"]
    assert found, "parsed no rigidset import at all"
    assert [module for module, names in found if names is None] == []
    assert {name for _, names in found for name in names} <= ORACLE_IMPORTS


def test_no_test_module_imports_another():
    for file in sorted(os.listdir(TESTS)):
        if file.startswith("test_") and file.endswith(".py"):
            modules = [m for m, _ in imports(os.path.join(TESTS, file))]
            assert [m for m in modules if m.lstrip(".").startswith("test_")] == [], file


def mutant(method, edits):
    """RowSpace's `method` with each (old, new) edit made to its source,
    compiled in the linalg module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(RowSpace, method)))
    for old, new in edits:
        assert source.count(old) == 1, f"RowSpace.{method} no longer holds {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(linalg))
    exec(source, namespace)
    return namespace[method]


# Both mutants still clear every leading column from a candidate, so a new
# row never leads where a basis row does, and the rank stays equal to the
# number of rows `add` accepted: a reference that ranks with RowSpace too
# repeats the mutant's answer.
MUTANTS = {
    # a dropped reduction step: the pivot row is subtracted only at the
    # columns the candidate already holds, so the fill-in is lost
    "dropped_fill_in": ("_reduce", [
        ("v = reduced.get(c, 0) - f * b", "v = reduced[c] - f * b if c in reduced else 0"),
    ]),
    # a wrong pivot: mod p a new pivot row gets 1 at its lead, but the rest
    # of the row is not scaled with it
    "unscaled_pivot_row": ("add", [
        ("reduced = {c: v * inv % p for c, v in reduced.items()}", "reduced[lead] = 1"),
    ]),
}


def two_cliques(k, shared):
    """Two copies of K_k that share `shared` vertices."""
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    shift = k - shared
    return make_graph(2 * k - shared, pairs + [(i + shift, j + shift) for i, j in pairs])


# Every case is flexible and dependent: its rank lies below both its edge
# count and the required count, so the scan meets dependent rows before it
# can stop, and an elimination that keeps a dependent row shows. The
# double banana in d = 3 has the right count (18) and rank 17.
RANK_CASES = [(double_banana(), 3, 2), (two_cliques(4, 0), 2, 1), (two_cliques(5, 1), 3, 1),
              (two_cliques(6, 1), 4, 5)]
# is_framework_inf_rigid ranks over Q, at seeded generic points
INF_RIGID_CASES = [(double_banana(), 3, 5), (two_cliques(4, 1), 2, 6)]


def disagreements():
    """The cases on which the library and the oracles differ."""
    found = []
    for g, d, seed in RANK_CASES:
        rank, cert = generic_rank(g, d, seed)
        if (rank, cert.to_json()) != oracles.reference_generic_rank(g, d, seed):
            found.append(("generic_rank", g.n_vertices, d, seed, rank))
    for g, d, seed in INF_RIGID_CASES:
        x = sample_generic_config(d, g.n_vertices, seed)
        if is_framework_inf_rigid(g, x) != oracles.reference_inf_rigid(g, x):
            found.append(("is_framework_inf_rigid", g.n_vertices, d, seed))
    return found


def test_row_space_agrees_on_every_case():
    assert disagreements() == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    method, edits = MUTANTS[name]
    monkeypatch.setattr(RowSpace, method, mutant(method, edits))
    assert disagreements() != []
