"""The plane engine, the (2,3)-pebble game, against independent references.

In the plane every rank, basis and completion comes from the pebble game.
The greedy basis of a matroid in a fixed edge order is unique, so the game
must keep exactly the edges that the witness route keeps at the same seed
(oracles.reference_greedy: Fraction elimination at the seed's witness),
its ranks must equal Laman's count (oracles.laman_rank), and every
completion must be (2,3)-sparse (oracles.laman_sparse). Two one-line
mutants of the game, compiled and patched in, show that the same
comparisons on the same graph families catch a broken game.
"""

import inspect
import itertools
import random
import textwrap

import oracles
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from rigidset import pebble
from rigidset.pebble import PebbleGame
from rigidset.graphs import make_graph
from rigidset.rigidity import (
    DependentEdgeSetError,
    generic_rank,
    is_generically_rigid,
    is_independent,
    is_minimally_rigid,
    max_independent_subset,
    minimal_rigid_completion,
    required_edge_count,
)

# the oracles enumerate every vertex subset, so graphs stay this small
MAX_VERTICES = 9


@st.composite
def henneberg_with_extras(draw, n):
    """A plane Laman graph by Henneberg-I steps, plus up to n extra pairs."""
    edges = [(1, 2)] if n >= 2 else []
    for v in range(3, n + 1):
        a, b = draw(st.lists(st.integers(1, v - 1), min_size=2, max_size=2, unique=True))
        edges += [(a, v), (b, v)]
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return edges


@st.composite
def tiny(draw, n):
    """Any edge set on n <= 3 vertices."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [e for e in pairs if draw(st.booleans())]


FAMILIES = {
    "henneberg": henneberg_with_extras,
    "star": lambda n: st.just([(1, j) for j in range(2, n + 1)]),
    "fan": lambda n: st.just([(i, i + 1) for i in range(1, n)] + [(1, j) for j in range(3, n + 1)]),
    "path": lambda n: st.just([(i, i + 1) for i in range(1, n)]),
    "edgeless": lambda n: st.just([]),
}


@st.composite
def plane_graphs(draw):
    """A disjoint union of 1 to 3 pieces from the families, at most
    MAX_VERTICES vertices in all, with shuffled labels. Pieces of at most 3
    vertices may be any graph."""
    sizes = draw(st.lists(st.integers(1, MAX_VERTICES), min_size=1, max_size=3)
                 .filter(lambda s: sum(s) <= MAX_VERTICES))
    edges, base = [], 0
    for n in sizes:
        kinds = sorted(FAMILIES) + (["tiny"] if n <= 3 else [])
        kind = draw(st.sampled_from(kinds))
        piece = draw(tiny(n) if kind == "tiny" else FAMILIES[kind](n))
        edges += [(base + i, base + j) for i, j in piece]
        base += n
    perm = draw(st.permutations(range(1, base + 1)))
    return make_graph(base, [(perm[i - 1], perm[j - 1]) for i, j in edges])


def disagreements(g, seed):
    """Where the plane engine and the references differ on g at this seed."""
    n = g.n_vertices
    found = []
    laman = oracles.laman_rank(g)
    basis = max_independent_subset(g, 2, seed)
    greedy = oracles.reference_greedy(n, 2, seed, [], g.edges)
    if list(basis.edges) != greedy or basis.rank != laman:
        found.append(("basis", basis.edges, greedy, laman))
    rank, cert = generic_rank(g, 2, seed)
    if rank != laman or cert.agreed_rank != laman:
        found.append(("generic_rank", rank, laman))
    independent = oracles.laman_sparse(n, g.edges)
    maximal = required_edge_count(2, n)
    if (is_independent(g, g.edges, 2, seed), is_generically_rigid(g, 2, seed),
            is_minimally_rigid(g, 2, seed)) != (
            independent, laman == maximal, independent and laman == maximal):
        found.append(("predicates", independent, laman))
    try:
        done = minimal_rigid_completion(g, 2, seed)
    except DependentEdgeSetError:
        if independent:
            found.append(("completion refused",))
        return found
    present = set(g.edges)
    added = oracles.reference_greedy(n, 2, seed, g.edges,
                                     [e for e in itertools.combinations(range(1, n + 1), 2)
                                      if e not in present])
    if (not independent or done != make_graph(n, list(g.edges) + added)
            or done.n_edges != maximal or not oracles.laman_sparse(n, done.edges)):
        found.append(("completion", done.edges, added))
    return found


@settings(max_examples=120, deadline=None)
@given(g=plane_graphs(), seed=st.integers(0, 2 ** 32))
def test_game_agrees_with_the_references(g, seed):
    assert disagreements(g, seed) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_graph_on_three_vertices(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            assert disagreements(make_graph(n, edges), 5) == []


def test_named_families_at_the_oracle_limit():
    rng = random.Random(24)
    n = MAX_VERTICES
    laman = oracles.henneberg_laman(rng, n)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    graphs = [make_graph(n, [(1, j) for j in range(2, n + 1)]),
              make_graph(n, [(i, i + 1) for i in range(1, n)]),
              make_graph(n, [(i, i + 1) for i in range(1, n)] + [(1, j) for j in range(3, n + 1)]),
              laman,
              make_graph(n, list(laman.edges) + rng.sample(pairs, 6)),
              make_graph(n, rng.sample(laman.edges, laman.n_edges - 4)),
              make_graph(n, [])]
    for g in graphs:
        assert disagreements(g, rng.randrange(2 ** 32)) == []


# Each mutant is a one-line edit to the game's source.
MUTANTS = {
    # an edge is accepted once three pebbles are gathered on its ends, not four
    "three_pebbles": ("add", "if out[u] or out[v]:", "if len(out[u]) + len(out[v]) > 1:"),
    # a recorded component keeps the vertices that can still reach a free
    # pebble, so it is not rigid
    "unescaped_component": ("_record", "component = (stuck - escaped) | ends",
                            "component = stuck | ends"),
}


def mutant(method, old, new):
    """The game's `method` with one edit made to its source, compiled in the
    pebble module's namespace."""
    source = textwrap.dedent(inspect.getsource(getattr(PebbleGame, method)))
    assert source.count(old) == 1, f"PebbleGame.{method} no longer holds {old!r}"
    namespace = dict(vars(pebble))
    exec(source.replace(old, new), namespace)
    return namespace[method]


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(monkeypatch, name):
    monkeypatch.setattr(PebbleGame, MUTANTS[name][0], mutant(*MUTANTS[name]))
    # the first failing graph is enough: no shrinking
    found = find(plane_graphs(), lambda g: bool(disagreements(g, 3)),
                 settings=settings(max_examples=500, database=None, deadline=None,
                                   phases=(Phase.generate,)),
                 random=random.Random(0))
    assert disagreements(found, 3) != []
