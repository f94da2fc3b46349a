"""Generic rank, matroid independence of edge sets, rigidity decisions, and
minimally rigid completion: exact in the plane, and through randomized
witness certificates in d >= 3.

Every decision here runs one greedy scan (_scan) that offers the edges to
an engine in order, keeps those that grow its rank, and stops at a target
no rank can exceed. There are two engines, and _engine picks one by d
alone. In the plane it is the (2,3)-pebble game with rigid components
(pebble.PebbleGame; Jacobs & Hendrickson 1997, Lee & Streinu 2008), which
decides each edge by Laman's count: by Laman's theorem (Laman 1970) a set
of plane edges is generically independent exactly when no k of its
vertices span more than 2k - 3 of them. Plane ranks, bases and completions are therefore
exact, carry no failure probability, and do not depend on the seed. In
d >= 3 it is a RowSpace in F_p mode: each edge's sparse rigidity row at a
random integer witness, reduced modulo a random prime p. Ranks of
configurations the caller supplies are exact over Q in every dimension:
exact_rank with its default modulus, is_framework_inf_rigid (the same scan
over Q), and the frameworks module's is_general_position and
infinitesimal_motions. Plane calls draw no witness and no prime, so the
MAX_WITNESS_COORDINATES guard applies in d >= 3 only.

In d >= 3, whatever the witness and p, three guarantees hold. The rank mod
p at the witness is at most the rank over Q there, which is at most the
generic rank r, so every reported rank is a lower bound. Rows independent
mod p are independent over Q, so the edges a basis keeps are generically
independent. A returned completion has required_edge_count(d, n) such
edges, so it is minimally rigid.

The reported rank in d >= 3 falls short of r only through one of two
events. First, the witness: every entry of the rigidity matrix is linear in
the coordinates, so a nonzero r x r minor of the generic matrix is a
nonzero polynomial of degree r. Coordinates are drawn uniformly from the
2^21+1 integers in [-2^20, 2^20], so by Schwartz-Zippel (Schwartz 1980;
Zippel 1979) the minor vanishes at the witness with probability at most
r/(2^21+1). Second, the prime: otherwise the rank over Q at the witness is
r, and M, the r x r minor of the rows the greedy scan over Q keeps, is a
nonzero integer fixed by the witness alone. If p does not divide M those
rows stay independent mod p, so every prefix of the scan has the same rank
mod p as over Q, and the rank, the kept edges and the completion are the
ones exact arithmetic over Q would give. Each entry is at most 2^22 in
absolute value and a row has at most 2d non-zeros, so Hadamard's inequality
gives |M| <= (sqrt(2d) * 2^22)^r, and M has at most
r (22 + log2(2d)/2) / 61 prime factors in [2^61, 2^62). p is uniform among
the primes there, of which there are more than 2^61/60 (Rosser &
Schoenfeld 1962: x/ln x < pi(x) < 1.25506 x/ln x), and independent of the
witness, so it divides M with probability below
60 floor(r (22 + log2(2d)/2) / 61) / 2^61.

For example, a minimally rigid graph on 320 vertices in d = 3 has
r = 954: the witness term is 954/(2^21+1) = 4.55e-4, M has at most
floor(954 * 23.29 / 61) = 364 prime factors in the range, and the prime
term is below 364 * 60 / 2^61 = 9.5e-15, so one witness fails with
probability below 4.6e-4. generic_rank takes the maximum over `samples`
witnesses sharing one p: it falls short only if no witness reaches r over
Q, or if p divides M at the first witness that does (fixed by the
witnesses alone), so with probability at most (r/(2^21+1))^samples plus
the prime term once. It stops drawing at the first witness that reaches
min(m, the required edge count), m the edge count: no witness can exceed
that cap, so such a witness already gives the maximum over all `samples` of
them. `samples` is thus the most witnesses drawn, and the bound is
unchanged. analyze reads every rank off one max_independent_subset basis of
the whole graph, so in d >= 3 it falls short with at most that basis's
probability, r/(2^21+1) + 60 floor(r (22 + log2(2d)/2) / 61) / 2^61, where
r is the total rank (the sum of the components' ranks, as the rigidity
matrix is block-diagonal across components).

The witness seeds come from random.Random(seed) and p from a stream keyed by
MODULUS_SCHEDULE and the seed, so both are fixed by the seed and a rerun
repeats every rank, basis and completion.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Mapping
from dataclasses import dataclass

from .frameworks import Configuration, _check_counts, rigidity_row
from .graphs import Graph, _as_int, make_graph
from .linalg import RowSpace, _is_prime, exact_rank_int
from .pebble import PebbleGame

COORDINATE_BOUND = 2 ** 20
DEFAULT_WITNESSES = 5

# The prime for a call is drawn uniformly among the primes in
# [MODULUS_LOW, 2 * MODULUS_LOW) from a stream keyed by this versioned label
# and the call's seed; changing either changes which p a seed gives.
MODULUS_LOW = 2 ** 61
MODULUS_SCHEDULE = "rigidset-fp-v1"

# At most this many witness coordinates (d times the vertex count) are drawn
# for one call in d >= 3 (plane calls draw none): ten times
# graphs.MAX_VERTICES, so every graph the loaders accept is admitted up to
# d = 10.
MAX_WITNESS_COORDINATES = 10 ** 6


class DependentEdgeSetError(ValueError):
    """The edge set is dependent, so no minimally rigid completion exists."""


@dataclass(frozen=True)
class EdgeBasis:
    """An independent edge set together with the seed it was drawn from.

    rank = len(edges). In the plane the pebble game chose the edges, and
    their independence is exact by Laman's theorem. In d >= 3 the
    rigidity-matrix rows of `edges` at the witness
    sample_generic_config(d, n, seed) are linearly independent over Q (they
    were found independent mod a prime, which implies it), so the edges are
    generically independent. Like GenericCertificate, the basis records
    only its seed: the witness and the prime are recomputed from it (see
    the module docstring).
    """

    edges: tuple[tuple[int, int], ...]
    rank: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


@dataclass(frozen=True)
class GenericCertificate:
    """Reproducibility record for a rank computation.

    In the plane agreed_rank is the generic rank itself, from the pebble
    game: exact, whatever the seed. In d >= 3 it is the maximum over
    `samples` witnesses drawn from the given seed of the rank mod p, one
    prime p drawn from the same seed for all of them. Drawing stops at the
    first witness that reaches min(m, the required edge count), m the edge
    count, as none can exceed it, so `samples` is the most witnesses drawn
    and the maximum is over all of them. The rank mod p never exceeds the
    rank over Q at the witness, which never exceeds the generic rank r, so
    this certifies a lower bound on r. The module docstring bounds the
    probability that agreed_rank < r, for `samples` witnesses.
    """

    seed: int
    samples: int
    agreed_rank: int

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def sample_generic_config(d: int, n_vertices: int, seed: int) -> Configuration:
    """Integer configuration with coordinates uniform in [-2^20, 2^20],
    deterministic per seed. More than MAX_WITNESS_COORDINATES coordinates
    are refused with ValueError before any is drawn."""
    d, n_vertices = _as_int(d, "d", 2), _as_int(n_vertices, "n_vertices", 1)
    if d * n_vertices > MAX_WITNESS_COORDINATES:
        raise ValueError(
            f"d={d} on {n_vertices} vertices needs {d * n_vertices} witness "
            f"coordinates; at most {MAX_WITNESS_COORDINATES} are supported")
    rng = random.Random(seed)
    pts = tuple(
        tuple(rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND) for _ in range(d))
        for _ in range(n_vertices))
    return Configuration(d, pts)


def exact_rank(matrix, modulus: int | None = None) -> int:
    """Exact rank of an iterable of dense rows, such as rigidity_rows gives.

    Entries must be ints or Fractions; floating input is rejected because a
    rounded entry would make the certificate worthless (RowSpace rejects
    it). With modulus None the rank is over Q; with a prime modulus it is
    the rank mod that prime of the integerized rows, which never exceeds
    the rank over Q. A sparse {column: value} row raises ValueError: its
    column count cannot be read off it, so such rows go to RowSpace or
    exact_rank_int with the count given.
    """
    rows = list(matrix)
    if any(isinstance(r, Mapping) for r in rows):
        raise ValueError("exact_rank takes dense rows; rank sparse {column: value} "
                         "rows with RowSpace or exact_rank_int, which take n_cols")
    rows = [tuple(r) for r in rows]
    n_cols = len(rows[0]) if rows else 0
    return exact_rank_int(rows, n_cols, modulus)


def _witness_modulus(seed: int) -> int:
    """The prime for one call with this seed: odd candidates are drawn
    uniformly from [2^61, 2^62) until one is prime, so every prime there is
    equally likely. The stream is keyed by MODULUS_SCHEDULE and the seed, so
    p is fixed by the seed and independent of the witnesses drawn from it."""
    rng = random.Random(f"{MODULUS_SCHEDULE}:{seed}")
    while True:
        p = rng.randrange(MODULUS_LOW + 1, 2 * MODULUS_LOW, 2)
        if _is_prime(p):
            return p


def _engine(d: int, seed: int):
    """Pick the engine of every scan in R^d with this seed, by d alone.

    Every rank call starts here, so d is checked here; is_independent also
    checks it, for the empty subset it answers without a rank call. Returns
    new_space(n, witness_seed), which gives a fresh space on n vertices and
    the witness _scan takes rigidity rows at. In the plane the space is the
    pebble game, fed the edges themselves, and nothing is drawn: the
    witness is None. In d >= 3 it is a RowSpace modulo the seed's prime,
    drawn once here, fed the edges' rows at
    sample_generic_config(d, n, witness_seed)."""
    d = _as_int(d, "d", 2)
    if d == 2:
        return lambda n, witness_seed: (PebbleGame(n), None)
    modulus = _witness_modulus(seed)
    return lambda n, witness_seed: (RowSpace(d * n, modulus),
                                    sample_generic_config(d, n, witness_seed))


def _scan(space, edges, x: Configuration | None, target: int) -> list:
    """The greedy scan every rank decision here runs: add each edge to the
    space in order, and return the edges that grew its rank. The space is
    one of two engines: a RowSpace, given each edge's rigidity row at x, or
    the plane pebble game, given the edge itself (x is None). It stops once
    space.rank == target; with target at least the rank the edges can
    reach, no later edge could grow it."""
    kept = []
    for edge in edges:
        if space.rank == target:
            break
        if space.add(edge if x is None else rigidity_row(edge, x)):
            kept.append(edge)
    return kept


def generic_rank(g: Graph, d: int, seed: int,
                 samples: int = DEFAULT_WITNESSES) -> tuple[int, GenericCertificate]:
    """Generic rigidity-matroid rank with its certificate.

    In the plane the rank is the pebble game's, exact, from one scan of the
    graph's edges; nothing is drawn. In d >= 3 it is the
    maximum of the rank mod p over up to `samples` random integer witnesses,
    with one prime p drawn from the seed for all of them, each ranked by the
    greedy scan of the graph's edges. Drawing stops at the first witness
    that reaches min(n_edges, required_edge_count(d, n)), since no witness
    can exceed that, so the result is the maximum over all `samples`
    witnesses and is deterministic per seed. The module docstring gives the
    failure bound.
    """
    samples = _as_int(samples, "samples", 1)
    new_space = _engine(d, seed)
    rng = random.Random(seed)
    cap = min(g.n_edges, required_edge_count(d, g.n_vertices))
    best = 0
    for _ in range(samples):
        space, x = new_space(g.n_vertices, rng.randrange(2 ** 32))
        best = max(best, len(_scan(space, g.edges, x, cap)))
        # the game's rank (x None) is exact: no witness can change it
        if best == cap or x is None:
            break
    return best, GenericCertificate(seed=seed, samples=samples, agreed_rank=best)


def required_edge_count(d: int, n_vertices: int) -> int:
    """Edge count of a minimally rigid graph on n vertices in R^d.

    This is also the maximal generic rank: d*n - C(d+1,2) once n >= d+1, and
    C(n,2) (the complete graph's edge count) for fewer vertices. The two
    formulas agree at n = d+1.
    """
    d, n_vertices = _as_int(d, "d", 1), _as_int(n_vertices, "n_vertices", 1)
    if n_vertices >= d + 1:
        return d * n_vertices - (d + 1) * d // 2
    return n_vertices * (n_vertices - 1) // 2


def _validated_subset(g: Graph, subset) -> Graph:
    sub = make_graph(g.n_vertices, subset)
    present = set(g.edges)
    for e in sub.edges:
        if e not in present:
            raise ValueError(f"edge {e} is not in the graph")
    return sub


def is_independent(g: Graph, subset, d: int, seed: int) -> bool:
    """Are these edges independent rows of the generic rigidity matrix?"""
    sub = _validated_subset(g, subset)
    d = _as_int(d, "d", 2)
    if sub.n_edges == 0:
        return True
    rank, _ = generic_rank(sub, d, seed)
    return rank == sub.n_edges


def max_independent_subset(g: Graph, d: int, seed: int) -> EdgeBasis:
    """Greedy basis of the graph's edges in the generic rigidity matroid.

    Scans edges lexicographically, keeping each edge that grows the rank,
    and stops once required_edge_count(d, n) edges are kept: no rank
    exceeds it, so no later edge could be kept. Greedy on a matroid yields a
    maximum independent set, and in a fixed order the greedy basis is
    unique. In the plane each edge is decided by the pebble game, so the
    basis is exact. In d >= 3 each is decided at one random integer witness
    by its row's rank mod p; the kept edges are always independent (rows
    independent mod p are independent over Q), and the module docstring
    bounds the probability that the size falls short of the generic rank,
    that of one witness.
    """
    space, x = _engine(d, seed)(g.n_vertices, seed)
    kept = _scan(space, g.edges, x, required_edge_count(d, g.n_vertices))
    return EdgeBasis(edges=tuple(kept), rank=len(kept), seed=seed)


def is_framework_inf_rigid(g: Graph, x: Configuration) -> bool:
    """Is this specific framework infinitesimally rigid?

    Kernel equality with the complete graph, decided by rank equality: the
    complete graph's motions are always motions of (g, x), so the kernels
    agree exactly when the ranks do. Both ranks come from one greedy scan
    over Q: g's edges first, then the complete graph's on the same space,
    rigid exactly when the second scan keeps no edge. The scans stop at
    required_edge_count(d, n), which no rank at any configuration exceeds,
    since such a rank is at most the generic rank.
    """
    _check_counts(g, x)
    n = g.n_vertices
    space = RowSpace(x.d * n)
    target = required_edge_count(x.d, n)
    _scan(space, g.edges, x, target)
    return not _scan(space, itertools.combinations(range(1, n + 1), 2), x, target)


def is_generically_rigid(g: Graph, d: int, seed: int) -> bool:
    """Does the generic rank reach the maximal rank for this vertex count?"""
    rank, _ = generic_rank(g, d, seed)
    return rank == required_edge_count(d, g.n_vertices)


def is_minimally_rigid(g: Graph, d: int, seed: int) -> bool:
    """Generically rigid with exactly the required edge count, i.e. rigid
    with an independent edge set."""
    d = _as_int(d, "d", 2)  # checked before the count, which takes d = 1
    return (g.n_edges == required_edge_count(d, g.n_vertices)
            and is_generically_rigid(g, d, seed))


def minimal_rigid_completion(g: Graph, d: int, seed: int) -> Graph:
    """Extend g to a minimally rigid graph on the same vertices.

    The input's edges must already be independent; otherwise no completion
    exists and DependentEdgeSetError is raised. Candidate edges are scanned
    in lexicographic order, as a lazy stream, and added exactly when they
    grow the rank, stopping at the required edge count, which with at most
    d vertices is that of the complete graph. In the plane the pebble game
    decides each edge, so the answer is exact and the RuntimeError below
    cannot occur. In d >= 3 each edge is decided at one random integer
    witness by its row's rank mod a prime p drawn from the seed. A returned
    completion is always minimally rigid: its r = required_edge_count(d, n)
    edges are independent mod p, hence over Q at the witness, hence
    generically. Independent input edges extend to a generic basis of r
    edges, so the witness and p fail on them (a spurious
    DependentEdgeSetError or the RuntimeError below) with at most the
    one-witness probability that the module docstring bounds, with r the
    required edge count.
    """
    n = g.n_vertices
    space, x = _engine(d, seed)(n, seed)
    target = required_edge_count(d, n)
    if len(_scan(space, g.edges, x, target)) < g.n_edges:
        raise DependentEdgeSetError(
            "dependent edges: the input edge set is not independent, "
            "so it has no minimally rigid completion")
    present = set(g.edges)
    candidates = (e for e in itertools.combinations(range(1, n + 1), 2) if e not in present)
    edges = list(g.edges) + _scan(space, candidates, x, target)
    if space.rank != target:
        raise RuntimeError(
            "witness configuration failed to certify the rigid rank; "
            "retry with a different seed")
    return make_graph(n, edges)
