"""Generic rank, matroid independence of edge sets, rigidity decisions, and
minimally rigid completion, all through randomized witness certificates.

Each decision here ranks the rigidity matrix at a random integer witness by
elimination modulo a random prime p (RowSpace in F_p mode), through one
greedy scan (_scan) that adds the edges' sparse rows in order, keeps those
that grow the rank, and stops at a target no rank can exceed. Ranks of
configurations the caller supplies are exact over Q: exact_rank with its
default modulus, is_framework_inf_rigid (the same scan over Q), and the
frameworks module's is_general_position and infinitesimal_motions.

Whatever the witness and p, three guarantees hold. The rank mod p at the
witness is at most the rank over Q there, which is at most the generic rank
r, so every reported rank is a lower bound. Rows independent mod p are
independent over Q, so the edges a basis keeps are generically independent.
A returned completion has required_edge_count(d, n) such edges, so it is
minimally rigid.

The reported rank falls short of r only through one of two events. First,
the witness: every entry of the rigidity matrix is linear in the
coordinates, so a nonzero r x r minor of the generic matrix is a nonzero
polynomial of degree r. Coordinates are drawn uniformly from the 2^21+1
integers in [-2^20, 2^20], so by Schwartz-Zippel (Schwartz 1980; Zippel
1979) the minor vanishes at the witness with probability at most
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

For example, a Laman graph on 320 vertices has r = 637 in d = 2: the
witness term is 637/(2^21+1) = 3.04e-4, M has at most
floor(637 * 23 / 61) = 240 prime factors in the range, and the prime term
is below 240 * 60 / 2^61 = 6.3e-15, so one witness fails with probability
below 3.04e-4. generic_rank takes the maximum over `samples` witnesses
sharing one p: it falls short only if no witness reaches r over Q, or if p
divides M at the first witness that does (fixed by the witnesses alone), so
with probability at most (r/(2^21+1))^samples plus the prime term once.
It stops drawing at the first witness that reaches min(m, the required
edge count), m the edge count: no witness can exceed that cap, so such a
witness already gives the maximum over all `samples` of them. `samples` is
thus the most witnesses drawn, and the bound is unchanged.
analyze reads every rank off one max_independent_subset basis of the whole
graph, so it falls short with at most that basis's probability,
r/(2^21+1) + 60 floor(r (22 + log2(2d)/2) / 61) / 2^61, where r is the
total rank (the sum of the components' ranks, as the rigidity matrix is
block-diagonal across components).

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

from .frameworks import (
    Configuration,
    _check_counts,
    config_to_obj,
    rigidity_row,
)
from .graphs import Graph, make_graph
from .linalg import RowSpace, _is_prime, exact_rank_int

COORDINATE_BOUND = 2 ** 20
DEFAULT_WITNESSES = 5

# The prime for a call is drawn uniformly among the primes in
# [MODULUS_LOW, 2 * MODULUS_LOW) from a stream keyed by this versioned label
# and the call's seed; changing either changes which p a seed gives.
MODULUS_LOW = 2 ** 61
MODULUS_SCHEDULE = "rigidset-fp-v1"

# At most this many witness coordinates (d times the vertex count) are drawn
# for one call: twice graphs.MAX_VERTICES is what plane graphs need, and this
# admits every graph the loaders accept up to d = 10.
MAX_WITNESS_COORDINATES = 10 ** 6


class DependentEdgeSetError(ValueError):
    """The edge set is dependent, so no minimally rigid completion exists."""


@dataclass(frozen=True)
class EdgeBasis:
    """An independent edge set together with the witness certifying it.

    The rigidity-matrix rows of `edges` at `witness` are linearly
    independent over Q (they were found independent mod a prime, which
    implies it), so the edges are generically independent, and
    rank = len(edges). The prime is not recorded: it is drawn from the same
    seed as the witness (see the module docstring).
    """

    edges: tuple[tuple[int, int], ...]
    witness: Configuration
    rank: int

    def to_json(self) -> str:
        return json.dumps({
            "edges": [list(e) for e in self.edges],
            "rank": self.rank,
            "witness": config_to_obj(self.witness),
        }, sort_keys=True)


@dataclass(frozen=True)
class GenericCertificate:
    """Reproducibility record for a randomized rank computation.

    agreed_rank is the maximum over `samples` witnesses drawn from the given
    seed of the rank mod p, one prime p drawn from the same seed for all of
    them. Drawing stops at the first witness that reaches min(m, the
    required edge count), m the edge count, as none can exceed it, so
    `samples` is the most witnesses drawn and the maximum is over all of
    them. The rank mod p never exceeds the rank over Q at the witness, which
    never exceeds the generic rank r, so this certifies a lower bound on r.
    agreed_rank < r with probability at most (r/(2^21+1))^samples (each
    witness by Schwartz-Zippel) plus 60 floor(r (22 + log2(2d)/2) / 61) / 2^61
    (p dividing one fixed nonzero minor); the module docstring derives both.
    """

    seed: int
    samples: int
    agreed_rank: int

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "samples": self.samples,
            "agreed_rank": self.agreed_rank,
        }, sort_keys=True)


def sample_generic_config(d: int, n_vertices: int, seed: int) -> Configuration:
    """Integer configuration with coordinates uniform in [-2^20, 2^20],
    deterministic per seed. More than MAX_WITNESS_COORDINATES coordinates
    are refused with ValueError before any is drawn."""
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


def _scan(space: RowSpace, edges, x: Configuration, target: int) -> list:
    """The greedy scan every rank decision here runs: add each edge's
    rigidity row at x to the space in order, and return the edges whose rows
    grew its rank. It stops once space.rank == target; with target at least
    the rank the rows can reach, no later edge could grow it."""
    kept = []
    for edge in edges:
        if space.rank == target:
            break
        if space.add(rigidity_row(edge, x)):
            kept.append(edge)
    return kept


def generic_rank(g: Graph, d: int, seed: int,
                 samples: int = DEFAULT_WITNESSES) -> tuple[int, GenericCertificate]:
    """Generic rigidity-matroid rank with its certificate.

    Maximum of the rank mod p over up to `samples` random integer witnesses,
    with one prime p drawn from the seed for all of them, each ranked by the
    greedy scan of the graph's edges. Drawing stops at the first witness
    that reaches min(n_edges, required_edge_count(d, n)), since no witness
    can exceed that, so the result is the maximum over all `samples`
    witnesses and is deterministic per seed. See GenericCertificate for the
    failure bound.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    modulus = _witness_modulus(seed)
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        x = sample_generic_config(d, g.n_vertices, rng.randrange(2 ** 32))
        cap = min(g.n_edges, required_edge_count(d, g.n_vertices))
        space = RowSpace(d * g.n_vertices, modulus)
        best = max(best, len(_scan(space, g.edges, x, cap)))
        if best == cap:
            break
    return best, GenericCertificate(seed=seed, samples=samples, agreed_rank=best)


def required_edge_count(d: int, n_vertices: int) -> int:
    """Edge count of a minimally rigid graph on n vertices in R^d.

    This is also the maximal generic rank: d*n - C(d+1,2) once n >= d+1, and
    C(n,2) (the complete graph's edge count) for fewer vertices. The two
    formulas agree at n = d+1.
    """
    if d < 1 or n_vertices < 1:
        raise ValueError("d and n_vertices must be positive")
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
    if sub.n_edges == 0:
        return True
    rank, _ = generic_rank(sub, d, seed)
    return rank == sub.n_edges


def max_independent_subset(g: Graph, d: int, seed: int) -> EdgeBasis:
    """Greedy basis of the graph's edges in the generic rigidity matroid.

    Scans edges lexicographically at a single random integer witness,
    keeping each edge whose row grows the rank mod p. Greedy on a matroid
    yields a maximum independent set, so the result's size equals the
    generic rank whenever the witness is generic and p divides none of its
    minors. The scan stops once required_edge_count(d, n) edges are kept: no
    rank exceeds it, so no later edge could be kept. The kept edges are
    always independent (rows independent mod p are independent over Q). The
    size falls short of the generic rank r with probability at most
    r/(2^21+1) plus 60 floor(r (22 + log2(2d)/2) / 61) / 2^61 (see the
    module docstring).
    """
    witness = sample_generic_config(d, g.n_vertices, seed)
    space = RowSpace(d * g.n_vertices, _witness_modulus(seed))
    kept = _scan(space, g.edges, witness, required_edge_count(d, g.n_vertices))
    return EdgeBasis(edges=tuple(kept), witness=witness, rank=len(kept))


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
    return (g.n_edges == required_edge_count(d, g.n_vertices)
            and is_generically_rigid(g, d, seed))


def minimal_rigid_completion(g: Graph, d: int, seed: int) -> Graph:
    """Extend g to a minimally rigid graph on the same vertices.

    The input's edges must already be independent; otherwise no completion
    exists and DependentEdgeSetError is raised. Candidate edges are scanned
    in lexicographic order at one random integer witness and added exactly
    when they grow the rank mod a prime p drawn from the seed, stopping at
    the required edge count, which with at most d vertices is that of the
    complete graph. A returned completion is always minimally rigid: its
    r = required_edge_count(d, n) edges are independent mod p, hence over Q
    at the witness, hence generically. Independent input edges extend to a
    generic basis of r edges, so the witness and p fail on them (a spurious
    DependentEdgeSetError or the RuntimeError below) with probability at most
    r/(2^21+1) + 60 floor(r (22 + log2(2d)/2) / 61) / 2^61 (see the module
    docstring).
    """
    n = g.n_vertices
    witness = sample_generic_config(d, n, seed)
    space = RowSpace(d * n, _witness_modulus(seed))
    target = required_edge_count(d, n)
    if len(_scan(space, g.edges, witness, target)) < g.n_edges:
        raise DependentEdgeSetError(
            "dependent edges: the input edge set is not independent, "
            "so it has no minimally rigid completion")
    present = set(g.edges)
    candidates = (e for e in itertools.combinations(range(1, n + 1), 2) if e not in present)
    edges = list(g.edges) + _scan(space, candidates, witness, target)
    if space.rank != target:
        raise RuntimeError(
            "witness configuration failed to certify the rigid rank; "
            "retry with a different seed")
    return make_graph(n, edges)
