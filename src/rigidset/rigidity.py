"""Generic rank, matroid independence of edge sets, rigidity decisions, and
minimally rigid completion, all through randomized exact-arithmetic
certificates.

The rank of the rigidity matrix at any single configuration lower-bounds the
generic rank, so an exact rank at a random integer witness can only
under-report it. The bound on how often it does follows from
Schwartz-Zippel (Schwartz 1980; Zippel 1979): every entry of the rigidity
matrix is linear in the coordinates, so a nonzero r x r minor of the generic
matrix is a nonzero polynomial of degree r. Coordinates are drawn uniformly
from the 2^21+1 integers in [-2^20, 2^20], so that minor vanishes at one
witness with probability at most r/(2^21+1), and the witness under-reports a
generic rank r with at most that probability. The maximum over `samples`
independent witnesses under-reports with probability at most
(r/(2^21+1))^samples. For example, r = 637 (a Laman graph on 320 vertices)
gives at most 3.1e-4 for one witness.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .frameworks import (
    Configuration,
    RigidityMatrix,
    config_to_obj,
    rigidity_matrix,
    rigidity_row,
)
from .graphs import Graph, complete_graph, make_graph
from .linalg import RowSpace, exact_rank_int

COORDINATE_BOUND = 2 ** 20
DEFAULT_WITNESSES = 5


class DependentEdgeSetError(ValueError):
    """The edge set is dependent, so no minimally rigid completion exists."""


@dataclass(frozen=True)
class EdgeBasis:
    """An independent edge set together with the witness certifying it.

    The rigidity-matrix rows of `edges` at `witness` are linearly
    independent, and rank = len(edges).
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

    agreed_rank is the maximum exact rank over `samples` witnesses drawn from
    the given seed; rank is lower-semicontinuous, so this certifies a lower
    bound on the generic rank r. By Schwartz-Zippel each witness falls short
    of r with probability at most r/(2^21+1), so agreed_rank < r with
    probability at most (r/(2^21+1))^samples.
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
    deterministic per seed."""
    rng = random.Random(seed)
    pts = tuple(
        tuple(rng.randint(-COORDINATE_BOUND, COORDINATE_BOUND) for _ in range(d))
        for _ in range(n_vertices))
    return Configuration(d, pts)


def exact_rank(matrix) -> int:
    """Exact rational rank of a RigidityMatrix or row iterable.

    Entries must be ints or Fractions; floating input is rejected because a
    rounded entry would make the certificate worthless.
    """
    if isinstance(matrix, RigidityMatrix):
        if not matrix.is_exact:
            raise ValueError("exact_rank requires exact entries")
        rows, n_cols = matrix.entries, matrix.n_cols
    else:
        rows = [tuple(r) for r in matrix]
        n_cols = len(rows[0]) if rows else 0
    return exact_rank_int(rows, n_cols)


def _witness_seeds(seed: int, samples: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(samples)]


def generic_rank(g: Graph, d: int, seed: int,
                 samples: int = DEFAULT_WITNESSES) -> tuple[int, GenericCertificate]:
    """Generic rigidity-matroid rank with its certificate.

    Maximum of the exact rank over `samples` random integer witnesses; the
    max is order-independent, so the result is deterministic per seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    best = 0
    for witness_seed in _witness_seeds(seed, samples):
        x = sample_generic_config(d, g.n_vertices, witness_seed)
        best = max(best, exact_rank(rigidity_matrix(g, x)))
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


def max_independent_subset(g: Graph, d: int, seed: int, scan_order=None) -> EdgeBasis:
    """Greedy basis of the graph's edges in the generic rigidity matroid.

    Scans edges lexicographically (or in the given permutation of them) at a
    single random integer witness, keeping each edge whose row grows the
    rank. Greedy on a matroid yields a maximum independent set, so the
    result's size equals the generic rank whenever the witness is generic;
    the size is invariant under the scan order, the edge set itself need not
    be. The scan stops once required_edge_count(d, n) edges are kept: no
    rank exceeds it, so no later edge could be kept. With one witness the
    size falls short of the generic rank r with probability at most
    r/(2^21+1) (Schwartz-Zippel, see the module docstring); `analyze` calls
    this once per connected component, each with its own witness.
    """
    witness = sample_generic_config(d, g.n_vertices, seed)
    if scan_order is None:
        order = g.edges
    else:
        order = [tuple(sorted(e)) for e in scan_order]
        if sorted(order) != list(g.edges):
            raise ValueError("scan_order must be a permutation of the graph's edges")
    space = RowSpace(d * g.n_vertices)
    target = required_edge_count(d, g.n_vertices)
    kept = []
    for edge in order:
        if space.add(rigidity_row(edge, witness)):
            kept.append(edge)
            if len(kept) == target:
                break
    return EdgeBasis(edges=tuple(sorted(kept)), witness=witness, rank=len(kept))


def is_framework_inf_rigid(g: Graph, x: Configuration) -> bool:
    """Is this specific framework infinitesimally rigid?

    Kernel equality with the complete graph, decided by rank equality: the
    complete graph's motions are always motions of (g, x), so the kernels
    agree exactly when the ranks do. Exact configurations only.
    """
    if not x.is_exact:
        raise ValueError("is_framework_inf_rigid requires an exact configuration")
    rank_g = exact_rank(rigidity_matrix(g, x))
    if g.n_vertices < 2:
        return True
    rank_complete = exact_rank(rigidity_matrix(complete_graph(g.n_vertices), x))
    return rank_g == rank_complete


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
    when they grow the rank, stopping at the required edge count. With at
    most d vertices the completion is the complete graph. Independent input
    edges extend to a generic basis of r = required_edge_count(d, n) edges,
    so the single witness fails on them (a spurious DependentEdgeSetError or
    the RuntimeError below) with probability at most r/(2^21+1)
    (Schwartz-Zippel, see the module docstring).
    """
    n = g.n_vertices
    witness = sample_generic_config(d, n, seed)
    space = RowSpace(d * n)
    for edge in g.edges:
        if not space.add(rigidity_row(edge, witness)):
            raise DependentEdgeSetError(
                "dependent edges: the input edge set is not independent, "
                "so it has no minimally rigid completion")
    if n <= d:
        return complete_graph(n) if n >= 2 else g
    target = required_edge_count(d, n)
    edges = list(g.edges)
    if space.rank < target:
        present = set(g.edges)
        for edge in itertools.combinations(range(1, n + 1), 2):
            if edge in present:
                continue
            if space.add(rigidity_row(edge, witness)):
                edges.append(edge)
                if space.rank == target:
                    break
    if space.rank != target:
        raise RuntimeError(
            "witness configuration failed to certify the rigid rank; "
            "retry with a different seed")
    return make_graph(n, edges)
