"""Point configurations in R^d and framework-level machinery: the squared
distance map (two G-frameworks are equivalent when it agrees), sparse
rigidity-matrix rows and the kernel of their span, and the general-position
test. Every coordinate is an int or a Fraction, so each decision here is
exact."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .graphs import Graph, _as_int
from .linalg import RowSpace, exact_rank_int

Scalar = Union[int, Fraction]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Configuration:
    """A tuple of points in R^d with int or Fraction coordinates; floats,
    NaN and infinities included, are refused."""

    d: int
    points: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "d", _as_int(self.d, "d", 2))
        if not self.points:
            raise ValueError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.d:
                raise ValueError(f"point {p!r} does not have dimension {self.d}")
            for v in p:
                if not _is_exact(v):
                    raise ValueError(f"bad coordinate {v!r}: coordinates are ints or Fractions")

    @property
    def n_points(self) -> int:
        return len(self.points)


def make_config(points) -> Configuration:
    """Build a Configuration from any nested sequence of coordinates; its
    dimension is the first point's length."""
    pts = tuple(tuple(p) for p in points)
    if not pts:
        raise ValueError("configuration needs at least one point")
    return Configuration(len(pts[0]), pts)


def _check_counts(g: Graph, x: Configuration):
    if g.n_vertices != x.n_points:
        raise ValueError(
            f"graph has {g.n_vertices} vertices but configuration has {x.n_points} points")


def squared_distance_map(g: Graph, x: Configuration) -> list:
    """Squared edge lengths in lexicographic edge order, exact."""
    _check_counts(g, x)
    out = []
    for i, j in g.edges:
        p, q = x.points[i - 1], x.points[j - 1]
        out.append(sum((a - b) ** 2 for a, b in zip(p, q)))
    return out


def rigidity_row(edge, x: Configuration) -> dict[int, Scalar]:
    """Non-zero entries of one edge's rigidity-matrix row at x, as
    {column: value}: 2(x_i - x_j) in block i and its negation in block j, so
    at most 2d entries; a coincident pair gives an empty row."""
    i, j = edge
    d = x.d
    p, q = x.points[i - 1], x.points[j - 1]
    row = {}
    for t in range(d):
        diff = 2 * (p[t] - q[t])
        if diff:
            row[(i - 1) * d + t] = diff
            row[(j - 1) * d + t] = -diff
    return row


def rigidity_rows(edges, x: Configuration) -> list[tuple]:
    """Dense rigidity-matrix rows for an arbitrary edge list at configuration x."""
    n_cols = x.d * x.n_points
    rows = []
    for edge in edges:
        row = [0] * n_cols
        for col, value in rigidity_row(edge, x).items():
            row[col] = value
        rows.append(tuple(row))
    return rows


def infinitesimal_motions(g: Graph, x: Configuration) -> list[tuple[tuple, ...]]:
    """Basis of the kernel of the rigidity matrix, as per-vertex velocity
    tuples: the exact rational basis of RowSpace.kernel.

    The factor 2 of rigidity_row changes no kernel. A coincident edge pair
    gives a zero row: the squared-distance map is not smooth there, so
    conclusions at such points are not generic statements.
    """
    _check_counts(g, x)
    d, n = x.d, x.n_points
    space = RowSpace(d * n)
    for e in g.edges:
        space.add(rigidity_row(e, x))
    return [tuple(tuple(vec[v * d + t] for t in range(d)) for v in range(n))
            for vec in space.kernel()]


def is_general_position(x: Configuration) -> bool:
    """Is every subset of at most d+1 points affinely independent?

    Decided by exact integer rank of homogeneous coordinate rows [1 | p]. It
    suffices to test subsets of size min(n, d+1): smaller subsets of an
    affinely independent set are affinely independent.
    """
    size = min(x.n_points, x.d + 1)
    for subset in itertools.combinations(x.points, size):
        rows = [(1,) + tuple(p) for p in subset]
        if exact_rank_int(rows, x.d + 1) < size:
            return False
    return True

