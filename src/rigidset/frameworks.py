"""Point configurations in R^d and framework-level machinery: distance maps,
sparse rigidity-matrix rows and the kernel of their span, congruence and
general-position tests, isometries."""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .graphs import Graph
from .linalg import RowSpace, exact_rank_int

Scalar = Union[int, Fraction, float]


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Configuration:
    """A tuple of points in R^d.

    Scalars are ints/Fractions (exact) or floats; a single float entry makes
    the whole configuration floating. Exact configurations admit exact rank
    and congruence decisions.
    """

    d: int
    points: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError(f"ambient dimension must be an integer >= 2, got {self.d!r}")
        if not self.points:
            raise ValueError("configuration needs at least one point")
        for p in self.points:
            if len(p) != self.d:
                raise ValueError(f"point {p!r} does not have dimension {self.d}")
            for v in p:
                if not (_is_exact(v) or isinstance(v, float)):
                    raise ValueError(f"bad coordinate {v!r}")

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def is_exact(self) -> bool:
        return all(_is_exact(v) for p in self.points for v in p)

    def as_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in p] for p in self.points], dtype=float)


def make_config(points, d: int | None = None) -> Configuration:
    """Build a Configuration from any nested sequence of coordinates."""
    pts = tuple(tuple(p) for p in points)
    if d is None:
        if not pts:
            raise ValueError("configuration needs at least one point")
        d = len(pts[0])
    return Configuration(d, pts)


def _check_counts(g: Graph, x: Configuration):
    if g.n_vertices != x.n_points:
        raise ValueError(
            f"graph has {g.n_vertices} vertices but configuration has {x.n_points} points")


def squared_distance_map(g: Graph, x: Configuration) -> list:
    """Squared edge lengths in lexicographic edge order; exact on exact input."""
    _check_counts(g, x)
    out = []
    for i, j in g.edges:
        p, q = x.points[i - 1], x.points[j - 1]
        out.append(sum((a - b) ** 2 for a, b in zip(p, q)))
    return out


def distance_map(g: Graph, x: Configuration) -> list[float]:
    """Edge lengths |x_i - x_j| in lexicographic edge order."""
    return [math.sqrt(v) for v in squared_distance_map(g, x)]


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
    tuples. When every row entry is exact (an exact configuration, or a
    floating one whose edges have only zero coordinate differences) the
    basis is the exact rational one of RowSpace.kernel; otherwise it is an
    SVD null space with relative tolerance 1e-9.

    The factor 2 of rigidity_row changes no kernel. A coincident edge pair
    gives a zero row: the squared-distance map is not smooth there, so
    conclusions at such points are not generic statements.
    """
    _check_counts(g, x)
    d, n = x.d, x.n_points
    rows = [rigidity_row(e, x) for e in g.edges]

    def reshape(vec):
        return tuple(tuple(vec[v * d + t] for t in range(d)) for v in range(n))

    if all(_is_exact(v) for row in rows for v in row.values()):
        space = RowSpace(d * n)
        for row in rows:
            space.add(row)
        return [reshape(vec) for vec in space.kernel()]
    a = np.zeros((len(rows), d * n))
    for i, row in enumerate(rows):
        for col, value in row.items():
            a[i, col] = value
    _, singular, vh = np.linalg.svd(a)
    rank = int(np.sum(singular > 1e-9 * singular[0]))
    return [reshape([float(v) for v in vec]) for vec in vh[rank:]]


def _all_pairs(n: int):
    return itertools.combinations(range(n), 2)


def is_congruent(x: Configuration, y: Configuration, rel_tol: float = 1e-9) -> bool:
    """Do all pairwise distances agree?

    Equivalent to the existence of an isometry (reflections included) taking
    x to y pointwise. Exact equality of squared distances when both
    configurations are exact; relative tolerance on distances otherwise.
    """
    if x.d != y.d or x.n_points != y.n_points:
        raise ValueError("configurations must share dimension and point count")
    exact = x.is_exact and y.is_exact
    for a, b in _all_pairs(x.n_points):
        sq_x = sum((u - v) ** 2 for u, v in zip(x.points[a], x.points[b]))
        sq_y = sum((u - v) ** 2 for u, v in zip(y.points[a], y.points[b]))
        if exact:
            if Fraction(sq_x) != Fraction(sq_y):
                return False
        else:
            du, dv = math.sqrt(sq_x), math.sqrt(sq_y)
            if abs(du - dv) > rel_tol * max(du, dv):
                return False
    return True


def is_general_position(x: Configuration) -> bool:
    """Is every subset of at most d+1 points affinely independent?

    Decided by exact integer rank of homogeneous coordinate rows [1 | p]. It
    suffices to test subsets of size min(n, d+1): smaller subsets of an
    affinely independent set are affinely independent.
    """
    if not x.is_exact:
        raise ValueError("is_general_position needs an exact configuration")
    size = min(x.n_points, x.d + 1)
    for subset in itertools.combinations(x.points, size):
        rows = [(1,) + tuple(p) for p in subset]
        if exact_rank_int(rows, x.d + 1) < size:
            return False
    return True


@dataclass(frozen=True)
class Isometry:
    """Orthogonal matrix plus translation: p -> Q p + b."""

    matrix: tuple[tuple[Scalar, ...], ...]
    translation: tuple[Scalar, ...]


def _is_orthogonal(matrix) -> bool:
    """True when Q Q^T = I, exactly for exact entries, else to 1e-9."""
    d = len(matrix)
    exact = all(_is_exact(v) for row in matrix for v in row)
    for i in range(d):
        for j in range(d):
            dot = sum(matrix[i][t] * matrix[j][t] for t in range(d))
            want = 1 if i == j else 0
            if exact:
                if Fraction(dot) != want:
                    return False
            elif abs(dot - want) > 1e-9:
                return False
    return True


def apply_isometry(x: Configuration, iso: Isometry) -> Configuration:
    """Pointwise image Q p + b. Rejects non-orthogonal matrix parts."""
    matrix, shift = iso.matrix, iso.translation
    if len(matrix) != x.d or any(len(row) != x.d for row in matrix) or len(shift) != x.d:
        raise ValueError(f"isometry shape does not match dimension {x.d}")
    if not _is_orthogonal(matrix):
        raise ValueError("matrix part is not orthogonal")
    new_points = []
    for p in x.points:
        new_points.append(tuple(
            sum(matrix[r][c] * p[c] for c in range(x.d)) + shift[r] for r in range(x.d)))
    return Configuration(x.d, tuple(new_points))


def random_isometry(d: int, seed: int, exact: bool = False) -> Isometry:
    """Random isometry of R^d, reflections allowed.

    exact=True yields a signed permutation matrix with an integer translation
    (orthogonal in exact arithmetic); otherwise a dense orthogonal matrix from
    a QR factorization with a uniform float translation.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if exact:
        rng = random.Random(seed)
        perm = list(range(d))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(d)]
        matrix = tuple(
            tuple(signs[r] if perm[r] == c else 0 for c in range(d)) for r in range(d))
        shift = tuple(rng.randint(-10, 10) for _ in range(d))
        return Isometry(matrix, shift)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    matrix = tuple(tuple(float(v) for v in row) for row in q)
    shift = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=d))
    return Isometry(matrix, shift)


def _scalar_to_obj(v):
    if isinstance(v, bool):
        raise ValueError("boolean is not a coordinate")
    if isinstance(v, int) or isinstance(v, float):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    raise ValueError(f"bad coordinate {v!r}")


def _scalar_from_obj(v):
    if isinstance(v, bool):
        raise ValueError("boolean is not a coordinate")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"bad coordinate {v!r}") from None
    raise ValueError(f"bad coordinate {v!r}")


def config_to_obj(x: Configuration) -> dict:
    return {"d": x.d, "points": [[_scalar_to_obj(v) for v in p] for p in x.points]}


def config_from_obj(obj) -> Configuration:
    if not isinstance(obj, dict) or "d" not in obj or "points" not in obj:
        raise ValueError('configuration JSON needs "d" and "points" keys')
    points = obj["points"]
    if (not isinstance(points, (list, tuple))
            or not all(isinstance(p, (list, tuple)) for p in points)):
        raise ValueError('"points" must be a list of coordinate lists')
    # Configuration refuses a d that is not an int >= 2 (a bool is below 2)
    return Configuration(obj["d"], tuple(tuple(_scalar_from_obj(v) for v in p) for p in points))


def config_to_json(x: Configuration) -> str:
    """Serialize to {"d": d, "points": [[...], ...]}, rationals as "p/q"."""
    return json.dumps(config_to_obj(x))


def config_from_json(text: str) -> Configuration:
    return config_from_obj(json.loads(text))
