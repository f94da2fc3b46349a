"""Point configurations in R^d and framework-level machinery: distance maps,
sparse rigidity-matrix rows and the kernel of their span, congruence and
general-position tests, isometries. Every coordinate is an int or a
Fraction, so each decision here is exact."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .graphs import Graph
from .linalg import RowSpace, exact_rank_int

Scalar = Union[int, Fraction]

# Fraction writes a decimal exponent out in full ("1e1000000" is a
# million-digit integer), so a JSON coordinate's exponent is bounded; the
# digits before it are bounded by Python's int digit limit, also 4300.
_MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Configuration:
    """A tuple of points in R^d with int or Fraction coordinates; floats,
    NaN and infinities included, are refused."""

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
                if not _is_exact(v):
                    raise ValueError(f"bad coordinate {v!r}: coordinates are ints or Fractions")

    @property
    def n_points(self) -> int:
        return len(self.points)


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
    """Squared edge lengths in lexicographic edge order, exact."""
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


def _all_pairs(n: int):
    return itertools.combinations(range(n), 2)


def is_congruent(x: Configuration, y: Configuration) -> bool:
    """Do all pairwise distances agree?

    Equivalent to the existence of an isometry (reflections included) taking
    x to y pointwise. Decided by exact equality of squared distances.
    """
    if x.d != y.d or x.n_points != y.n_points:
        raise ValueError("configurations must share dimension and point count")
    for a, b in _all_pairs(x.n_points):
        sq_x = sum((u - v) ** 2 for u, v in zip(x.points[a], x.points[b]))
        sq_y = sum((u - v) ** 2 for u, v in zip(y.points[a], y.points[b]))
        if sq_x != sq_y:
            return False
    return True


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


@dataclass(frozen=True)
class Isometry:
    """Orthogonal matrix plus translation: p -> Q p + b."""

    matrix: tuple[tuple[Scalar, ...], ...]
    translation: tuple[Scalar, ...]


def _is_orthogonal(matrix) -> bool:
    """True when Q Q^T = I exactly."""
    d = len(matrix)
    return all(sum(matrix[i][t] * matrix[j][t] for t in range(d)) == (1 if i == j else 0)
               for i in range(d) for j in range(d))


def apply_isometry(x: Configuration, iso: Isometry) -> Configuration:
    """Pointwise image Q p + b. Rejects non-exact entries and non-orthogonal
    matrix parts."""
    matrix, shift = iso.matrix, iso.translation
    if len(matrix) != x.d or any(len(row) != x.d for row in matrix) or len(shift) != x.d:
        raise ValueError(f"isometry shape does not match dimension {x.d}")
    if not all(_is_exact(v) for v in itertools.chain(shift, *matrix)):
        raise ValueError("isometry entries must be ints or Fractions")
    if not _is_orthogonal(matrix):
        raise ValueError("matrix part is not orthogonal")
    new_points = []
    for p in x.points:
        new_points.append(tuple(
            sum(matrix[r][c] * p[c] for c in range(x.d)) + shift[r] for r in range(x.d)))
    return Configuration(x.d, tuple(new_points))


def random_isometry(d: int, seed: int) -> Isometry:
    """Random isometry of R^d, reflections allowed: a seeded signed
    permutation matrix with an integer translation."""
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    matrix = tuple(
        tuple(signs[r] if perm[r] == c else 0 for c in range(d)) for r in range(d))
    shift = tuple(rng.randint(-10, 10) for _ in range(d))
    return Isometry(matrix, shift)


def _scalar_to_obj(v):
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return int(v)


def _scalar_from_obj(v):
    """A JSON coordinate: an int as it is, a string as Fraction parses it
    ("1/2", "0.5"); Configuration refuses anything else, JSON floats included.
    A decimal exponent beyond _MAX_DECIMAL_EXPONENT raises ValueError."""
    if not isinstance(v, str):
        return v
    exponent = _EXPONENT.search(v)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    # the length test first: int() refuses strings past Python's digit limit
    if len(digits) > len(str(_MAX_DECIMAL_EXPONENT)) or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"bad coordinate {v!r}: decimal exponent beyond {_MAX_DECIMAL_EXPONENT}")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"bad coordinate {v!r}") from None


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
