"""Exact linear algebra over the rationals.

Every exact rank comes from one elimination, RowSpace. A row is held sparse,
as a {column: int} dict of its non-zeros, scaled to coprime integers (row
scaling never changes rank; floats are rejected), and the basis is a dict of
such rows keyed by leading column. A candidate row is reduced only against
the basis rows whose leading columns it hits, in ascending column order, by
gcd-reduced integer cross-multiplication, so no rounding can flip an outcome.
exact_rank_int is a batch call of the same routine. Rational Gauss-Jordan is
kept only for kernel bases, where rational output is needed. A floating SVD
rank is provided for cross-checks only.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

import numpy as np


def _integerize(items) -> list[tuple[int, int]]:
    """Scale (column, value) pairs of ints/Fractions to coprime integers.

    Returns the pairs in input order with every value an int, zeros kept.
    Floats, bools and numpy scalars are rejected.
    """
    pairs = list(items)
    denom_lcm = 1
    for _, x in pairs:
        if type(x) is int:
            continue
        if isinstance(x, Fraction):
            denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
        elif isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"exact scalar expected, got {type(x).__name__}")
    ints = [(c, int(x * denom_lcm)) for c, x in pairs]
    g = 0
    for _, v in ints:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        ints = [(c, v // g) for c, v in ints]
    return ints


def integerize_row(row) -> list[int]:
    """Scale a row of ints/Fractions to coprime integers; rejects floats."""
    return [v for _, v in _integerize(enumerate(row))]


class RowSpace:
    """Incrementally grown row space of exact vectors.

    Rows are {column: int} dicts of their non-zeros; the basis maps each
    leading column to the row that leads there. add and extends take a dense
    row of length n_cols or a {column: value} mapping. A candidate is
    reduced against the basis rows whose leading columns it hits, popped from
    a min-heap in ascending order; before each cross-multiplication the gcd
    of pivot and factor is divided out of both, and the row's content is
    stripped after it, which removes at least the factor fraction-free
    elimination would divide out, so entries stay small.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self._basis: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._basis)

    def _sparse(self, row) -> dict[int, int]:
        if isinstance(row, Mapping):
            for col in row:
                if type(col) is not int or not 0 <= col < self.n_cols:
                    raise ValueError(
                        f"column {col!r} out of range for {self.n_cols} columns")
            items = row.items()
        else:
            if len(row) != self.n_cols:
                raise ValueError("row length mismatch")
            items = enumerate(row)
        return {c: v for c, v in _integerize(items) if v}

    def _reduce(self, row) -> dict[int, int]:
        reduced = self._sparse(row)
        basis = self._basis
        heap = [c for c in reduced if c in basis]
        heapify(heap)
        while heap:
            col = heappop(heap)
            f = reduced.get(col)
            if f is None:
                continue
            pivot_row = basis[col]
            p = pivot_row[col]
            g = gcd(p, f)
            if g > 1:
                p //= g
                f //= g
            if p != 1:
                reduced = {c: p * v for c, v in reduced.items()}
            for c, b in pivot_row.items():
                v = reduced.get(c, 0) - f * b
                if v:
                    if c not in reduced and c in basis:
                        heappush(heap, c)
                    reduced[c] = v
                else:
                    reduced.pop(c, None)
            g = 0
            for v in reduced.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                reduced = {c: v // g for c, v in reduced.items()}
        return reduced

    def extends(self, row) -> bool:
        """Would adding this row increase the rank?"""
        return bool(self._reduce(row))

    def add(self, row) -> bool:
        """Add a row; True if the rank grew."""
        reduced = self._reduce(row)
        if not reduced:
            return False
        self._basis[min(reduced)] = reduced
        return True


def exact_rank_int(rows, n_cols: int) -> int:
    """Exact rank of a matrix of ints/Fractions; rejects floats.

    The rows are added one by one to a fresh RowSpace, so the rank comes from
    the same elimination as every incremental rank decision.
    """
    space = RowSpace(n_cols)
    for row in rows:
        space.add(row)
    return space.rank


def rational_kernel_basis(rows, n_cols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of a rational matrix via Gauss-Jordan elimination.

    One basis vector per free column, carrying a 1 in the free position (the
    standard special solutions). An empty matrix yields the identity basis.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    pivot_set = set(pivot_cols)
    basis = []
    for free_col in range(n_cols):
        if free_col in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free_col] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][free_col]
        basis.append(tuple(vec))
    return basis


def float_rank(matrix, rel_tol: float = 1e-9) -> int:
    """Numerical rank: singular values above rel_tol times the largest."""
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        return 0
    singular = np.linalg.svd(a, compute_uv=False)
    if singular.size == 0 or singular[0] == 0.0:
        return 0
    return int(np.sum(singular > rel_tol * singular[0]))
