"""Exact linear algebra over the rationals for small dense matrices.

Every exact rank comes from one elimination, RowSpace: each row is scaled to
coprime integers (row scaling never changes rank; floats are rejected) and
reduced against an integer echelon basis with the gcd stripped after every
step, so no rounding can flip an outcome. exact_rank_int is a batch call of
the same routine. Rational Gauss-Jordan is kept only for kernel bases, where
rational output is needed. A floating SVD rank is provided for cross-checks
only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np


def integerize_row(row) -> list[int]:
    """Scale a row of ints/Fractions to coprime integers; rejects floats."""
    denom_lcm = 1
    for x in row:
        if isinstance(x, Fraction):
            denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
        elif isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"exact scalar expected, got {type(x).__name__}")
    ints = [int(x * denom_lcm) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class RowSpace:
    """Incrementally grown row space of exact vectors.

    Keeps a row-echelon basis with pivots in ascending column order. A
    candidate row is reduced by integer cross-multiplication against each
    pivot; the gcd is stripped after every step, which removes at least the
    factor fraction-free elimination would divide out, so entries stay small.
    """

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self._rows: list[list[int]] = []
        self._pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, row) -> list[int]:
        reduced = integerize_row(row)
        if len(reduced) != self.n_cols:
            raise ValueError("row length mismatch")
        for basis_row, col in zip(self._rows, self._pivot_cols):
            f = reduced[col]
            if f:
                p = basis_row[col]
                reduced = [a * p - f * b for a, b in zip(reduced, basis_row)]
                g = 0
                for v in reduced:
                    g = gcd(g, v)
                if g > 1:
                    reduced = [v // g for v in reduced]
        return reduced

    def extends(self, row) -> bool:
        """Would adding this row increase the rank?"""
        return any(self._reduce(row))

    def add(self, row) -> bool:
        """Add a row; True if the rank grew."""
        reduced = self._reduce(row)
        lead = next((c for c, v in enumerate(reduced) if v), None)
        if lead is None:
            return False
        pos = 0
        while pos < len(self._pivot_cols) and self._pivot_cols[pos] < lead:
            pos += 1
        self._rows.insert(pos, reduced)
        self._pivot_cols.insert(pos, lead)
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
