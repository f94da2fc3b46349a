"""Exact linear algebra over the rationals, and over F_p for randomized ranks.

Every rank comes from one elimination, RowSpace. A row is held sparse, as a
{column: int} dict of its non-zeros, scaled to coprime integers (row scaling
never changes rank; floats are rejected), and the basis is a dict of such
rows keyed by leading column. A candidate row is reduced only against the
basis rows whose leading columns it hits, in ascending column order, by one
loop for both fields: each step is a gcd-reduced integer
cross-multiplication, so no rounding can flip an outcome. Over Q (the
default) the row's content is stripped after each step. Given a prime
modulus p, each entry is taken mod p as it is formed, and pivot rows are
normalised to lead with 1, so the cross-multiplication scales nothing and
no entry exceeds p. The rank mod p of an integer matrix never exceeds its
rank over Q, and rows independent mod p are independent over Q.
exact_rank_int is a batch call of the same routine, and RowSpace.kernel
reads the standard kernel basis off the same basis over Q.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd


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
    """Incrementally grown row space of exact vectors, over Q or over F_p.

    Rows are {column: int} dicts of their non-zeros; the basis maps each
    leading column to the row that leads there. add takes a dense row of
    length n_cols or a {column: value} mapping. A candidate is reduced
    against the basis rows whose leading columns it hits, popped from a
    min-heap in ascending order.

    One loop serves both fields: before each cross-multiplication the gcd
    of pivot and factor is divided out of both, and only the handling of
    each new entry depends on the field. With modulus None (the default)
    the rank is the rank over Q, and the row's content is stripped after
    each step, which removes at least the factor fraction-free elimination
    would divide out, so entries stay small. With a prime modulus p, each
    integerized row and each new entry is taken mod p, and add scales every
    pivot row to lead with 1, so the cross-multiplication scales nothing and
    every entry stays below p; the rank is then the rank mod p of the
    integerized rows, at most their rank over Q, and rows the space keeps
    are independent over Q.
    """

    def __init__(self, n_cols: int, modulus: int | None = None):
        if modulus is not None and (type(modulus) is not int
                                    or not 2 <= modulus < 1 << 64
                                    or not _is_prime(modulus)):
            raise ValueError(f"modulus must be a prime int below 2^64, got {modulus!r}")
        self.n_cols = n_cols
        self.modulus = modulus
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
            # only int zeros are dropped unchecked; any other entry is
            # validated, so a float 0.0 is still rejected
            items = [(c, v) for c, v in enumerate(row) if v or type(v) is not int]
        p = self.modulus
        return {c: r for c, v in _integerize(items) if (r := v if p is None else v % p)}

    def _reduce(self, row) -> dict[int, int]:
        reduced = self._sparse(row)
        basis = self._basis
        p = self.modulus
        heap = [c for c in reduced if c in basis]
        heapify(heap)
        while heap:
            col = heappop(heap)
            f = reduced.get(col)
            if f is None:
                continue
            pivot_row = basis[col]
            # mod p every pivot row leads with 1, so this scales nothing
            lead = pivot_row[col]
            g = gcd(lead, f)
            if g > 1:
                lead //= g
                f //= g
            if lead != 1:
                reduced = {c: lead * v for c, v in reduced.items()}
            for c, b in pivot_row.items():
                v = reduced.get(c, 0) - f * b
                if p is not None:
                    v %= p
                if v:
                    if c not in reduced and c in basis:
                        heappush(heap, c)
                    reduced[c] = v
                else:
                    reduced.pop(c, None)
            if p is None:
                # strip the content over Q, so entries stay small
                g = 0
                for v in reduced.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    reduced = {c: v // g for c, v in reduced.items()}
        return reduced

    def add(self, row) -> bool:
        """Add a row; True if the rank grew."""
        reduced = self._reduce(row)
        if not reduced:
            return False
        lead = min(reduced)
        p = self.modulus
        if p is not None:
            inv = pow(reduced[lead], -1, p)
            reduced = {c: v * inv % p for c, v in reduced.items()}
        self._basis[lead] = reduced
        return True

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """Kernel basis over Q: one vector per free column, in ascending
        order, with 1 at that column and 0 at every other free column (the
        standard special solutions).

        The set of leading columns of an echelon basis depends only on the
        row space, so the free columns are those of the reduced row echelon
        form, and fixing the free entries fixes the rest. Each basis row
        leads at its lowest column, and its other entries lie at free
        columns or at higher leading columns; going from the highest leading
        column down, v[lead] = -sum(row[c] * v[c]) / row[lead] solves that
        row. These are the vectors Gauss-Jordan elimination returns. An
        empty space gives the identity basis.
        """
        if self.modulus is not None:
            raise ValueError("kernel() is defined over Q only, not modulo a prime")
        basis = self._basis
        leads = sorted(basis, reverse=True)
        vectors = []
        for free in range(self.n_cols):
            if free in basis:
                continue
            vec = [Fraction(0)] * self.n_cols
            vec[free] = Fraction(1)
            for lead in leads:
                row = basis[lead]
                total = sum(v * vec[c] for c, v in row.items() if c != lead and vec[c])
                vec[lead] = Fraction(-total, row[lead])
            vectors.append(tuple(vec))
        return vectors


def exact_rank_int(rows, n_cols: int, modulus: int | None = None) -> int:
    """Exact rank of a matrix of ints/Fractions; rejects floats.

    The rows are added one by one to a fresh RowSpace, so the rank comes from
    the same elimination as every incremental rank decision. With a prime
    modulus it is the rank mod that prime of the integerized rows, which
    never exceeds the rank over Q.
    """
    space = RowSpace(n_cols, modulus)
    for row in rows:
        space.add(row)
    return space.rank


# Miller-Rabin with these bases decides primality exactly for every n < 2^64
# (Jim Sinclair's set); witnesses are reduced mod n, and one that is 0 mod n
# proves nothing and is skipped.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@lru_cache(maxsize=64)
def _is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64.

    Cached, because every RowSpace checks its modulus, and a generic_rank
    call builds one RowSpace per witness with the same prime."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n >= 1 << 64:
        raise ValueError("_is_prime is exact only below 2^64")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True

