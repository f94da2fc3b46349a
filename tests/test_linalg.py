import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fraction_rank, gauss_jordan_kernel, modular_rank

from rigidset.linalg import (
    RowSpace,
    _is_prime,
    exact_rank_int,
    integerize_row,
)
from rigidset.rigidity import _witness_modulus


def row_space_kernel(rows, n_cols):
    space = RowSpace(n_cols)
    for row in rows:
        space.add(row)
    return space.kernel()


def random_int_matrix(rng, n_rows, n_cols, inner=None):
    """Random integer matrix; with `inner` set, rank is at most inner."""
    if inner is None:
        return [[rng.randint(-9, 9) for _ in range(n_cols)] for _ in range(n_rows)]
    left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(n_rows)]
    right = [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(inner)]
    return [[sum(left[i][t] * right[t][j] for t in range(inner)) for j in range(n_cols)]
            for i in range(n_rows)]


def random_fraction_product(rng, n_rows, n_cols, inner):
    """Product of two random Fraction matrices, so its rank is at most inner."""
    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))
    left = [[entry() for _ in range(inner)] for _ in range(n_rows)]
    right = [[entry() for _ in range(n_cols)] for _ in range(inner)]
    return [[sum((left[i][t] * right[t][j] for t in range(inner)), Fraction(0))
             for j in range(n_cols)] for i in range(n_rows)]


class TestIntegerizeRow:
    def test_fractions_scaled(self):
        assert integerize_row([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_common_factor_stripped(self):
        assert integerize_row([2, 4, 6]) == [1, 2, 3]

    def test_mixed(self):
        assert integerize_row([Fraction(3, 4), 1, Fraction(-1, 2)]) == [3, 4, -2]

    def test_zero_row(self):
        assert integerize_row([0, Fraction(0), 0]) == [0, 0, 0]

    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="exact scalar"):
            integerize_row([1.0, 2])

    def test_bools_rejected(self):
        with pytest.raises(ValueError, match="exact scalar"):
            integerize_row([True, 2])

    def test_scaling_preserves_ratios(self):
        row = [Fraction(2, 7), Fraction(-3, 5), Fraction(1, 35)]
        ints = integerize_row(row)
        assert ints[0] * row[1] == ints[1] * row[0]
        assert ints[0] * row[2] == ints[2] * row[0]


class TestExactRankInt:
    def test_frozen_cases(self):
        assert exact_rank_int([[1, 0], [0, 1]], 2) == 2
        assert exact_rank_int([[1, 2], [2, 4]], 2) == 1
        assert exact_rank_int([[0, 0], [0, 0]], 2) == 0
        assert exact_rank_int([], 3) == 0
        assert exact_rank_int([[5, 0, 0]], 3) == 1
        assert exact_rank_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 3) == 2

    def test_matches_fraction_oracle(self):
        rng = random.Random(314)
        for _ in range(60):
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 10)
            mat = random_int_matrix(rng, n_rows, n_cols)
            assert exact_rank_int(mat, n_cols) == fraction_rank(mat, n_cols)

    def test_low_rank_products(self):
        rng = random.Random(159)
        frac_rng = random.Random(160)
        for _ in range(40):
            inner = rng.randint(0, 4)
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = random_int_matrix(rng, n_rows, n_cols, inner=inner)
            # row scaling keeps the rank; Fraction input must stay exact
            divisors = [frac_rng.randint(1, 9) for _ in mat]
            scaled = [[Fraction(v, k) for v in row] for row, k in zip(mat, divisors)]
            fractional = random_fraction_product(frac_rng, n_rows, n_cols, inner)
            for case in (mat, scaled, fractional):
                r = exact_rank_int(case, n_cols)
                assert r <= inner
                assert r == fraction_rank(case, n_cols)
        with pytest.raises(ValueError, match="exact scalar"):
            exact_rank_int([[1, 2], [0.5, 1.0]], 2)

    def test_big_entries_stay_exact(self):
        # a float path would round these; the exact path must not
        base = 10 ** 30
        mat = [[base, base + 1], [base + 1, base + 2]]
        assert exact_rank_int(mat, 2) == 2
        mat = [[base, 2 * base], [3 * base, 6 * base]]
        assert exact_rank_int(mat, 2) == 1


class TestRowSpace:
    def test_incremental_rank_matches_batch(self):
        rng = random.Random(271)
        for _ in range(40):
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
            mat = random_int_matrix(rng, n_rows, n_cols, inner=rng.randint(0, 5))
            space = RowSpace(n_cols)
            for k, row in enumerate(mat):
                grew = fraction_rank(mat[:k + 1], n_cols) > fraction_rank(mat[:k], n_cols)
                assert space.add(row) == grew
            assert space.rank == fraction_rank(mat, n_cols)

    def test_order_invariant_rank(self):
        rng = random.Random(653)
        mat = random_int_matrix(rng, 7, 6, inner=3)
        ranks = set()
        for _ in range(10):
            rows = mat[:]
            rng.shuffle(rows)
            space = RowSpace(6)
            for row in rows:
                space.add(row)
            ranks.add(space.rank)
        assert len(ranks) == 1

    def test_fraction_rows(self):
        space = RowSpace(2)
        assert space.add([Fraction(1, 2), Fraction(1, 3)])
        assert not space.add([Fraction(3, 2), Fraction(1)])
        assert space.add([Fraction(0), Fraction(1, 7)])
        assert space.rank == 2

    def test_duplicate_row_rejected(self):
        space = RowSpace(3)
        assert space.add([1, 2, 3])
        assert not space.add([2, 4, 6])
        assert not space.add([-1, -2, -3])
        assert space.rank == 1

    def test_length_mismatch(self):
        space = RowSpace(3)
        with pytest.raises(ValueError, match="length"):
            space.add([1, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n_cols: st.lists(
        st.lists(st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=4),
                 min_size=n_cols, max_size=n_cols),
        min_size=1, max_size=8)))
    def test_dict_rows_match_dense_rows(self, mat):
        n_cols = len(mat[0])
        dense, sparse = RowSpace(n_cols), RowSpace(n_cols)
        for row in mat:
            as_dict = {c: v for c, v in enumerate(row) if v}
            assert dense.add(row) == sparse.add(as_dict)
        assert dense.rank == sparse.rank == fraction_rank(mat, n_cols)

    def test_dict_row_column_range(self):
        space = RowSpace(3)
        for row in ({3: 1}, {-1: 1}, {"0": 1}, {True: 1}):
            with pytest.raises(ValueError, match="out of range"):
                space.add(row)
        assert space.add({2: 5}) and space.rank == 1

    @pytest.mark.parametrize("value", [1.0, True, np.int64(1)])
    def test_dict_row_inexact_value(self, value):
        with pytest.raises(ValueError, match="exact scalar"):
            RowSpace(3).add({0: 2, 1: value})

    def test_mixed_int_and_integral_fraction(self):
        # an integral Fraction next to plain ints must come out as an int
        assert integerize_row([2, Fraction(4, 1)]) == [1, 2]
        assert all(type(v) is int for v in integerize_row([3, Fraction(4, 1), 0]))
        space = RowSpace(3)
        assert space.add({0: 2, 1: Fraction(4, 1)})
        assert space.add([0, Fraction(4, 1), 1])
        assert not space.add([Fraction(2), 4, 0])
        assert space.add({2: Fraction(4, 1), 0: 3})
        assert space.rank == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                    min_size=1, max_size=7))
    def test_rank_never_exceeds_dimensions(self, mat):
        space = RowSpace(4)
        for row in mat:
            space.add(row)
        assert space.rank <= min(len(mat), 4)
        assert space.rank == fraction_rank(mat, 4)


def prime_flags(limit):
    """Sieve of Eratosthenes: flags[n] is True exactly for the primes below limit."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for q in range(2, int(limit ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, limit, q)))
    return flags


# entries in [-5, 5] and at most 6 x 6: every nonzero singular value of such
# an integer matrix of rank r is at least sigma_1^(1-r) (the product of the
# nonzero ones is a root of a sum of squared integer minors, so >= 1), and
# sigma_1 <= 30, so sigma_r / sigma_1 >= 30^-6 > 1e-9 and an SVD rank with
# relative tolerance 1e-9 is exact
small_int_matrices = st.integers(1, 6).flatmap(lambda n_cols: st.lists(
    st.lists(st.integers(-5, 5), min_size=n_cols, max_size=n_cols),
    min_size=1, max_size=6))
exact_matrices = st.integers(1, 6).flatmap(lambda n_cols: st.lists(
    st.lists(st.integers(-9, 9) | st.fractions(-3, 3, max_denominator=6),
             min_size=n_cols, max_size=n_cols),
    min_size=1, max_size=8))


class TestIsPrime:
    def test_matches_sieve_below_a_million(self):
        flags = prime_flags(10 ** 6)
        is_prime = _is_prime.__wrapped__  # uncached, so the sieve check fills no cache
        assert [n for n in range(10 ** 6) if is_prime(n)] == \
            [n for n in range(10 ** 6) if flags[n]]

    @pytest.mark.parametrize("n", [
        561,                    # Carmichael
        2047,                   # strong pseudoprime to base 2
        1373653,                # to bases 2, 3
        3215031751,             # to bases 2, 3, 5, 7
        4759123141,             # to bases 2, 7, 61
        3825123056546413051,    # to bases 2 .. 23
        (2 ** 31 - 1) * (2 ** 31 + 11),
        (2 ** 32 - 5) ** 2,
    ])
    def test_pseudoprimes_and_products_are_composite(self, n):
        assert not _is_prime(n)

    @pytest.mark.parametrize("n", [2, 3, 47, 53, 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 62 - 57,
                                   2 ** 64 - 59])
    def test_primes(self, n):
        assert _is_prime(n)

    def test_beyond_two_to_the_64_refused(self):
        with pytest.raises(ValueError, match="2\\^64"):
            _is_prime(2 ** 89 - 1)


class TestModularRank:
    """The rank checks above, ported to RowSpace's F_p mode; at any prime the
    rank must also equal oracles.modular_rank's on the primitive rows."""

    def test_frozen_cases(self):
        p = _witness_modulus(1)
        assert exact_rank_int([[1, 0], [0, 1]], 2, p) == 2
        assert exact_rank_int([[1, 2], [2, 4]], 2, p) == 1
        assert exact_rank_int([[0, 0], [0, 0]], 2, p) == 0
        assert exact_rank_int([], 3, p) == 0
        assert exact_rank_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 3, p) == 2
        # det = -5: independent over Q, dependent mod 5
        assert exact_rank_int([[1, 2], [3, 1]], 2) == 2
        assert exact_rank_int([[1, 2], [3, 1]], 2, 5) == 1

    @settings(max_examples=150, deadline=None)
    @given(small_int_matrices, st.integers(0, 2 ** 32))
    def test_drawn_prime_matches_fraction_and_svd(self, mat, seed):
        n_cols = len(mat[0])
        rank = exact_rank_int(mat, n_cols, _witness_modulus(seed))
        assert rank == fraction_rank(mat, n_cols) == np.linalg.matrix_rank(mat, rtol=1e-9)

    def test_low_rank_products(self):
        rng = random.Random(159)
        frac_rng = random.Random(160)
        for i in range(40):
            p = _witness_modulus(i)
            inner = rng.randint(0, 4)
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = random_int_matrix(rng, n_rows, n_cols, inner=inner)
            fractional = random_fraction_product(frac_rng, n_rows, n_cols, inner)
            for case in (mat, fractional):
                assert exact_rank_int(case, n_cols, p) == fraction_rank(case, n_cols) <= inner

    @settings(max_examples=150, deadline=None)
    @given(exact_matrices, st.sampled_from([2, 3, 5]))
    def test_small_prime_never_exceeds_rational_rank(self, mat, p):
        n_cols = len(mat[0])
        space = RowSpace(n_cols, modulus=p)
        kept = [row for row in mat if space.add(row)]
        assert space.rank <= fraction_rank(mat, n_cols)
        assert space.rank == modular_rank(mat, n_cols, p)
        # rows kept mod p are independent over Q
        assert fraction_rank(kept, n_cols) == len(kept) == space.rank

    @settings(max_examples=60, deadline=None)
    @given(exact_matrices, st.sampled_from([3, 5, 2 ** 61 - 1]))
    def test_dict_rows_match_dense_rows(self, mat, p):
        n_cols = len(mat[0])
        dense, sparse = RowSpace(n_cols, p), RowSpace(n_cols, p)
        for row in mat:
            as_dict = {c: v for c, v in enumerate(row) if v}
            assert dense.add(row) == sparse.add(as_dict)
        assert dense.rank == sparse.rank == modular_rank(mat, n_cols, p)

    def test_incremental_rank_matches_batch(self):
        rng = random.Random(271)
        for i in range(40):
            p = _witness_modulus(i)
            n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
            mat = random_int_matrix(rng, n_rows, n_cols, inner=rng.randint(0, 5))
            space = RowSpace(n_cols, p)
            for k, row in enumerate(mat):
                grew = fraction_rank(mat[:k + 1], n_cols) > fraction_rank(mat[:k], n_cols)
                assert space.add(row) == grew
            assert space.rank == exact_rank_int(mat, n_cols, p) == fraction_rank(mat, n_cols)

    def test_pivots_lead_with_one_and_stay_below_p(self):
        space = RowSpace(3, 7)
        for row in ([3, 5, 6], [2, 0, 1], {1: Fraction(1, 3), 2: -4}):
            space.add(row)
        assert space.rank == 3
        for lead, row in space._basis.items():
            assert row[lead] == 1 and min(row) == lead
            assert all(0 < v < 7 for v in row.values())

    def test_big_entries(self):
        p = _witness_modulus(3)
        base = 10 ** 30
        assert exact_rank_int([[base, base + 1], [base + 1, base + 2]], 2, p) == 2
        assert exact_rank_int([[base, 2 * base], [3 * base, 6 * base]], 2, p) == 1

    @pytest.mark.parametrize("value", [1.0, 0.0, True, np.int64(1), np.float64(0.0)])
    def test_inexact_scalars_rejected(self, value):
        p = _witness_modulus(2)
        with pytest.raises(ValueError, match="exact scalar"):
            RowSpace(3, p).add({0: 2, 1: value})
        with pytest.raises(ValueError, match="exact scalar"):
            RowSpace(3, p).add([2, value, 0])
        with pytest.raises(ValueError, match="exact scalar"):
            exact_rank_int([[1, 2, 3], [value, 0, 1]], 3, p)

    @pytest.mark.parametrize("modulus", [0, 1, 4, 561, 2 ** 61, 2 ** 89 - 1, 7.0, True,
                                         Fraction(7)])
    def test_modulus_must_be_a_prime_int(self, modulus):
        with pytest.raises(ValueError, match="modulus"):
            RowSpace(3, modulus)


class TestRationalKernelBasis:
    """RowSpace.kernel, against the Gauss-Jordan reference."""

    def test_frozen_line(self):
        basis = row_space_kernel([[1, 2, 3]], 3)
        assert len(basis) == 2
        for vec in basis:
            assert vec[0] + 2 * vec[1] + 3 * vec[2] == 0

    def test_empty_matrix_gives_identity(self):
        basis = row_space_kernel([], 3)
        assert len(basis) == 3
        assert basis[0][0] == 1 and basis[1][1] == 1 and basis[2][2] == 1

    def test_full_rank_square(self):
        assert row_space_kernel([[1, 0], [0, 1]], 2) == []

    def test_rank_nullity_and_membership(self):
        rng = random.Random(828)
        for _ in range(40):
            n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
            mat = random_int_matrix(rng, n_rows, n_cols, inner=rng.randint(0, 4))
            basis = row_space_kernel(mat, n_cols)
            assert len(basis) == n_cols - fraction_rank(mat, n_cols)
            for vec in basis:
                for row in mat:
                    assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0

    def test_fraction_entries(self):
        basis = row_space_kernel([[Fraction(1, 2), Fraction(1, 3)]], 2)
        assert len(basis) == 1
        vec = basis[0]
        assert Fraction(1, 2) * vec[0] + Fraction(1, 3) * vec[1] == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_gauss_jordan(self, data):
        n_cols = data.draw(st.integers(1, 8))
        entry = st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=4) | st.just(0)
        rows = data.draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                  max_size=6))
        # zero rows and combinations of earlier rows, at drawn positions
        for _ in range(data.draw(st.integers(0, 3))):
            if rows and data.draw(st.booleans()):
                a, b = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
                f = data.draw(st.fractions(-2, 2, max_denominator=3))
                extra = [f * x + y for x, y in zip(rows[a], rows[b])]
            else:
                extra = [0] * n_cols
            rows.insert(data.draw(st.integers(0, len(rows))), extra)
        basis = row_space_kernel(rows, n_cols)
        expected = gauss_jordan_kernel(rows, n_cols)
        assert basis == expected
        assert all(type(v) is Fraction for vec in basis for v in vec)

    def test_refused_modulo_a_prime(self):
        space = RowSpace(3, _witness_modulus(1))
        space.add([1, 2, 3])
        with pytest.raises(ValueError, match="over Q only"):
            space.kernel()

