import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from rigidset.frameworks import (
    Configuration,
    infinitesimal_motions,
    is_general_position,
    make_config,
    rigidity_row,
    rigidity_rows,
    squared_distance_map,
)
from rigidset.graphs import complete_graph, make_graph, path_graph

UNIT_SQUARE = make_config([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_exact_config(rng, d, n):
    return make_config([tuple(rng.randint(-50, 50) for _ in range(d)) for _ in range(n)])


def givens(d, a, b, sign):
    """Exact rotation of R^d in the (a, b) coordinate plane by the angle with
    cosine 3/5 and sine 4/5 (-4/5 when sign is -1): a Pythagorean triple."""
    m = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
    m[a][a] = m[b][b] = Fraction(3, 5)
    m[b][a] = Fraction(4 * sign, 5)
    m[a][b] = -m[b][a]
    return m


def signed_permutation(d, seed):
    """A seeded exact isometry (matrix, shift) of R^d, reflections allowed:
    a signed permutation matrix and an integer shift."""
    rng = random.Random(seed)
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(d)]
    matrix = [[signs[r] if perm[r] == c else 0 for c in range(d)] for r in range(d)]
    return matrix, [rng.randint(-10, 10) for _ in range(d)]


def dense_isometry(d, seed):
    """signed_permutation's matrix composed with one Givens rotation in every
    coordinate plane, and a rational shift: an exact isometry whose matrix
    part has no zero entry."""
    rng = random.Random(seed)
    q, _ = signed_permutation(d, seed)
    for a, b in itertools.combinations(range(d), 2):
        rot = givens(d, a, b, rng.choice((-1, 1)))
        q = [[sum(rot[r][t] * q[t][c] for t in range(d)) for c in range(d)] for r in range(d)]
    return q, [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(d)]


def image(x, isometry):
    """The configuration Q p + b, p in x, for isometry = (Q, b)."""
    matrix, shift = isometry
    return make_config([[sum(q * c for q, c in zip(row, p)) + b for row, b in zip(matrix, shift)]
                        for p in x.points])


def congruent(x, y):
    """Do all pairwise distances of x and y agree? Decided exactly by
    squared_distance_map on the complete graph."""
    g = complete_graph(x.n_points)
    return squared_distance_map(g, x) == squared_distance_map(g, y)


def float_matrix(g, x):
    """The rigidity matrix at x as a float array, (0, d*n) when g has no edge."""
    rows = oracles.rigidity_rows(g.edges, x)
    return np.array(rows, dtype=float).reshape(len(rows), x.d * x.n_points)


@st.composite
def small_frameworks(draw, kind):
    """A graph on 1..7 vertices with a configuration in R^2 or R^3 whose
    coordinates are ints or Fractions; "coincident" points come from a pool
    of two, so many edges join equal points."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(2, 3))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coord = {"int": st.integers(-3, 3),
             "fraction": st.fractions(-2, 2, max_denominator=4),
             "coincident": st.integers(-1, 1)}[kind]
    point = st.tuples(*[coord] * d)
    if kind == "coincident":
        point = st.sampled_from(draw(st.lists(point, min_size=2, max_size=2)))
    return make_graph(n, edges), make_config([draw(point) for _ in range(n)])


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(1, ((0,),))
        with pytest.raises(ValueError):
            Configuration(2, ())
        with pytest.raises(ValueError):
            Configuration(2, ((0, 0, 0),))
        with pytest.raises(ValueError):
            Configuration(2, ((0, "x"),))
        with pytest.raises(ValueError):
            Configuration(2, ((0, True),))
        for d in (2.9, "2", True):
            with pytest.raises(ValueError):
                Configuration(d, ((0, 0),))

    def test_exactness(self):
        assert make_config([(0, 0), (Fraction(1, 2), 3)]).points[1][0] == Fraction(1, 2)
        for bad in (0.5, 3.0, math.nan, math.inf, -math.inf, np.float64(1.0)):
            with pytest.raises(ValueError, match="ints or Fractions"):
                make_config([(0, 0), (bad, 3)])

    def test_as_numpy(self):
        # the float view of a configuration, Fraction coordinates included
        arr = np.array(make_config([(0, Fraction(1, 4)), (1, 2)]).points, dtype=float)
        assert arr.shape == (2, 2)
        assert arr.tolist() == [[0.0, 0.25], [1.0, 2.0]]

    def test_make_config_infers_dimension(self):
        x = make_config([(1, 2, 3), (4, 5, 6)])
        assert x.d == 3 and x.n_points == 2

    def test_make_config_refuses_no_points(self):
        with pytest.raises(ValueError, match="^configuration needs at least one point$"):
            make_config([])


class TestDistanceMaps:
    def test_k2_squared(self):
        x = make_config([(0, 0), (1, 2)])
        assert squared_distance_map(complete_graph(2), x) == [5]

    def test_unit_square_distances(self):
        assert squared_distance_map(complete_graph(4), UNIT_SQUARE) == [1, 2, 1, 1, 2, 1]

    def test_equivalent_frameworks_need_not_be_congruent(self):
        # the paper calls two G-frameworks equivalent when the distances of
        # G's edges agree; congruence asks that of every pair, i.e. of K_n
        x = make_config([(0, 0), (1, 0), (2, 0)])
        y = make_config([(0, 0), (1, 0), (1, 1)])
        g = path_graph(3)
        assert squared_distance_map(g, x) == squared_distance_map(g, y) == [1, 1]
        assert squared_distance_map(complete_graph(3), x) == [1, 4, 1]
        assert squared_distance_map(complete_graph(3), y) == [1, 2, 1]

    def test_exact_in_exact_out(self):
        x = make_config([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
        vals = squared_distance_map(complete_graph(2), x)
        assert vals == [Fraction(1, 4) + Fraction(1, 9)]
        assert isinstance(vals[0], Fraction)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="vertices"):
            squared_distance_map(complete_graph(3), UNIT_SQUARE)


class TestRigidityMatrix:
    def test_k2_frozen_row(self):
        x = make_config([(0, 0), (1, 0)])
        assert rigidity_rows(complete_graph(2).edges, x) == [(-2, 0, 2, 0)]

    def test_shape_and_edge_order(self):
        g = complete_graph(4)
        rows = rigidity_rows(g.edges, UNIT_SQUARE)
        assert len(rows) == 6
        assert all(len(row) == 8 for row in rows)
        # one row per edge, in the order the edges are given
        for edge, row in zip(g.edges, rows):
            assert {c: v for c, v in enumerate(row) if v} == rigidity_row(edge, UNIT_SQUARE)
        assert rigidity_rows(g.edges[::-1], UNIT_SQUARE) == rows[::-1]

    def test_blockwise_row_sums_vanish(self):
        rng = random.Random(5)
        for _ in range(20):
            d, n = rng.randint(2, 4), rng.randint(2, 6)
            g = complete_graph(n)
            x = random_exact_config(rng, d, n)
            for row in rigidity_rows(g.edges, x):
                for t in range(d):
                    assert sum(row[v * d + t] for v in range(n)) == 0

    def test_row_derivative_identity(self):
        # the row of edge (i, j) dotted with a velocity u is the first-order
        # change of the squared edge length along u, exactly:
        # |x_ij + h u_ij|^2 - |x_ij|^2 = h (row . u) + h^2 |u_ij|^2
        rng = random.Random(11)
        g = complete_graph(4)
        x = random_exact_config(rng, 2, 4)
        vel = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        h = Fraction(1, 7)
        moved = make_config([
            tuple(c + h * vel[2 * v + t] for t, c in enumerate(p))
            for v, p in enumerate(x.points)])
        before, after = squared_distance_map(g, x), squared_distance_map(g, moved)
        for (i, j), row, b, a in zip(g.edges, rigidity_rows(g.edges, x), before, after):
            du = [vel[2 * (i - 1) + t] - vel[2 * (j - 1) + t] for t in range(2)]
            first = sum(r * u for r, u in zip(row, vel))
            assert a - b == h * first + h ** 2 * sum(u * u for u in du)

    def test_exactness_tracks_input(self):
        edges = complete_graph(4).edges
        assert all(type(v) is int for row in rigidity_rows(edges, UNIT_SQUARE) for v in row)
        halves = make_config([(Fraction(1, 2), 0), (1, 0), (1, 1), (0, 1)])
        assert any(type(v) is Fraction for row in rigidity_rows(edges, halves) for v in row)


class TestInfinitesimalMotions:
    def test_kernel_dimension_general_position(self):
        rng = random.Random(23)
        for d in (2, 3):
            for k in range(d, 7):
                x = random_exact_config(rng, d, k + 1)
                if not is_general_position(x):
                    continue
                motions = infinitesimal_motions(complete_graph(k + 1), x)
                assert len(motions) == (d + 1) * d // 2

    def test_motions_annihilate_rows(self):
        x = make_config([(0, 0), (3, 1), (1, 4)])
        g = complete_graph(3)
        rows = oracles.rigidity_rows(g.edges, x)
        for motion in infinitesimal_motions(g, x):
            flat = [c for vel in motion for c in vel]
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, flat)) == 0

    def test_translations_always_present(self):
        # translation velocities satisfy every row identically, so the kernel
        # must contain them: adding them to the basis must not grow the rank
        rng = random.Random(31)
        x = random_exact_config(rng, 3, 5)
        g = complete_graph(5)
        motions = infinitesimal_motions(g, x)
        basis = [[c for vel in m for c in vel] for m in motions]
        for t in range(3):
            translation = [1 if i % 3 == t else 0 for i in range(15)]
            a = np.array(basis + [translation], dtype=float)
            assert np.linalg.matrix_rank(a, rtol=1e-9) == len(basis)

    def test_edgeless_graph_full_kernel(self):
        # no row at all: the basis is the Fraction identity at any points
        g = make_graph(3, [])
        identity = [tuple(tuple(Fraction(int(v * 2 + t == k)) for t in range(2))
                          for v in range(3)) for k in range(6)]
        half = Fraction(1, 2)
        for points in ([(0, 0), (1, 0), (0, 1)], [(0, half), (3 * half, 0), (half / 2, 1)]):
            motions = infinitesimal_motions(g, make_config(points))
            assert motions == identity
            assert all(type(c) is Fraction for m in motions for vel in m for c in vel)

    def test_path_has_extra_motion(self):
        x = make_config([(0, 0), (1, 0), (1, 1)])
        assert len(infinitesimal_motions(path_graph(3), x)) == 4

    @staticmethod
    def reference_motions(g, x):
        d = x.d
        return [tuple(vec[v * d:(v + 1) * d] for v in range(x.n_points))
                for vec in oracles.gauss_jordan_kernel(oracles.rigidity_rows(g.edges, x),
                                                       d * x.n_points)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_complete_graphs_match_reference(self, d):
        rng = random.Random(40 + d)
        for n in range(2, 13):
            x = random_exact_config(rng, d, n)
            g = complete_graph(n)
            assert infinitesimal_motions(g, x) == self.reference_motions(g, x)

    @pytest.mark.parametrize("points", [
        [(0, 0), (1, 0), (2, 0), (0, 1)],  # three collinear points
        [(Fraction(1, 2), 0), (1, Fraction(2, 3)), (Fraction(-3, 4), Fraction(5, 7)),
         (0, Fraction(1, 3))],
    ])
    def test_special_configurations_match_reference(self, points):
        g, x = complete_graph(4), make_config(points)
        assert infinitesimal_motions(g, x) == self.reference_motions(g, x)

    @pytest.mark.parametrize("kind", ["int", "fraction", "coincident"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exact_frameworks_match_reference(self, kind, data):
        g, x = data.draw(small_frameworks(kind))
        assert infinitesimal_motions(g, x) == self.reference_motions(g, x)

    def test_float_route_matches_exact_dimension(self):
        # numpy's SVD rank of the float matrix is the independent reference
        # for the dimension of the exact kernel, and the exact basis
        # annihilates the float matrix too
        g = complete_graph(4)
        motions = infinitesimal_motions(g, UNIT_SQUARE)
        mat = float_matrix(g, UNIT_SQUARE)
        assert len(motions) == 8 - np.linalg.matrix_rank(mat, rtol=1e-9) == 3
        for m in motions:
            flat = np.array([c for vel in m for c in vel], dtype=float)
            assert np.allclose(mat @ flat, 0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_float_frameworks_annihilate_rows(self, data):
        # the kernel dimension matches numpy's SVD rank of the float matrix,
        # and every basis vector annihilates every exact row
        g, x = data.draw(small_frameworks(data.draw(st.sampled_from(
            ["int", "fraction", "coincident"]))))
        motions = infinitesimal_motions(g, x)
        assert len(motions) == x.d * x.n_points - np.linalg.matrix_rank(
            float_matrix(g, x), rtol=1e-9)
        rows = oracles.rigidity_rows(g.edges, x)
        for m in motions:
            flat = [c for vel in m for c in vel]
            assert all(sum(a * b for a, b in zip(row, flat)) == 0 for row in rows)


class TestCongruence:
    def test_translation(self):
        x = make_config([(0, 0), (1, 0), (0, 1)])
        y = make_config([(5, 7), (6, 7), (5, 8)])
        assert congruent(x, y)

    def test_reflection(self):
        x = make_config([(0, 0), (1, 0), (0, 1)])
        y = make_config([(0, 0), (-1, 0), (0, 1)])
        assert congruent(x, y)

    def test_scaling_is_not_congruence(self):
        x = make_config([(0, 0), (1, 0)])
        y = make_config([(0, 0), (2, 0)])
        assert not congruent(x, y)

    def test_exact_route_catches_tiny_differences(self):
        x = make_config([(0, 0), (Fraction(10 ** 12), 0)])
        y = make_config([(0, 0), (Fraction(10 ** 12) + 1, 0)])
        assert not congruent(x, y)

    def test_equivalence_relation(self):
        rng = random.Random(47)
        for _ in range(10):
            x = random_exact_config(rng, 2, 4)
            y = image(x, signed_permutation(2, rng.randrange(2 ** 30)))
            z = image(y, dense_isometry(2, rng.randrange(2 ** 30)))
            assert congruent(x, x)
            assert congruent(x, y) and congruent(y, x)
            assert congruent(x, z)


class TestGeneralPosition:
    def test_collinear_rejected(self):
        assert not is_general_position(make_config([(0, 0), (1, 1), (2, 2)]))

    def test_unit_square_accepted(self):
        assert is_general_position(UNIT_SQUARE)

    def test_duplicate_point_rejected(self):
        assert not is_general_position(make_config([(0, 0), (0, 0), (1, 0)]))

    def test_coplanar_in_r3(self):
        flat = make_config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert not is_general_position(flat)
        lifted = make_config([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
        assert is_general_position(lifted)

    def test_fewer_points_than_d(self):
        # with n <= d+1 the only failure mode is a degenerate subset itself;
        # any two distinct points are affinely independent
        assert is_general_position(make_config([(0, 0, 0), (1, 2, 3)]))
        assert is_general_position(make_config([(1, 2, 3), (2, 4, 6)]))
        assert not is_general_position(make_config([(1, 2, 3), (1, 2, 3)]))

    def test_float_rejected(self):
        # refused already when the configuration is built
        with pytest.raises(ValueError, match="ints or Fractions"):
            is_general_position(make_config([(0.0, 0.0), (1.0, 0.0)]))

    def test_random_integer_configs_generic(self):
        rng = random.Random(61)
        hits = sum(
            is_general_position(random_exact_config(rng, 2, 5)) for _ in range(20))
        assert hits >= 19


class TestIsometries:
    def test_exact_isometry_preserves_squared_distances(self):
        rng = random.Random(77)
        g = complete_graph(5)
        for seed in range(10):
            x = random_exact_config(rng, 3, 5)
            y = image(x, signed_permutation(3, seed))
            assert all(type(c) is int for p in y.points for c in p)
            assert squared_distance_map(g, x) == squared_distance_map(g, y)

    def test_dense_isometry_preserves_distances(self):
        rng = random.Random(88)
        g = complete_graph(4)
        for seed in range(5):
            x = random_exact_config(rng, 3, 4)
            y = image(x, dense_isometry(3, seed))
            assert squared_distance_map(g, x) == squared_distance_map(g, y)

    def test_orthogonal_matrix_parts(self):
        for d, seed in itertools.product((2, 3, 4), range(5)):
            for q, _ in (signed_permutation(d, seed), dense_isometry(d, seed)):
                assert all(sum(q[i][t] * q[j][t] for t in range(d)) == (i == j)
                           for i in range(d) for j in range(d))
                assert abs(round(np.linalg.det(np.array(q, dtype=float)))) == 1
            assert all(v for row in dense_isometry(d, seed)[0] for v in row)
            perm, shift = signed_permutation(d, seed)
            assert sorted(abs(v) for row in perm for v in row) == [0] * (d * d - d) + [1] * d
            assert all(type(v) is int for v in shift)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_rank_invariant_under_exact_isometry(self, config_seed, iso_seed):
        rng = random.Random(config_seed)
        x = random_exact_config(rng, 2, 4)
        g = complete_graph(4)
        rank_x = np.linalg.matrix_rank(float_matrix(g, x), rtol=1e-9)
        for iso in (signed_permutation(2, iso_seed), dense_isometry(2, iso_seed)):
            y = image(x, iso)
            assert np.linalg.matrix_rank(float_matrix(g, y), rtol=1e-9) == rank_x
            assert len(infinitesimal_motions(g, y)) == len(infinitesimal_motions(g, x))


class TestConfigJson:
    @pytest.mark.parametrize("text", [
        '{"d": 2, "points": [[NaN, 0], [1, Infinity], [0, 1]]}',
        '{"d": 2, "points": [[0, -Infinity]]}',
        '{"d": 2, "points": [[0.5, 0]]}',
        '{"d": 2, "points": [[1.0, 0]]}',
        '{"d": 2, "points": [[0, "nan"]]}',
        '{"d": 2, "points": [[0, "inf"]]}',
    ])
    def test_float_coordinates_refused(self, text):
        # Python's json reads NaN and Infinity as floats; no float is exact
        with pytest.raises(ValueError, match="ints or Fractions"):
            make_config(json.loads(text)["points"])
