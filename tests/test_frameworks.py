import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidset.frameworks import (
    Configuration,
    Isometry,
    apply_isometry,
    config_from_json,
    config_to_json,
    distance_map,
    infinitesimal_motions,
    is_congruent,
    is_general_position,
    make_config,
    random_isometry,
    rigidity_row,
    rigidity_rows,
    squared_distance_map,
)
from rigidset.graphs import complete_graph, make_graph, path_graph
from test_linalg import gauss_jordan_kernel

UNIT_SQUARE = make_config([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_exact_config(rng, d, n):
    return make_config([tuple(rng.randint(-50, 50) for _ in range(d)) for _ in range(n)])


def random_float_config(rng, d, n):
    return make_config([tuple(rng.uniform(-2, 2) for _ in range(d)) for _ in range(n)])


def float_matrix(g, x):
    """The rigidity matrix at x as a float array, (0, d*n) when g has no edge."""
    rows = rigidity_rows(g.edges, x)
    return np.array(rows, dtype=float).reshape(len(rows), x.d * x.n_points)


@st.composite
def small_frameworks(draw, kind):
    """A graph on 1..7 vertices with a configuration in R^2 or R^3 whose
    coordinates are ints, Fractions or floats; "coincident" points come from
    a pool of two, so many edges join equal points."""
    n, d = draw(st.integers(1, 7)), draw(st.integers(2, 3))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coord = {"int": st.integers(-3, 3),
             "fraction": st.fractions(-2, 2, max_denominator=4),
             "coincident": st.integers(-1, 1),
             "float": st.integers(-10, 10).map(lambda k: k / 3)}[kind]
    point = st.tuples(*[coord] * d)
    if kind == "coincident" or (kind == "float" and draw(st.booleans())):
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

    def test_exactness(self):
        assert make_config([(0, 0), (Fraction(1, 2), 3)]).is_exact
        assert not make_config([(0, 0), (0.5, 3)]).is_exact

    def test_as_numpy(self):
        arr = UNIT_SQUARE.as_numpy()
        assert arr.shape == (4, 2)
        assert arr[2, 0] == 1.0

    def test_make_config_infers_dimension(self):
        x = make_config([(1, 2, 3), (4, 5, 6)])
        assert x.d == 3 and x.n_points == 2


class TestDistanceMaps:
    def test_k2_squared(self):
        x = make_config([(0, 0), (1, 2)])
        assert squared_distance_map(complete_graph(2), x) == [5]

    def test_unit_square_distances(self):
        got = distance_map(complete_graph(4), UNIT_SQUARE)
        want = [1, math.sqrt(2), 1, 1, math.sqrt(2), 1]
        assert got == pytest.approx(want, abs=1e-12)

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
        # the row of edge (i, j) dotted with a velocity equals the first-order
        # change of the squared edge length along that velocity
        rng = random.Random(11)
        g = complete_graph(4)
        x = random_float_config(rng, 2, 4)
        mat = float_matrix(g, x)
        vel = np.array([rng.uniform(-1, 1) for _ in range(8)])
        h = 1e-7
        moved = make_config([
            tuple(c + h * vel[2 * v + t] for t, c in enumerate(p))
            for v, p in enumerate(x.points)])
        numeric = (np.array(squared_distance_map(g, moved))
                   - np.array(squared_distance_map(g, x))) / h
        assert np.allclose(mat @ vel, numeric, atol=1e-5)

    def test_exactness_tracks_input(self):
        edges = complete_graph(4).edges
        assert all(type(v) is int for row in rigidity_rows(edges, UNIT_SQUARE) for v in row)
        floaty = make_config([(0.0, 0), (1, 0), (1, 1), (0, 1)])
        assert any(type(v) is float for row in rigidity_rows(edges, floaty) for v in row)


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
        rows = rigidity_rows(g.edges, x)
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

    def test_float_route_matches_exact_dimension(self):
        g = complete_graph(4)
        exact_dim = len(infinitesimal_motions(g, UNIT_SQUARE))
        floaty = make_config([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        motions = infinitesimal_motions(g, floaty)
        assert len(motions) == exact_dim == 3
        mat = float_matrix(g, floaty)
        for m in motions:
            flat = np.array([c for vel in m for c in vel])
            assert np.allclose(mat @ flat, 0, atol=1e-9)

    def test_edgeless_graph_full_kernel(self):
        # no row at all is an exact matrix, even at float points: the basis is
        # the Fraction identity
        g = make_graph(3, [])
        identity = [tuple(tuple(Fraction(int(v * 2 + t == k)) for t in range(2))
                          for v in range(3)) for k in range(6)]
        for points in ([(0, 0), (1, 0), (0, 1)], [(0.0, 0.5), (1.5, 0.0), (0.25, 1.0)]):
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
                for vec in gauss_jordan_kernel(rigidity_rows(g.edges, x), d * x.n_points)]

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

    @settings(max_examples=60, deadline=None)
    @given(small_frameworks("float"))
    def test_float_frameworks_annihilate_rows(self, framework):
        g, x = framework
        motions = infinitesimal_motions(g, x)
        rows = rigidity_rows(g.edges, x)
        if all(type(v) is int for row in rows for v in row):
            # only zero differences: the exact route
            assert motions == self.reference_motions(g, x)
            return
        mat = float_matrix(g, x)
        assert len(motions) == x.d * x.n_points - np.linalg.matrix_rank(mat, rtol=1e-9)
        for m in motions:
            assert all(type(c) is float for vel in m for c in vel)
            assert np.allclose(mat @ np.array([c for vel in m for c in vel]), 0, atol=1e-9)

    @pytest.mark.parametrize("g", [make_graph(3, [(1, 2)]), make_graph(3, [])])
    def test_float_zero_differences_take_exact_route(self, g):
        # zero differences are stored as int 0, so the matrix is exact and
        # the basis is the rational one, though the points are floats
        x = make_config([(0.5, 1.5), (0.5, 1.5), (2.0, 0.25)])
        motions = infinitesimal_motions(g, x)
        assert motions == self.reference_motions(g, x)
        assert len(motions) == 6
        assert all(type(c) is Fraction for m in motions for vel in m for c in vel)


class TestCongruence:
    def test_translation(self):
        x = make_config([(0, 0), (1, 0), (0, 1)])
        y = make_config([(5, 7), (6, 7), (5, 8)])
        assert is_congruent(x, y)

    def test_reflection(self):
        x = make_config([(0, 0), (1, 0), (0, 1)])
        y = make_config([(0, 0), (-1, 0), (0, 1)])
        assert is_congruent(x, y)

    def test_scaling_is_not_congruence(self):
        x = make_config([(0, 0), (1, 0)])
        y = make_config([(0, 0), (2, 0)])
        assert not is_congruent(x, y)

    def test_exact_route_catches_tiny_differences(self):
        x = make_config([(0, 0), (Fraction(10 ** 12), 0)])
        y = make_config([(0, 0), (Fraction(10 ** 12) + 1, 0)])
        assert not is_congruent(x, y)

    def test_float_tolerance(self):
        x = make_config([(0.0, 0.0), (1.0, 0.0)])
        y = make_config([(0.0, 0.0), (1.0 + 1e-12, 0.0)])
        assert is_congruent(x, y)
        z = make_config([(0.0, 0.0), (1.0 + 1e-6, 0.0)])
        assert not is_congruent(x, z)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            is_congruent(make_config([(0, 0)]), make_config([(0, 0, 0)]))
        with pytest.raises(ValueError):
            is_congruent(make_config([(0, 0)]), make_config([(0, 0), (1, 1)]))

    def test_equivalence_relation(self):
        rng = random.Random(47)
        for _ in range(10):
            x = random_exact_config(rng, 2, 4)
            y = apply_isometry(x, random_isometry(2, rng.randrange(2 ** 30), exact=True))
            z = apply_isometry(y, random_isometry(2, rng.randrange(2 ** 30), exact=True))
            assert is_congruent(x, x)
            assert is_congruent(x, y) and is_congruent(y, x)
            assert is_congruent(x, z)


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
        with pytest.raises(ValueError, match="exact"):
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
            iso = random_isometry(3, seed, exact=True)
            y = apply_isometry(x, iso)
            assert y.is_exact
            assert squared_distance_map(g, x) == squared_distance_map(g, y)

    def test_float_isometry_preserves_distances(self):
        rng = random.Random(88)
        g = complete_graph(4)
        x = random_float_config(rng, 3, 4)
        y = apply_isometry(x, random_isometry(3, 123))
        assert np.allclose(distance_map(g, x), distance_map(g, y), rtol=1e-9)

    def test_orthogonal_matrix_parts(self):
        for seed in range(5):
            iso = random_isometry(3, seed)
            q = np.array(iso.matrix)
            assert np.allclose(q @ q.T, np.eye(3), atol=1e-9)
            assert abs(abs(np.linalg.det(q)) - 1) < 1e-9

    def test_non_orthogonal_rejected(self):
        shear = Isometry(((1, 1), (0, 1)), (0, 0))
        with pytest.raises(ValueError, match="orthogonal"):
            apply_isometry(UNIT_SQUARE, shear)

    def test_shape_mismatch_rejected(self):
        iso3 = random_isometry(3, 0, exact=True)
        with pytest.raises(ValueError, match="shape"):
            apply_isometry(UNIT_SQUARE, iso3)

    def test_deterministic_per_seed(self):
        assert random_isometry(3, 42) == random_isometry(3, 42)
        assert random_isometry(3, 42, exact=True) == random_isometry(3, 42, exact=True)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_rank_invariant_under_exact_isometry(self, config_seed, iso_seed):
        rng = random.Random(config_seed)
        x = random_exact_config(rng, 2, 4)
        y = apply_isometry(x, random_isometry(2, iso_seed, exact=True))
        g = complete_graph(4)
        rank_x = np.linalg.matrix_rank(float_matrix(g, x), rtol=1e-9)
        rank_y = np.linalg.matrix_rank(float_matrix(g, y), rtol=1e-9)
        assert rank_x == rank_y


class TestConfigJson:
    def test_round_trip_exact(self):
        x = make_config([(Fraction(1, 3), -2), (7, Fraction(5))])
        y = config_from_json(config_to_json(x))
        assert y == x
        assert y.is_exact

    def test_round_trip_float(self):
        x = make_config([(0.25, -1.5), (3.0, 0.125)])
        assert config_from_json(config_to_json(x)) == x

    def test_whole_fractions_stored_as_ints(self):
        text = config_to_json(make_config([(Fraction(4, 2), Fraction(1, 2))]))
        assert '"points": [[2, "1/2"]]' in text

    def test_bad_documents(self):
        for text in [
            '{"d": 2}',
            '{"d": 2, "points": [[1, true]]}',
            '[]',
            '{"d": 2.9, "points": [[0, 0]]}',  # was truncated to d = 2
            '{"d": "2", "points": [[0, 0]]}',
            '{"d": true, "points": [[0, 0]]}',
            '{"d": 2, "points": 5}',
            '{"d": 2, "points": [5]}',
            '{"d": 2, "points": [[0, "1/0"]]}',
            '{"d": 2, "points": [[0, "x"]]}',
        ]:
            with pytest.raises(ValueError):
                config_from_json(text)
