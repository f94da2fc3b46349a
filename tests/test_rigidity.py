import itertools
import json
import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from rigidset.frameworks import make_config, rigidity_row, rigidity_rows
from rigidset import rigidity, thresholds
from rigidset.graphs import (
    MAX_VERTICES,
    complete_graph,
    double_banana,
    make_graph,
    path_graph,
    star_graph,
)
from rigidset.linalg import RowSpace, _is_prime
from rigidset.rigidity import (
    COORDINATE_BOUND,
    MODULUS_LOW,
    DependentEdgeSetError,
    exact_rank,
    generic_rank,
    is_framework_inf_rigid,
    is_generically_rigid,
    is_independent,
    is_minimally_rigid,
    max_independent_subset,
    minimal_rigid_completion,
    required_edge_count,
    sample_generic_config,
    _witness_modulus,
)

UNIT_SQUARE = make_config([(0, 0), (1, 0), (1, 1), (0, 1)])


@st.composite
def small_graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if not pairs:
        return make_graph(n, [])
    # the density is drawn first, so sparse, dense and complete graphs all occur
    density = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [e for e, u in zip(pairs, keep) if u < density])


class TestSampleGenericConfig:
    def test_deterministic(self):
        assert sample_generic_config(3, 5, 42) == sample_generic_config(3, 5, 42)
        assert sample_generic_config(3, 5, 42) != sample_generic_config(3, 5, 43)

    def test_shape_and_bounds(self):
        x = sample_generic_config(4, 6, 0)
        assert x.d == 4 and x.n_points == 6
        assert all(type(c) is int for p in x.points for c in p)
        assert all(abs(c) <= COORDINATE_BOUND for p in x.points for c in p)


class TestWitnessSize:
    def test_cap_admits_every_plane_graph(self):
        # plane calls draw no witness; the cap admits every loadable graph up
        # to d = 10
        assert rigidity.MAX_WITNESS_COORDINATES >= 10 * MAX_VERTICES

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(rigidity, "MAX_WITNESS_COORDINATES", 12)
        assert sample_generic_config(3, 4, 1).n_points == 4
        assert sample_generic_config(2, 6, 1).n_points == 6
        with pytest.raises(ValueError, match="at most 12"):
            sample_generic_config(2, 7, 1)
        with pytest.raises(ValueError, match="witness coordinates"):
            generic_rank(complete_graph(5), 3, 1)
        with pytest.raises(ValueError, match="witness coordinates"):
            minimal_rigid_completion(complete_graph(3), 5, 1)


class TestWitnessModulus:
    def test_prime_in_range_and_fixed_by_seed(self):
        drawn = [_witness_modulus(seed) for seed in range(-5, 60)]
        assert drawn == [_witness_modulus(seed) for seed in range(-5, 60)]
        for p in drawn + [_witness_modulus(2 ** 70)]:
            assert MODULUS_LOW <= p < 2 * MODULUS_LOW
            assert _is_prime(p)
        assert len(set(drawn)) == len(drawn)

    def test_schedule_label_keys_the_draw(self, monkeypatch):
        before = _witness_modulus(7)
        monkeypatch.setattr(rigidity, "MODULUS_SCHEDULE", "another-schedule")
        assert _witness_modulus(7) != before

    def test_one_draw_per_public_call(self, monkeypatch):
        calls, witnesses = [], []

        def counting(seed):
            calls.append(seed)
            return _witness_modulus(seed)

        def counting_witness(d, n_vertices, seed):
            witnesses.append(seed)
            return sample_generic_config(d, n_vertices, seed)

        monkeypatch.setattr(rigidity, "_witness_modulus", counting)
        monkeypatch.setattr(rigidity, "sample_generic_config", counting_witness)
        forest = make_graph(12, [(1, 2), (2, 3), (4, 5), (6, 7), (7, 8), (6, 8), (9, 10)])
        # plane calls run the pebble game: no witness and no prime, even
        # where the rank stays below the cap. In R^3, K5 reaches min(10, 9) = 9 and
        # the path min(4, 9) = 4 at their first witness, so no more are
        # drawn; the double banana's rank 17 stays below min(18, 18), so all
        # five are
        for call, primes, n_witnesses in (
                (lambda: thresholds.analyze(forest, 2, 3), [], 0),
                (lambda: generic_rank(double_banana(), 2, 3), [], 0),
                (lambda: generic_rank(path_graph(5), 2, 3), [], 0),
                (lambda: is_independent(complete_graph(4), complete_graph(4).edges, 2, 3), [], 0),
                (lambda: max_independent_subset(complete_graph(5), 2, 3), [], 0),
                (lambda: minimal_rigid_completion(path_graph(5), 2, 3), [], 0),
                (lambda: generic_rank(complete_graph(5), 3, 3), [3], 1),
                (lambda: generic_rank(path_graph(5), 3, 3), [3], 1),
                (lambda: generic_rank(double_banana(), 3, 3), [3], 5),
                (lambda: max_independent_subset(complete_graph(5), 3, 3), [3], 1),
                (lambda: minimal_rigid_completion(path_graph(5), 3, 3), [3], 1)):
            calls.clear()
            witnesses.clear()
            call()
            assert calls == primes
            assert len(witnesses) == n_witnesses

    def test_plane_calls_need_no_witness_or_prime(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a plane call drew a witness or a prime")

        monkeypatch.setattr(rigidity, "sample_generic_config", refuse)
        monkeypatch.setattr(rigidity, "_witness_modulus", refuse)
        k4, path = complete_graph(4), path_graph(5)
        assert thresholds.analyze(k4, 2, 3).generic_rank == 5
        assert generic_rank(k4, 2, 3)[0] == 5
        assert is_independent(k4, k4.edges[:5], 2, 3)
        assert max_independent_subset(k4, 2, 3).rank == 5
        assert minimal_rigid_completion(path, 2, 3).n_edges == 7
        assert is_generically_rigid(k4, 2, 3)
        assert not is_minimally_rigid(k4, 2, 3)


class TestExactRank:
    def test_k4_unit_square(self):
        assert exact_rank(rigidity_rows(complete_graph(4).edges, UNIT_SQUARE)) == 5

    def test_collinear_triangle_drops_rank(self):
        x = make_config([(0, 0), (1, 0), (2, 0)])
        assert exact_rank(rigidity_rows(complete_graph(3).edges, x)) == 2

    def test_row_iterable_accepted(self):
        assert exact_rank([(1, 0), (0, 1)]) == 2
        assert exact_rank([]) == 0

    def test_sparse_rows_refused(self):
        # tuple() of a {column: value} row keeps only its keys, which gave
        # rank 1 here; the true rank is 2
        for rows in ([{0: 1}, {1: 2}], [(1, 0), {1: 2}]):
            with pytest.raises(ValueError, match="RowSpace or exact_rank_int"):
                exact_rank(rows)

    def test_float_matrix_rejected(self):
        # K2's row at (0, 0), (1, 0), in floats
        floaty = [(-2.0, 0.0, 2.0, 0.0)]
        with pytest.raises(ValueError, match="exact"):
            exact_rank(floaty)
        with pytest.raises(ValueError, match="exact"):
            exact_rank(floaty, _witness_modulus(1))

    def test_modulus_rank_bounded_by_rational_rank(self):
        mat = rigidity_rows(complete_graph(4).edges, UNIT_SQUARE)
        for p in (2, 3, 5, 7):
            assert exact_rank(mat, p) <= 5
        assert exact_rank(mat, _witness_modulus(4)) == 5

    def test_agrees_with_float_svd(self):
        # dual route: the exact rank and the SVD rank must coincide
        # at the same witness
        rng = random.Random(17)
        for _ in range(20):
            g = oracles.random_graph(rng, rng.randint(2, 6), 0.7)
            x = sample_generic_config(2, g.n_vertices, rng.randrange(2 ** 32))
            rows = rigidity_rows(g.edges, x)
            a = np.array(rows, dtype=float).reshape(len(rows), 2 * g.n_vertices)
            assert exact_rank(rows) == np.linalg.matrix_rank(a, rtol=1e-9)


class TestRigidityRow:
    def test_nonzeros_of_dense_row(self):
        configs = [
            sample_generic_config(3, 5, 4),
            # vertices 1 and 2 coincide; 1 and 3 share their first coordinate
            make_config([(0, 0), (0, 0), (0, 5), (Fraction(1, 2), -3)]),
        ]
        for x in configs:
            for edge in itertools.combinations(range(1, x.n_points + 1), 2):
                dense = oracles.rigidity_rows([edge], x)[0]
                assert rigidity_row(edge, x) == {c: v for c, v in enumerate(dense) if v}
        coincident = configs[1]
        assert rigidity_row((1, 2), coincident) == {}
        assert rigidity_row((1, 3), coincident) == {1: -10, 5: 10}


class TestGenericRank:
    def test_k4_plane(self):
        rank, cert = generic_rank(complete_graph(4), 2, seed=7)
        assert rank == 5
        assert cert.agreed_rank == 5
        assert cert.seed == 7
        assert cert.samples == 5

    def test_double_banana(self):
        rank, _ = generic_rank(double_banana(), 3, seed=7)
        assert rank == 17

    def test_trees_are_independent(self):
        for n in range(2, 8):
            rank, _ = generic_rank(path_graph(n), 2, seed=1)
            assert rank == n - 1
            rank3, _ = generic_rank(star_graph(n), 3, seed=1)
            assert rank3 == n - 1

    def test_complete_graphs_small(self):
        for d in (2, 3, 4):
            for q in range(1, d + 1):
                rank, _ = generic_rank(complete_graph(q + 1), d, seed=3)
                assert rank == q * (q + 1) // 2

    def test_matches_laman_oracle(self):
        rng = random.Random(2718)
        for _ in range(30):
            g = oracles.random_graph(rng, rng.randint(2, 7), rng.uniform(0.3, 0.9))
            rank, _ = generic_rank(g, 2, seed=rng.randrange(2 ** 32))
            assert rank == oracles.laman_rank(g)

    def test_deterministic_per_seed(self):
        g = double_banana()
        assert generic_rank(g, 3, seed=5) == generic_rank(g, 3, seed=5)

    def test_monotone_under_subgraphs(self):
        g = complete_graph(5)
        full, _ = generic_rank(g, 2, seed=9)
        sub = make_graph(5, g.edges[:6])
        partial, _ = generic_rank(sub, 2, seed=9)
        assert partial <= full

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            generic_rank(complete_graph(3), 2, seed=0, samples=0)

    @pytest.mark.parametrize("samples", [True, False, 2.5, 3.0, "3", None])
    def test_samples_must_be_an_int(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            generic_rank(complete_graph(3), 2, seed=0, samples=samples)

    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_every_rank_call_refuses_small_d(self, d):
        g = complete_graph(3)
        for call in (lambda: thresholds.analyze(g, d, 1),
                     lambda: generic_rank(g, d, 1),
                     lambda: is_independent(g, g.edges, d, 1),
                     lambda: max_independent_subset(g, d, 1),
                     lambda: minimal_rigid_completion(g, d, 1),
                     lambda: is_generically_rigid(g, d, 1)):
            with pytest.raises(ValueError, match=r"^d must be >= 2$"):
                call()

    @pytest.mark.parametrize("d", [2.0, 3.5, True])
    def test_d_must_be_an_int(self, d):
        with pytest.raises(ValueError, match="d must be an integer"):
            generic_rank(complete_graph(3), d, 1)

    @pytest.mark.parametrize("d,message", [
        (1, r"^d must be >= 2$"), (0, r"^d must be >= 2$"), (-3, r"^d must be >= 2$"),
        (True, "d must be an integer"), (2.0, "d must be an integer")])
    def test_empty_subset_checks_d(self, d, message):
        # an empty subset is independent without a rank call, but d is
        # still checked first
        with pytest.raises(ValueError, match=message):
            is_independent(complete_graph(3), [], d, 1)


class TestRequiredEdgeCount:
    @pytest.mark.parametrize("d,n,want", [
        (2, 2, 1), (2, 3, 3), (2, 4, 5), (2, 5, 7), (2, 9, 15),
        (3, 2, 1), (3, 3, 3), (3, 4, 6), (3, 8, 18),
        (4, 5, 10), (4, 9, 26), (1, 5, 4),
    ])
    def test_table(self, d, n, want):
        assert required_edge_count(d, n) == want

    def test_formulas_agree_at_boundary(self):
        for d in range(1, 6):
            n = d + 1
            assert required_edge_count(d, n) == n * (n - 1) // 2 == d * n - (d + 1) * d // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            required_edge_count(0, 3)
        with pytest.raises(ValueError):
            required_edge_count(2, 0)


class TestIsIndependent:
    def test_k4_subsets(self):
        g = complete_graph(4)
        assert is_independent(g, g.edges[:5], 2, seed=1)
        assert not is_independent(g, g.edges, 2, seed=1)
        assert is_independent(g, [], 2, seed=1)

    def test_reversed_pairs_accepted(self):
        g = complete_graph(3)
        assert is_independent(g, [(2, 1), (3, 1)], 2, seed=1)

    def test_foreign_edge_rejected(self):
        with pytest.raises(ValueError, match="not in the graph"):
            is_independent(path_graph(4), [(1, 4)], 2, seed=1)

    def test_matches_sparsity_oracle(self):
        rng = random.Random(55)
        for _ in range(25):
            g = oracles.random_graph(rng, rng.randint(2, 6), 0.8)
            if not g.n_edges:
                continue
            subset = [e for e in g.edges if rng.random() < 0.7]
            got = is_independent(g, subset, 2, seed=rng.randrange(2 ** 32))
            assert got == oracles.laman_sparse(g.n_vertices, subset)


class TestMaxIndependentSubset:
    def test_k4_lex_basis(self):
        basis = max_independent_subset(complete_graph(4), 2, seed=7)
        assert basis.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))
        assert basis.rank == 5
        assert basis.seed == 7
        witness = sample_generic_config(2, 4, basis.seed)
        assert all(type(c) is int for p in witness.points for c in p)

    def test_banana_drops_one_edge(self):
        basis = max_independent_subset(double_banana(), 3, seed=7)
        assert basis.rank == 17
        assert len(basis.edges) == 17
        assert set(basis.edges) < set(double_banana().edges)

    def test_rank_equals_generic_rank(self):
        rng = random.Random(303)
        for _ in range(15):
            g = oracles.random_graph(rng, rng.randint(2, 7), 0.6)
            seed = rng.randrange(2 ** 32)
            assert max_independent_subset(g, 2, seed).rank == generic_rank(g, 2, seed)[0]

    def test_scan_order_changes_nothing_in_size(self):
        # the same greedy scan at the basis's witness and prime, in a
        # shuffled order, keeps as many edges
        g = double_banana()
        basis = max_independent_subset(g, 3, seed=11)
        rng = random.Random(4)
        for _ in range(5):
            order = list(g.edges)
            rng.shuffle(order)
            space = RowSpace(3 * g.n_vertices, _witness_modulus(11))
            witness = sample_generic_config(3, g.n_vertices, basis.seed)
            kept = rigidity._scan(space, order, witness, required_edge_count(3, 8))
            assert len(kept) == basis.rank

    @pytest.mark.parametrize("d, modulus", [(2, 3), (2, 5), (3, 3), (3, 7)])
    def test_small_modulus_keeps_only_independent_edges(self, monkeypatch, d, modulus):
        # a tiny prime divides many minors, so the basis may shrink, but what
        # it keeps is independent over Q at the witness
        rng = random.Random(90 + d + modulus)
        for _ in range(4):
            n = rng.randint(5, 9)
            g = make_graph(n, oracles.henneberg_laman(rng, n).edges)
            seed = rng.randrange(2 ** 32)
            reference = max_independent_subset(g, d, seed).rank
            with monkeypatch.context() as patch:
                patch.setattr(rigidity, "_witness_modulus", lambda _seed: modulus)
                basis = max_independent_subset(g, d, seed)
            rows = oracles.rigidity_rows(basis.edges, sample_generic_config(d, n, basis.seed))
            assert oracles.fraction_rank(rows, d * n) == basis.rank == len(basis.edges)
            assert basis.rank <= reference

    def test_json_serializable(self):
        basis = max_independent_subset(complete_graph(3), 2, seed=2)
        doc = json.loads(basis.to_json())
        assert doc["rank"] == 3
        assert len(doc["edges"]) == 3
        assert doc["seed"] == 2 and set(doc) == {"edges", "rank", "seed"}
        assert sample_generic_config(2, 3, doc["seed"]).d == 2

    def test_certificate_json(self):
        _, cert = generic_rank(complete_graph(3), 2, seed=2)
        doc = json.loads(cert.to_json())
        assert doc == {"seed": 2, "samples": 5, "agreed_rank": 3}


class TestGreedyAgainstFractionReference:
    """The library's greedy scans run mod the prime drawn from the seed; the
    reference decides every edge over Q at the same witness."""

    @pytest.mark.parametrize("d, sizes", [(2, (5, 8, 11)), (3, (5, 8))])
    def test_dropped_henneberg_graphs(self, d, sizes):
        rng = random.Random(4000 + d)
        for n in sizes:
            g = oracles.henneberg_laman(rng, n)
            dropped = make_graph(n, rng.sample(g.edges, g.n_edges - g.n_edges // 4))
            seed = rng.randrange(2 ** 32)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            # extra pairs make the scan meet dependent edges
            padded = make_graph(n, list(dropped.edges) + rng.sample(pairs, n))
            for graph in (dropped, padded):
                basis = max_independent_subset(graph, d, seed)
                assert list(basis.edges) == oracles.reference_greedy(n, d, seed, [], graph.edges)
            present = set(dropped.edges)
            added = oracles.reference_greedy(n, d, seed, dropped.edges,
                                             [e for e in pairs if e not in present])
            done = minimal_rigid_completion(dropped, d, seed)
            assert done == make_graph(n, list(dropped.edges) + added)
            assert done.n_edges == required_edge_count(d, n)


class TestFrameworkRigidity:
    def test_triangle_rigid(self):
        x = make_config([(0, 0), (2, 0), (1, 3)])
        assert is_framework_inf_rigid(complete_graph(3), x)

    def test_path_flexible(self):
        x = make_config([(0, 0), (2, 0), (1, 3)])
        assert not is_framework_inf_rigid(path_graph(3), x)

    def test_braced_square_rigid_cycle_flexible(self):
        braced = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        cycle = make_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert is_framework_inf_rigid(braced, UNIT_SQUARE)
        assert not is_framework_inf_rigid(cycle, UNIT_SQUARE)

    def test_float_rejected(self):
        # refused already when the configuration is built
        with pytest.raises(ValueError, match="ints or Fractions"):
            is_framework_inf_rigid(complete_graph(3),
                                   make_config([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]))


class TestAgainstDenseRoute:
    """generic_rank and is_framework_inf_rigid run the greedy scan, which
    stops early; the oracles rank full dense matrices by plain elimination,
    mod p and over Q."""

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), d=st.integers(2, 4), samples=st.integers(1, 5),
           seed=st.integers(-2 ** 40, 2 ** 40))
    def test_generic_rank_and_predicates(self, g, d, samples, seed):
        rank, cert = generic_rank(g, d, seed, samples)
        assert (rank, cert.to_json()) == oracles.reference_generic_rank(g, d, seed, samples)
        full, _ = oracles.reference_generic_rank(g, d, seed)
        rigid = full == required_edge_count(d, g.n_vertices)
        assert is_generically_rigid(g, d, seed) == rigid
        assert is_minimally_rigid(g, d, seed) == (
            rigid and g.n_edges == required_edge_count(d, g.n_vertices))
        subset = g.edges[::2]
        sub_rank, _ = oracles.reference_generic_rank(make_graph(g.n_vertices, subset), d, seed)
        assert is_independent(g, subset, d, seed) == (sub_rank == len(subset))

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), d=st.integers(2, 4), samples=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32), modulus=st.sampled_from([2, 3, 5, 7]))
    def test_generic_rank_with_tiny_primes(self, g, d, samples, seed, modulus):
        # a tiny prime divides many minors, so witnesses often fall short and
        # the rank depends on which witnesses are drawn and where drawing
        # stops; in the plane no prime is drawn, so the rank stays exact
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rigidity, "_witness_modulus", lambda _seed: modulus)
            rank, cert = generic_rank(g, d, seed, samples)
        if d == 2:
            laman = oracles.laman_rank(g)
            want = (laman, json.dumps({"seed": seed, "samples": samples, "agreed_rank": laman},
                                      sort_keys=True))
        else:
            want = oracles.reference_generic_rank(g, d, seed, samples, modulus)
        assert (rank, cert.to_json()) == want

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_complete_graphs_and_banana(self, d):
        for n in range(2, 10):
            for samples in (1, 5):
                got = generic_rank(complete_graph(n), d, 7, samples)
                want = oracles.reference_generic_rank(complete_graph(n), d, 7, samples)
                assert (got[0], got[1].to_json()) == want
        for samples in range(1, 6):
            got = generic_rank(double_banana(), d, 3, samples)
            want = oracles.reference_generic_rank(double_banana(), d, 3, samples)
            assert (got[0], got[1].to_json()) == want

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), g=small_graphs(max_n=7), d=st.integers(2, 3))
    def test_inf_rigid_on_special_configurations(self, data, g, d):
        # coordinates in a tiny range make coincident and collinear points common
        coordinate = st.one_of(st.integers(-2, 2),
                               st.fractions(-2, 2, max_denominator=3))
        points = data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                                    min_size=g.n_vertices, max_size=g.n_vertices))
        x = make_config(points)
        assert is_framework_inf_rigid(g, x) == oracles.reference_inf_rigid(g, x)

    @pytest.mark.parametrize("points", [
        [(0, 0), (1, 0), (2, 0), (5, 0)],                  # collinear
        [(0, 0), (0, 0), (1, 2), (3, 1)],                  # two coincide
        [(1, 1)] * 4,                                      # all coincide
        [(Fraction(1, 2), 0), (0, Fraction(1, 3)), (1, 1), (Fraction(-2, 7), 5)],
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)],      # collinear in R^3
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],      # coplanar in R^3
    ])
    def test_inf_rigid_named_configurations(self, points):
        x = make_config(points)
        for g in (complete_graph(4), make_graph(4, complete_graph(4).edges[:5]),
                  path_graph(4), make_graph(4, [])):
            assert is_framework_inf_rigid(g, x) == oracles.reference_inf_rigid(g, x)

    def test_inf_rigid_count_mismatch_refused(self):
        for g, points in ((complete_graph(3), [(0, 0), (1, 0), (0, 1), (1, 1)]),
                          (complete_graph(4), [(0, 0), (1, 0), (0, 1)]),
                          (make_graph(1, []), [(0, 0), (1, 0)])):
            with pytest.raises(ValueError, match="vertices but configuration has"):
                is_framework_inf_rigid(g, make_config(points))


class TestGenericRigidity:
    def test_k4_rigid_not_minimal(self):
        g = complete_graph(4)
        assert is_generically_rigid(g, 2, seed=1)
        assert not is_minimally_rigid(g, 2, seed=1)

    def test_k4_minus_edge_minimal(self):
        g = make_graph(4, complete_graph(4).edges[:5])
        assert is_minimally_rigid(g, 2, seed=1)

    def test_double_banana_not_rigid_despite_count(self):
        g = double_banana()
        assert g.n_edges == required_edge_count(3, 8)
        assert not is_generically_rigid(g, 3, seed=1)
        assert not is_minimally_rigid(g, 3, seed=1)

    def test_k2_minimal_everywhere(self):
        for d in (2, 3, 4):
            assert is_minimally_rigid(complete_graph(2), d, seed=1)

    def test_path_not_rigid(self):
        assert not is_generically_rigid(path_graph(4), 2, seed=1)


class TestCompletion:
    def test_path4_frozen(self):
        got = minimal_rigid_completion(path_graph(4), 2, seed=7)
        assert got.edges == ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4))

    def test_empty_graph_frozen(self):
        got = minimal_rigid_completion(make_graph(5, []), 2, seed=7)
        assert got.edges == ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))

    def test_preserves_input_edges(self):
        rng = random.Random(911)
        for _ in range(15):
            n = rng.randint(2, 7)
            g = oracles.random_graph(rng, n, 0.25)
            seed = rng.randrange(2 ** 32)
            if not oracles.laman_sparse(n, g.edges):
                with pytest.raises(DependentEdgeSetError):
                    minimal_rigid_completion(g, 2, seed)
                continue
            done = minimal_rigid_completion(g, 2, seed)
            assert set(g.edges) <= set(done.edges)
            assert done.n_edges == required_edge_count(2, n)
            assert is_minimally_rigid(done, 2, seed=rng.randrange(2 ** 32))

    @pytest.mark.parametrize("d, n", [(2, n) for n in (1, 2, 3, 4, 7, 50, 500, 2000)]
                             + [(3, n) for n in range(1, 13)])
    def test_edgeless_completion_is_the_cone(self, d, n):
        # scanned in lexicographic order, the greedy completion joins each
        # vertex to vertices 1..d: the cone {(i, j) : i <= d, i < j}
        got = minimal_rigid_completion(make_graph(n, []), d, seed=n)
        assert set(got.edges) == {(i, j) for i in range(1, d + 1) for j in range(i + 1, n + 1)}
        assert got.n_edges == required_edge_count(d, n)

    def test_small_vertex_counts(self):
        assert minimal_rigid_completion(complete_graph(2), 3, seed=1) == complete_graph(2)
        assert minimal_rigid_completion(make_graph(3, []), 3, seed=1) == complete_graph(3)
        single = make_graph(1, [])
        assert minimal_rigid_completion(single, 2, seed=1) == single

    def test_k3_unchanged(self):
        assert minimal_rigid_completion(complete_graph(3), 2, seed=1) == complete_graph(3)

    def test_dependent_input_message(self):
        with pytest.raises(DependentEdgeSetError, match="dependent edges"):
            minimal_rigid_completion(double_banana(), 3, seed=7)
        with pytest.raises(DependentEdgeSetError, match="dependent edges"):
            minimal_rigid_completion(complete_graph(4), 2, seed=7)

    def test_completion_in_r3(self):
        got = minimal_rigid_completion(path_graph(5), 3, seed=7)
        assert got.n_edges == required_edge_count(3, 5)
        assert is_minimally_rigid(got, 3, seed=99)


class TestRelabelingInvariance:
    def test_rank_is_isomorphism_invariant(self):
        rng = random.Random(31337)
        for g in (complete_graph(4), double_banana(), path_graph(5)):
            d = 3 if g.n_vertices == 8 else 2
            base, _ = generic_rank(g, d, seed=5)
            for _ in range(5):
                perm = list(range(1, g.n_vertices + 1))
                rng.shuffle(perm)
                relabeled = make_graph(
                    g.n_vertices, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
                got, _ = generic_rank(relabeled, d, seed=rng.randrange(2 ** 32))
                assert got == base
