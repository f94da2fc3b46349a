import heapq
import importlib
import json
import os
import random
import sys
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidset import graphs
from rigidset.graphs import (
    Graph,
    complete_graph,
    double_banana,
    make_graph,
    path_graph,
    star_graph,
)
from rigidset.rigidity import max_independent_subset, required_edge_count
from rigidset.thresholds import (
    SMALL_REGIME_NOTE,
    analyze,
    natural_measure_exponent,
    necessary_exponent,
    predicted_distance_set_dimension,
    pruned_threshold,
    small_regime_threshold,
    sufficient_threshold,
)


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


class TestSufficientThreshold:
    @pytest.mark.parametrize("d,n,want", [
        (2, 4, Fraction(7, 4)),
        (2, 2, Fraction(3, 2)),
        (3, 8, Fraction(23, 8)),
        (3, 2, Fraction(5, 2)),
        (4, 10, Fraction(39, 10)),
    ])
    def test_frozen(self, d, n, want):
        assert sufficient_threshold(d, n) == want

    def test_exact_type(self):
        assert isinstance(sufficient_threshold(2, 3), Fraction)

    def test_validation(self):
        with pytest.raises(ValueError):
            sufficient_threshold(1, 4)
        with pytest.raises(ValueError):
            sufficient_threshold(2, 1)

    def test_approaches_d(self):
        values = [sufficient_threshold(2, n) for n in range(2, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2 for v in values)


class TestNecessaryExponent:
    @pytest.mark.parametrize("d,n,want", [
        (2, 4, Fraction(5, 3)),
        (2, 2, Fraction(1)),
        (3, 8, Fraction(18, 7)),
        (3, 4, Fraction(2)),
        (4, 3, Fraction(1)),
    ])
    def test_frozen(self, d, n, want):
        assert necessary_exponent(d, n) == want

    def test_always_below_sufficient(self):
        # C(d,2)/k > 1/(k+1) for every d >= 2, so the gap never closes
        for d in range(2, 7):
            for k in range(1, 51):
                assert necessary_exponent(d, k + 1) < sufficient_threshold(d, k + 1)

    def test_plane_comparison(self):
        # d=2: thresholds 2 - 1/(k+1) (sufficient) versus 2 - 1/k (necessary)
        for k in range(1, 51):
            assert sufficient_threshold(2, k + 1) == 2 - Fraction(1, k + 1)
            assert necessary_exponent(2, k + 1) == 2 - Fraction(1, k)


class TestNaturalMeasureExponent:
    @pytest.mark.parametrize("d,n,want", [
        (2, 2, Fraction(4, 3)),
        (2, 3, Fraction(8, 5)),
        (2, 4, Fraction(12, 7)),
        (3, 2, Fraction(11, 6)),
        (3, 3, Fraction(23, 10)),
        (3, 4, Fraction(35, 13)),
        (3, 6, Fraction(59, 21)),
        (4, 2, Fraction(7, 3)),
        (5, 2, Fraction(17, 6)),
        (4, 3, Fraction(31, 9)),
    ])
    def test_frozen(self, d, n, want):
        assert natural_measure_exponent(d, n) == want

    def test_plane_closed_form(self):
        for k in range(1, 51):
            assert natural_measure_exponent(2, k + 1) == Fraction(4 * k, 2 * k + 1)

    def test_below_ambient_dimension(self):
        for d in range(2, 6):
            for n in range(2, 12):
                assert natural_measure_exponent(d, n) < d

    def test_validation(self):
        with pytest.raises(ValueError):
            natural_measure_exponent(1, 3)
        with pytest.raises(ValueError):
            natural_measure_exponent(2, 1)


class TestSmallRegimeThreshold:
    @pytest.mark.parametrize("d,n,want", [
        (2, 2, Fraction(3, 2)),
        (2, 3, Fraction(5, 3)),
        (3, 4, Fraction(5, 2)),
        (5, 3, Fraction(11, 3)),
    ])
    def test_frozen(self, d, n, want):
        assert small_regime_threshold(d, n) == want

    def test_range_validation(self):
        with pytest.raises(ValueError):
            small_regime_threshold(2, 5)
        with pytest.raises(ValueError):
            small_regime_threshold(3, 1)

    def test_never_above_generic_sufficient(self):
        for d in range(2, 7):
            for n in range(2, d + 2):
                assert small_regime_threshold(d, n) <= sufficient_threshold(d, n)

    def test_note_mentions_the_formula(self):
        assert "(d*k+1)/(k+1)" in SMALL_REGIME_NOTE


class TestPrunedThreshold:
    def test_path5(self):
        # three removals leave K2: threshold 2 - 1/2
        assert pruned_threshold(path_graph(5), 2) == Fraction(3, 2)

    def test_star4(self):
        assert pruned_threshold(star_graph(4), 2) == Fraction(3, 2)

    def test_unprunable_equals_sufficient(self):
        g = double_banana()
        assert pruned_threshold(g, 3) == sufficient_threshold(3, 8)

    def test_always_at_most_sufficient(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(2, 9)
            edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                     if rng.random() < 0.5]
            g = make_graph(n, edges)
            if any(len(g.adjacency()[v]) == 0 for v in range(1, n + 1)):
                continue
            assert pruned_threshold(g, 2) <= sufficient_threshold(2, n)


class TestPredictedDimension:
    def test_k4(self):
        assert predicted_distance_set_dimension(complete_graph(4), 2, seed=7) == 5

    def test_disconnected_sum(self):
        two_triangles = make_graph(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        assert predicted_distance_set_dimension(two_triangles, 2, seed=7) == 6

    def test_isolated_vertices_contribute_nothing(self):
        g = make_graph(5, [(1, 2), (1, 3), (2, 3)])
        assert predicted_distance_set_dimension(g, 2, seed=7) == 3

    def test_double_banana(self):
        assert predicted_distance_set_dimension(double_banana(), 3, seed=7) == 17


class TestAnalyze:
    def test_k4_report(self):
        rep = analyze(complete_graph(4), 2, seed=7)
        assert rep.generic_rank == 5
        assert rep.predicted_distance_set_dimension == 5
        assert rep.is_generically_rigid
        assert not rep.is_minimally_rigid
        assert rep.sufficient_threshold == Fraction(7, 4)
        assert rep.natural_measure_exponent == Fraction(12, 7)
        assert rep.small_regime_threshold is None
        assert len(rep.components) == 1

    def test_k3_small_regime_present(self):
        rep = analyze(complete_graph(3), 2, seed=7)
        assert rep.small_regime_threshold == Fraction(5, 3)

    def test_double_banana_report(self):
        rep = analyze(double_banana(), 3, seed=7)
        assert rep.n_edges == 18
        assert rep.generic_rank == 17
        assert not rep.is_generically_rigid
        assert not rep.is_minimally_rigid
        assert rep.pruned_threshold == rep.sufficient_threshold == Fraction(23, 8)

    def test_disconnected_structure(self):
        g = make_graph(7, [(1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7)])
        rep = analyze(g, 2, seed=7)
        assert rep.generic_rank == 6
        assert [sub.vertices for sub in rep.components] == [(1, 2, 3), (4,), (5, 6, 7)]
        assert rep.generic_rank == sum(s.generic_rank for s in rep.components)
        assert not rep.is_generically_rigid

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("henneberg", "complete", "path", "isolated")),
                              st.integers(2, 7), st.sampled_from((None, "path", "star")),
                              st.integers(1, 4)), min_size=1, max_size=5),
           st.sampled_from((2, 3)), st.randoms(use_true_random=False),
           st.integers(0, 2 ** 32))
    def test_component_ranks_count_one_basis(self, pieces, d, rng, seed):
        # disjoint pieces of known generic rank, relabeled at random: a
        # Henneberg piece (each vertex joins two earlier ones) is independent
        # in d = 2 and 3, K_n has the maximal rank and a path is a tree. A
        # tail of t vertices (a path, or a star joined by its hub) hung on a
        # Henneberg or complete piece adds t edges, each of them independent
        # and each a leaf for the pruning.
        edges, expected, offset = [], [], 0
        for kind, n, tail, t in pieces:
            if kind == "isolated":
                n, local, rank = 1, [], 0
            elif kind == "henneberg":
                local = [(1, 2)]
                for v in range(3, n + 1):
                    local += [(a, v) for a in rng.sample(range(1, v), 2)]
                rank = len(local)
            elif kind == "complete":
                local, rank = list(complete_graph(n).edges), required_edge_count(d, n)
            else:
                local, rank = path_graph(n).edges, n - 1
            if tail is not None and kind in ("henneberg", "complete"):
                hub = n + 1
                local.append((rng.randint(1, n), hub))
                local += [(hub if tail == "star" else v - 1, v) for v in range(n + 2, n + t + 1)]
                n, rank = n + t, rank + t
            edges += [(offset + i, offset + j) for i, j in local]
            expected.append((range(offset + 1, offset + n + 1), rank))
            offset += n
        perm = list(range(1, offset + 1))
        rng.shuffle(perm)
        g = make_graph(offset, [(perm[i - 1], perm[j - 1]) for i, j in edges])
        report = analyze(g, d, seed)
        basis = max_independent_subset(g, d, seed)
        assert report.generic_rank == basis.rank
        for sub in report.components:
            inside = set(sub.vertices)
            assert sub.generic_rank == sum(1 for i, _ in basis.edges if i in inside)
        assert sorted((sub.vertices, sub.generic_rank) for sub in report.components) == \
            sorted((tuple(sorted(perm[v - 1] for v in verts)), rank) for verts, rank in expected)
        isolated = any(kind == "isolated" for kind, *_ in pieces)
        assert report.pruned_threshold == (None if isolated else pruned_threshold(g, d))
        comps = oracles.relabeled_components(g)
        assert [sub.vertices for sub in report.components] == \
            [tuple(sorted(relabel)) for _, relabel in comps]
        for sub, (comp, _) in zip(report.components, comps):
            n = comp.n_vertices
            want = None if n < 2 else d - Fraction(1, n - len(oracles.prune_rescan(comp)[0]))
            assert sub.pruned_threshold == want

    def test_single_vertex_component_fields(self):
        g = make_graph(4, [(1, 2), (1, 3), (2, 3)])
        rep = analyze(g, 2, seed=7)
        lonely = rep.components[1]
        assert lonely.n_vertices == 1
        assert lonely.sufficient_threshold is None
        assert lonely.pruned_threshold is None
        assert lonely.generic_rank == 0

    def test_isolated_vertex_blocks_top_level_pruning(self):
        g = make_graph(4, [(1, 2), (1, 3), (2, 3)])
        rep = analyze(g, 2, seed=7)
        assert rep.pruned_threshold is None
        assert rep.sufficient_threshold is not None

    def test_deterministic(self):
        g = double_banana()
        assert analyze(g, 3, seed=7) == analyze(g, 3, seed=7)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            analyze(complete_graph(3), 1, seed=7)

    def test_json_obj_shape(self):
        rep = analyze(complete_graph(3), 2, seed=7)
        obj = rep.to_json_obj()
        assert obj["sufficient_threshold"] == "5/3"
        assert obj["natural_measure_exponent"] == "8/5"
        assert obj["small_regime_note"] == SMALL_REGIME_NOTE
        assert obj["components"][0]["vertices"] == [1, 2, 3]
        json.dumps(obj)

    def test_json_obj_omits_absent_fields(self):
        rep = analyze(complete_graph(4), 2, seed=7)
        obj = rep.to_json_obj()
        assert obj["small_regime_threshold"] is None
        assert "small_regime_note" not in obj
        assert "vertices" not in obj


@st.composite
def forests_of_pieces(draw):
    """Disjoint unions of isolated vertices, K2s, stars, paths and
    Henneberg pieces (each new vertex joins two earlier ones; one extra
    edge may make the piece dependent), the last two with pendant trees,
    under a random relabeling."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("isolated", "k2", "star", "path", "henneberg")))
        if kind == "isolated":
            size, local = 1, []
        elif kind == "k2":
            size, local = 2, [(1, 2)]
        elif kind == "star":
            size = draw(st.integers(2, 7))
            local = [(1, j) for j in range(2, size + 1)]
        elif kind == "path":
            size = draw(st.integers(2, 5))
            local = [(v, v + 1) for v in range(1, size)]
        else:
            size, local = draw(st.integers(3, 7)), [(1, 2)]
            for v in range(3, size + 1):
                ends = draw(st.lists(st.integers(1, v - 1), min_size=2, max_size=2, unique=True))
                local += [(a, v) for a in ends]
            missing = [(i, j) for i in range(1, size) for j in range(i + 1, size + 1)
                       if (i, j) not in local]
            if missing and draw(st.booleans()):
                local.append(draw(st.sampled_from(missing)))
        if kind in ("path", "henneberg"):
            # pendant trees: each new vertex hangs off an earlier one
            for _ in range(draw(st.integers(0, 4))):
                size += 1
                local.append((draw(st.integers(1, size - 1)), size))
        edges += [(n + i, n + j) for i, j in local]
        n += size
    perm = draw(st.permutations(range(1, n + 1)))
    return make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in edges])


def check_one_pass(g, d, seed):
    """analyze's per-component vertices, edge counts, ranks and pruned
    thresholds against the oracle components, each ranked on its own and
    pruned by the rescan reference, and its top-level pruned threshold
    against the rescan of the whole graph."""
    report = analyze(g, d, seed)
    comps = oracles.relabeled_components(g)
    assert [sub.vertices for sub in report.components] == \
        [tuple(sorted(relabel)) for _, relabel in comps]
    for sub, (comp, _) in zip(report.components, comps):
        n = comp.n_vertices
        rank = (oracles.laman_rank(comp) if d == 2
                else oracles.reference_generic_rank(comp, d, seed)[0])
        assert (sub.n_vertices, sub.n_edges, sub.generic_rank) == (n, comp.n_edges, rank)
        want = None if n < 2 else d - Fraction(1, n - len(oracles.prune_rescan(comp)[0]))
        assert sub.pruned_threshold == want
    if any(comp.n_vertices == 1 for comp, _ in comps):
        assert report.pruned_threshold is None
    else:
        removed, _ = oracles.prune_rescan(g)
        assert report.pruned_threshold == d - Fraction(1, g.n_vertices - len(removed))


class TestOnePass:
    @settings(max_examples=60, deadline=None)
    @given(forests_of_pieces(), st.sampled_from((2, 3)), st.integers(0, 2 ** 32))
    def test_components_match_the_oracles(self, g, d, seed):
        check_one_pass(g, d, seed)

    @pytest.mark.parametrize("g", [complete_graph(2), star_graph(6)], ids=["k2", "star-6"])
    def test_check_fails_without_the_neighbour_rule(self, monkeypatch, g):
        # the leaf loop with its one rule dropped: a leaf goes even when its
        # neighbour is left without an edge (a popped vertex whose degree
        # already fell to 0 is skipped)
        def prune_any_leaf(adj):
            candidates = [v for v, nbrs in adj.items() if len(nbrs) == 1]
            heapq.heapify(candidates)
            removed = []
            while candidates:
                victim = heapq.heappop(candidates)
                if not adj[victim]:
                    continue
                nbr = next(iter(adj[victim]))
                adj[nbr].discard(victim)
                del adj[victim]
                removed.append(victim)
                if len(adj[nbr]) == 1:
                    heapq.heappush(candidates, nbr)
            return removed

        check_one_pass(g, 2, 1)
        monkeypatch.setattr(graphs, "_prune_leaves", prune_any_leaf)
        with pytest.raises(AssertionError):
            check_one_pass(g, 2, 1)


class TestNoGraphBuilt:
    """analyze and pruned_threshold read counts off one adjacency; they
    construct no Graph, per component or pruned."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        built = []
        original = Graph.__post_init__

        def counting(self):
            built.append(self.n_vertices)
            original(self)

        monkeypatch.setattr(Graph, "__post_init__", counting)
        return built

    @pytest.fixture(scope="class")
    def forest(self):
        sys.path.insert(0, PERFBENCH)
        try:
            inputs = importlib.import_module("inputs")
        finally:
            sys.path.remove(PERFBENCH)
        obj = inputs.forest(2000, 1)
        return make_graph(obj["vertices"], obj["edges"])

    def test_analyze_of_a_forest(self, forest, constructions):
        report = analyze(forest, 2, 1)
        assert len(report.components) == 2000
        assert constructions == []

    def test_pruned_threshold(self, forest, constructions):
        assert pruned_threshold(forest, 2) == analyze(forest, 2, 1).pruned_threshold
        assert constructions == []
