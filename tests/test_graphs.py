import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bfs_components, prune_rescan, random_graph, relabeled_components

from rigidset import graphs
from rigidset.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    complete_graph,
    connected_components,
    double_banana,
    graph_from_json,
    graph_to_json,
    make_graph,
    named_graph,
    path_graph,
    prune_degree_one,
    star_graph,
)


@st.composite
def graphs_with_tails(draw):
    """Disjoint unions of small complete cores (one vertex up to K5) with
    pendant paths grown off the core or off earlier path vertices, under a
    random relabeling; a one-vertex core without paths is an isolated
    vertex."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 6))):
        core = draw(st.integers(1, 5))
        part = list(range(n + 1, n + core + 1))
        edges += [(a, b) for a in part for b in part if a < b]
        n += core
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.sampled_from(part))
            for _ in range(draw(st.integers(1, 4))):
                n += 1
                edges.append((at, n))
                part.append(n)
                at = n
    perm = draw(st.permutations(range(1, n + 1)))
    return make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in edges])


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(0, ())
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),))
        with pytest.raises(ValueError):
            Graph(3, ((2, 1),))
        with pytest.raises(ValueError):
            Graph(3, ((1, 3), (1, 2)))
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (1, 2)))

    def test_make_graph_canonicalizes(self):
        g = make_graph(4, [(3, 1), (1, 3), (2, 1), (4, 3)])
        assert g.edges == ((1, 2), (1, 3), (3, 4))
        with pytest.raises(ValueError):
            make_graph(3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            make_graph(3, [(2, 2)])

    @pytest.mark.parametrize("n, edges", [
        (3, [(1.9, 3)]),
        (2.7, [(1, 2)]),
        (3, [(True, 3)]),
        (True, []),
        (3.0, []),
        ("3", []),
        (3, [(1, "2")]),
        (3, [(np.float64(1.0), 2)]),
        (3, [(np.True_, 2)]),
    ])
    def test_non_integer_counts_and_labels_refused(self, n, edges):
        with pytest.raises(ValueError, match="must be an integer"):
            make_graph(n, edges)
        with pytest.raises(ValueError, match="must be an integer"):
            Graph(n, tuple(tuple(e) for e in edges))

    @pytest.mark.parametrize("n, edges, message", [
        (3, ((2, 2),), "self-loop at vertex 2"),
        (3, ((1, 4),), "edge (1,4) out of range for 3 vertices"),
        (0, ((1, 2),), "n_vertices must be a positive integer, got 0"),
    ])
    def test_make_graph_and_graph_refuse_alike(self, n, edges, message):
        for build in (make_graph, Graph):
            with pytest.raises(ValueError) as info:
                build(n, edges)
            assert str(info.value) == message

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1]),
                 max_size=30),
        st.lists(st.sampled_from([int, np.int64, np.int32, np.uint16]), min_size=1))))
    def test_make_graph_is_graph_of_canonical_set(self, case):
        n, pairs, kinds = case
        # every other pair again, reversed, and labels of mixed integer types
        listed = pairs + [(j, i) for i, j in pairs[::2]]
        listed = [(kinds[t % len(kinds)](i), kinds[(t + 1) % len(kinds)](j))
                  for t, (i, j) in enumerate(listed)]
        canon = {(min(i, j), max(i, j)) for i, j in pairs}
        assert make_graph(n, listed) == Graph(n, tuple(sorted(canon)))

    def test_numpy_ints_stored_as_python_ints(self):
        for g in (make_graph(np.int64(3), [(np.int32(3), np.int64(1))]),
                  Graph(np.int64(3), ((np.int64(1), np.int32(3)),))):
            assert g == Graph(3, ((1, 3),))
            assert type(g.n_vertices) is int
            assert all(type(v) is int for e in g.edges for v in e)
            assert graph_to_json(g) == '{"vertices": 3, "edges": [[1, 3]]}'

    def test_degree_and_neighbors(self):
        g = make_graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
        adj = g.adjacency()
        assert [len(adj[v]) for v in (1, 2, 3, 4)] == [2, 2, 3, 1]
        assert adj[3] == {1, 2, 4} and adj[4] == {3}
        assert g.n_edges == 4

    def test_bytes_entry_refused(self):
        # bytes unpack into ints: b"\x01\x02" would read as the edge (1, 2)
        for entry in (b"\x01\x02", bytearray(b"\x01\x02")):
            with pytest.raises(ValueError, match="not a vertex pair"):
                make_graph(3, [entry])

    def test_isolated_vertex_allowed(self):
        g = make_graph(3, [(1, 2)])
        assert g.adjacency()[3] == set()


class TestComponents:
    def test_matches_bfs_oracle(self):
        rng = random.Random(20240817)
        for _ in range(50):
            n = rng.randint(1, 12)
            g = random_graph(rng, n, rng.random())
            got = connected_components(g)
            want = bfs_components(n, g.edges)
            assert [sorted(relabel) for _, relabel in got] == want
            for comp, relabel in got:
                back = {local: orig for orig, local in relabel.items()}
                restored = {(min(back[i], back[j]), max(back[i], back[j]))
                            for i, j in comp.edges}
                members = set(relabel)
                assert restored == {e for e in g.edges if e[0] in members}

    def test_single_component(self):
        comps = connected_components(complete_graph(5))
        assert len(comps) == 1
        assert comps[0][0] == complete_graph(5)

    def test_isolated_vertices(self):
        g = make_graph(4, [(2, 3)])
        comps = connected_components(g)
        assert [sorted(r) for _, r in comps] == [[1], [2, 3], [4]]
        assert comps[1][0].edges == ((1, 2),)


    @settings(max_examples=150, deadline=None)
    @given(graphs_with_tails())
    def test_matches_rescan_reference(self, g):
        assert connected_components(g) == relabeled_components(g)


class TestPrune:
    def test_star4(self):
        trace = prune_degree_one(star_graph(4))
        assert trace.n == 2
        assert trace.removed_vertices == (2, 3)
        assert trace.remaining == complete_graph(2)

    def test_path5(self):
        trace = prune_degree_one(path_graph(5))
        assert trace.n == 3
        assert trace.remaining == complete_graph(2)

    def test_double_banana_unprunable(self):
        trace = prune_degree_one(double_banana())
        assert trace.n == 0
        assert trace.remaining == double_banana()

    def test_k2_untouched(self):
        trace = prune_degree_one(complete_graph(2))
        assert trace.n == 0

    def test_triangle_with_tail(self):
        g = make_graph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        trace = prune_degree_one(g)
        assert trace.removed_vertices == (5, 4)
        assert trace.remaining == complete_graph(3)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            prune_degree_one(make_graph(3, [(1, 2)]))

    def test_count_is_relabeling_invariant(self):
        # the pruned size is an isomorphism invariant, so shuffling labels
        # must not change how many vertices go
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, 0.4)
            if any(len(g.adjacency()[v]) == 0 for v in range(1, n + 1)):
                continue
            base = prune_degree_one(g).n
            for _ in range(4):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                relabeled = make_graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
                assert prune_degree_one(relabeled).n == base


    @settings(max_examples=150, deadline=None)
    @given(graphs_with_tails())
    def test_matches_rescan_reference(self, g):
        if any(len(g.adjacency()[v]) == 0 for v in range(1, g.n_vertices + 1)):
            with pytest.raises(ValueError, match="isolated"):
                prune_rescan(g)
            with pytest.raises(ValueError, match="isolated"):
                prune_degree_one(g)
            return
        trace = prune_degree_one(g)
        assert (trace.removed_vertices, trace.remaining) == prune_rescan(g)


class TestBuilders:
    def test_sizes(self):
        assert complete_graph(5).n_edges == 10
        assert path_graph(5).n_edges == 4
        assert star_graph(5).n_edges == 4
        for builder in (complete_graph, path_graph, star_graph):
            with pytest.raises(ValueError):
                builder(1)

    def test_double_banana_shape(self):
        g = double_banana()
        assert g.n_vertices == 8
        assert g.n_edges == 18
        assert (1, 2) not in g.edges
        adj = g.adjacency()
        degrees = [len(adj[v]) for v in range(1, 9)]
        assert degrees[0] == degrees[1] == 6
        assert degrees[2:] == [4] * 6


class TestJson:
    def test_round_trip(self):
        for g in (complete_graph(4), path_graph(3), double_banana(), make_graph(3, [])):
            assert graph_from_json(graph_to_json(g)) == g

    def test_reader_canonicalizes(self):
        g = graph_from_json('{"vertices": 3, "edges": [[3, 1], [1, 2], [2, 1]]}')
        assert g.edges == ((1, 2), (1, 3))

    @pytest.mark.parametrize("text", [
        "not json",
        "[1, 2]",
        '{"vertices": 3}',
        '{"edges": []}',
        '{"vertices": true, "edges": []}',
        '{"vertices": 2.0, "edges": []}',
        '{"vertices": 3, "edges": [[1, 2, 3]]}',
        '{"vertices": 3, "edges": [[1, true]]}',
        '{"vertices": 3, "edges": [[1, 1.5]]}',
        '{"vertices": 3, "edges": [[1, 4]]}',
        '{"vertices": 3, "edges": [[2, 2]]}',
        '{"vertices": 3, "edges": 7}',
        '{"vertices": 3, "edges": ["12"]}',
        '{"vertices": 3, "edges": [{"a": 1, "b": 2}]}',
        '{"vertices": "3", "edges": [[1, 2]]}',
    ])
    def test_bad_documents(self, text):
        with pytest.raises(GraphFormatError):
            graph_from_json(text)

    @pytest.mark.parametrize("entry", ["12", {"a": 1, "b": 2}])
    def test_unpackable_entry_named_whole(self, entry):
        # a string or a mapping unpacks into two items, but it is no pair
        with pytest.raises(GraphFormatError) as err:
            graph_from_json(json.dumps({"vertices": 3, "edges": [entry]}))
        assert str(err.value) == f"edge {entry!r} is not a vertex pair"

    def test_output_is_parseable(self):
        doc = json.loads(graph_to_json(double_banana()))
        assert doc["vertices"] == 8
        assert len(doc["edges"]) == 18

    def test_size_limits(self, monkeypatch):
        at_limit = graph_from_json(json.dumps({"vertices": MAX_VERTICES, "edges": [[1, 2]]}))
        assert at_limit.n_vertices == MAX_VERTICES
        with pytest.raises(GraphFormatError, match="vertices"):
            graph_from_json(json.dumps({"vertices": MAX_VERTICES + 1, "edges": []}))
        # listed edges count before duplicates are dropped; a small limit
        # keeps the document small
        monkeypatch.setattr(graphs, "MAX_EDGES", 2)
        assert graph_from_json('{"vertices": 3, "edges": [[1, 2], [2, 1]]}').n_edges == 1
        with pytest.raises(GraphFormatError, match="3 edges"):
            graph_from_json('{"vertices": 3, "edges": [[1, 2], [2, 1], [1, 2]]}')


class TestNamedGraph:
    def test_builtins(self):
        assert named_graph("k4") == complete_graph(4)
        assert named_graph("path-7") == path_graph(7)
        assert named_graph("star-3") == star_graph(3)
        assert named_graph("double-banana") == double_banana()

    @pytest.mark.parametrize("name", ["k", "K4", "path4", "banana", "graph.json", ""])
    def test_unknown_names(self, name):
        with pytest.raises(KeyError):
            named_graph(name)

    @pytest.mark.parametrize("name", ["k1", "k0", "path-1", "star-0"])
    def test_too_small_for_the_builder(self, name):
        with pytest.raises(GraphFormatError, match=f"graph '{name}': .* needs n >= 2"):
            named_graph(name)

    def test_size_limits(self):
        assert named_graph(f"path-{MAX_VERTICES}").n_vertices == MAX_VERTICES
        assert named_graph("k007") == complete_graph(7)
        for name in (f"star-{MAX_VERTICES + 1}", "k1415", "k" + "9" * 5000):
            with pytest.raises(GraphFormatError):
                named_graph(name)
