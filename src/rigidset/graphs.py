"""Simple undirected graphs with 1-indexed vertices and lexicographically
ordered edges, plus the generators and reductions the rigidity machinery
builds on."""

from __future__ import annotations

import heapq
import json
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass

# Largest graph accepted from a JSON file or a built-in name; anything larger
# is refused before memory proportional to its size is allocated.
MAX_VERTICES = 10 ** 5
MAX_EDGES = 10 ** 6


class GraphFormatError(ValueError):
    """Graph JSON does not match the expected schema."""


def _as_int(value, what: str, least: int | None = None) -> int:
    """value as a Python int; numpy ints pass, bools, floats and strings
    raise ValueError, and so does an int below `least`, when it is given.
    Every integer size the library takes is read through here."""
    if not isinstance(value, bool):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if least is not None and value < least:
                raise ValueError(f"{what} must be >= {least}")
            return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


# refusal messages print an integer up to this size in full (_int_text)
_INT_TEXT_LIMIT = 10 ** 30


def _int_text(n: int) -> str:
    """n as a refusal message prints it: in full up to _INT_TEXT_LIMIT in
    size, else as `an integer of N digits` (or `a negative integer of N
    digits`), so that an option of hundreds of digits does not fill the
    message, nor meet str's limit of 4300 digits."""
    size = abs(n)
    if size <= _INT_TEXT_LIMIT:
        return str(n)
    # a lower bound on the digit count, then exact
    digits = int(size.bit_length() * 0.30102999566398120)
    while size >= 10 ** digits:
        digits += 1
    return f"{'a negative' if n < 0 else 'an'} integer of {digits} digits"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 1..n_vertices.

    Edges are (i, j) pairs with i < j, stored strictly ascending in
    lexicographic order with no duplicates. Use make_graph to canonicalize
    arbitrary pair lists.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = _as_int(self.n_vertices, "n_vertices")
        if n < 1:
            raise ValueError(f"n_vertices must be a positive integer, got {n!r}")
        object.__setattr__(self, "n_vertices", n)
        edges = self.edges
        if not all(type(i) is int and type(j) is int for i, j in edges):
            # numpy ints and the like: store Python ints
            edges = tuple((_as_int(i, "vertex label"), _as_int(j, "vertex label"))
                          for i, j in edges)
            object.__setattr__(self, "edges", edges)
        prev = None
        for edge in edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not 1 <= i < j <= n:
                raise ValueError(f"edge ({i},{j}) out of range for {n} vertices")
            if prev is not None and edge <= prev:
                raise ValueError("edges must be strictly ascending; use make_graph to canonicalize")
            prev = edge

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n_vertices + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class PruneTrace:
    """Record of iterated degree-1 removals.

    removed_vertices holds original labels in removal order; remaining is the
    surviving graph relabeled to 1..n preserving vertex order.
    """

    removed_vertices: tuple[int, ...]
    remaining: Graph

    @property
    def n(self) -> int:
        return len(self.removed_vertices)


def make_graph(n_vertices: int, edges) -> Graph:
    """Canonical Graph: labels read as integers (numpy ints pass; bools and
    floats raise ValueError), pairs normalized to (min, max), duplicates
    dropped, edge list sorted lexicographically. Graph checks the result.
    A string, bytes or mapping entry is refused whole, not unpacked."""
    canon = set()
    for edge in edges:
        # a list or tuple skips the slower Mapping check
        if type(edge) not in (list, tuple) and isinstance(
                edge, (str, bytes, bytearray, Mapping)):
            raise ValueError(f"edge {edge!r} is not a vertex pair")
        try:
            i, j = edge
        except (TypeError, ValueError):
            raise ValueError(f"edge {edge!r} is not a vertex pair") from None
        i, j = _as_int(i, "vertex label"), _as_int(j, "vertex label")
        canon.add((i, j) if i < j else (j, i))
    return Graph(n_vertices, tuple(sorted(canon)))


def _components(adj: dict[int, set[int]]) -> tuple[list[int], list[list[int]]]:
    """One search over an adjacency keyed 1..n in ascending order, as
    Graph.adjacency builds it: (comp_of, members), where comp_of[v] is the
    index of v's component (comp_of[0] is unused) and members[c] lists
    component c's vertices ascending. Components are numbered in the order
    of their smallest vertex."""
    comp_of = [-1] * (len(adj) + 1)
    members: list[list[int]] = []
    for start in adj:
        if comp_of[start] >= 0:
            continue
        c = len(members)
        comp_of[start] = c
        stack = [start]
        verts = []
        while stack:
            v = stack.pop()
            verts.append(v)
            for w in adj[v]:
                if comp_of[w] < 0:
                    comp_of[w] = c
                    stack.append(w)
        verts.sort()
        members.append(verts)
    return comp_of, members


def _prune_leaves(adj: dict[int, set[int]]) -> list[int]:
    """Remove degree-1 vertices from the adjacency in place, lowest index
    first, and return them in removal order.

    A degree-1 vertex is removed only while its neighbor has degree at
    least 2, so the neighbor keeps an edge afterwards: pruning never strands
    an isolated vertex, never crosses a component, and stops at K2 (per
    component) or when no degree-1 vertices remain. Degree-0 vertices are
    never candidates. The removal count, per component too, is
    order-independent; lowest-index-first only fixes the recorded order.
    """
    # Degrees only fall, so a degree-1 vertex whose neighbour also has
    # degree 1 never becomes removable, and a vertex becomes a candidate
    # only when its degree drops to 1: popping the heap yields the lowest
    # removable vertex each time.
    candidates = [v for v, nbrs in adj.items() if len(nbrs) == 1]
    heapq.heapify(candidates)
    removed = []
    while candidates:
        victim = heapq.heappop(candidates)
        nbr = next(iter(adj[victim]))
        if len(adj[nbr]) < 2:
            continue
        adj[nbr].discard(victim)
        del adj[victim]
        removed.append(victim)
        if len(adj[nbr]) == 1:
            heapq.heappush(candidates, nbr)
    return removed


def _component_counts(g: Graph, edges) -> tuple[
        list[list[int]], list[int], list[int], list[int | None]]:
    """Per-component counts of g from one adjacency, one search and one
    leaf prune of the whole graph: (members, edge_counts, counts, removals).
    members[c] lists component c's vertices ascending, components in the
    order of their smallest vertex; edge_counts[c] counts g's edges in it
    and counts[c] those of `edges`, a subset of g's; removals[c] is the
    number of vertices _prune_leaves removes from it, None for a single
    vertex. Pruning never crosses a component, so each removal count is the
    one pruning the component alone would give."""
    adj = g.adjacency()
    comp_of, members = _components(adj)
    edge_counts = [0] * len(members)
    for i, _ in g.edges:
        edge_counts[comp_of[i]] += 1
    counts = [0] * len(members)
    for i, _ in edges:
        counts[comp_of[i]] += 1
    removals: list[int | None] = [0 if len(verts) >= 2 else None for verts in members]
    for v in _prune_leaves(adj):
        removals[comp_of[v]] += 1
    return members, edge_counts, counts, removals


def _prune_graph(g: Graph) -> tuple[list[int], dict[int, set[int]]]:
    """The vertices _prune_leaves removes from g, in removal order, and the
    adjacency it leaves; a graph with an isolated vertex is refused with
    ValueError."""
    adj = g.adjacency()
    if any(not nbrs for nbrs in adj.values()):
        raise ValueError("isolated vertex present")
    return _prune_leaves(adj), adj


def connected_components(g: Graph) -> list[tuple[Graph, dict[int, int]]]:
    """Connected components with their vertex relabelings.

    Returns (component, relabel) pairs ordered by smallest original vertex,
    where relabel maps original labels to the component's 1..k_j labels in
    increasing original order.
    """
    comp_of, members = _components(g.adjacency())
    relabels = [{v: idx for idx, v in enumerate(verts, start=1)} for verts in members]
    # relabels preserve vertex order, so each edge list stays canonical
    edge_lists: list[list[tuple[int, int]]] = [[] for _ in members]
    for i, j in g.edges:
        c = comp_of[i]
        edge_lists[c].append((relabels[c][i], relabels[c][j]))
    return [(Graph(len(verts), tuple(edges)), relabel)
            for verts, edges, relabel in zip(members, edge_lists, relabels)]


def prune_degree_one(g: Graph) -> PruneTrace:
    """Iteratively remove degree-1 vertices, lowest index first, while the
    neighbor keeps an edge (see _prune_leaves): pruning stops at K2 (per
    component) or when no degree-1 vertices remain. A graph with an
    isolated vertex is refused with ValueError.
    """
    removed, adj = _prune_graph(g)
    alive = sorted(adj)
    relabel = {v: idx for idx, v in enumerate(alive, start=1)}
    # the relabel preserves vertex order, so the edges stay canonical; a
    # list, since tuple() of a generator grows a large tuple by resizing,
    # which raised peak memory
    edges = [(relabel[i], relabel[j]) for i, j in g.edges if i in relabel and j in relabel]
    return PruneTrace(tuple(removed), Graph(len(alive), tuple(edges)))


def complete_graph(n: int) -> Graph:
    if (n := _as_int(n, "n")) < 2:
        raise ValueError("complete_graph needs n >= 2")
    return Graph(n, tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1)))


def path_graph(n: int) -> Graph:
    if (n := _as_int(n, "n")) < 2:
        raise ValueError("path_graph needs n >= 2")
    return Graph(n, tuple((i, i + 1) for i in range(1, n)))


def star_graph(n: int) -> Graph:
    """Star with center 1 and leaves 2..n."""
    if (n := _as_int(n, "n")) < 2:
        raise ValueError("star_graph needs n >= 2")
    return Graph(n, tuple((1, j) for j in range(2, n + 1)))


def double_banana() -> Graph:
    """Two copies of K5 minus an edge, glued along the endpoints 1, 2 of the
    missing edge: 8 vertices and 18 edges, minimum degree 4.

    The standard counterexample in three dimensions: it has the edge count of
    a minimally rigid graph but is generically flexible, so edge counting
    alone cannot certify rigidity for d >= 3.
    """
    blocks = ((1, 2, 3, 4, 5), (1, 2, 6, 7, 8))
    edges = set()
    for block in blocks:
        for a in range(5):
            for b in range(a + 1, 5):
                if (block[a], block[b]) != (1, 2):
                    edges.add((block[a], block[b]))
    return make_graph(8, edges)


def _check_size(source: str, n_vertices: int, n_edges: int) -> None:
    if n_vertices > MAX_VERTICES:
        raise GraphFormatError(
            f"{source} has {_int_text(n_vertices)} vertices; "
            f"at most {MAX_VERTICES} are supported")
    if n_edges > MAX_EDGES:
        raise GraphFormatError(
            f"{source} has {_int_text(n_edges)} edges; at most {MAX_EDGES} are supported")


def graph_from_json(text: str) -> Graph:
    """Parse {"vertices": n, "edges": [[i, j], ...]} (1-indexed pairs).

    The reader canonicalizes: pair order and duplicates are forgiven,
    structural problems raise GraphFormatError, and so do graphs above
    MAX_VERTICES vertices or MAX_EDGES listed edges.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise GraphFormatError('graph JSON needs "vertices" and "edges" keys')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [i, j] pairs')
    try:
        n = _as_int(obj["vertices"], '"vertices"')
        _check_size("graph JSON", n, len(edges))
        return make_graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def graph_to_json(g: Graph) -> str:
    return json.dumps({"vertices": g.n_vertices, "edges": [list(e) for e in g.edges]})


def named_graph(name: str) -> Graph:
    """Resolve a built-in graph name: k<n>, path-<n>, star-<n>, double-banana.

    Raises KeyError for names that do not match any pattern, so callers can
    fall back to reading a file, and GraphFormatError for a graph above
    MAX_VERTICES vertices or MAX_EDGES edges, before building it, or one
    its builder refuses (k1, path-0: fewer than two vertices).
    """
    if name == "double-banana":
        return double_banana()
    for pattern, builder, n_edges in (
        (r"k(\d+)", complete_graph, lambda n: n * (n - 1) // 2),
        (r"path-(\d+)", path_graph, lambda n: n - 1),
        (r"star-(\d+)", star_graph, lambda n: n - 1),
    ):
        match = re.fullmatch(pattern, name)
        if match:
            digits = match.group(1).lstrip("0")
            if len(digits) > len(str(MAX_VERTICES)):
                raise GraphFormatError(
                    f"built-in graph name has more than {MAX_VERTICES} vertices")
            n = int(digits or "0")
            _check_size(f"graph {name!r}", n, n_edges(n))
            try:
                return builder(n)
            except ValueError as exc:
                raise GraphFormatError(f"graph {name!r}: {exc}") from None
    raise KeyError(name)
