"""Independent references for the tests, one for each exact computation a
test checks the library against.

Every reference here is plain and dense. Ranks come from Gaussian
elimination over Fraction or on residues mod p, rigidity rows from the
configuration's coordinates, plane ranks from (2,3)-sparsity counts and
components from a breadth-first search. None of them calls rigidset's
elimination (RowSpace, exact_rank_int, exact_rank), its row builders, or
its components, pruning or adjacency, so a fault there cannot hide by
showing up on both sides of a comparison. From rigidset this module
imports only the output type (Graph, make_graph) and what a seed gives
(sample_generic_config for the witness, _witness_modulus for the prime),
so that a reference is evaluated at the library's own points;
tests/test_oracles.py checks that rule.
"""

import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm

from rigidset.graphs import Graph, make_graph
from rigidset.rigidity import _witness_modulus, sample_generic_config


def fraction_rank(rows, n_cols):
    """Rank over Q: plain Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                f = mat[r][col] / lead
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def gauss_jordan_kernel(rows, n_cols):
    """Kernel basis over Q: dense Gauss-Jordan elimination over Fraction,
    one vector per free column with a 1 in the free position (the standard
    special solutions). An empty matrix yields the identity basis."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_cols = []
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


def primitive_row(row):
    """The row scaled to coprime integers: times the lcm of its
    denominators, then divided by the gcd of its entries (its content)."""
    scale = lcm(*(Fraction(v).denominator for v in row))
    ints = [int(Fraction(v) * scale) for v in row]
    content = gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def modular_rank(rows, n_cols, p):
    """Rank mod the prime p of the rows' primitive forms: dense Gaussian
    elimination on residues.

    Scaling a row changes no rank over Q, but mod p it can: rigidity rows at
    integer points are all even, so mod 2 they vanish unless their content
    is divided out first. The rank is defined on primitive rows, as the
    library's F_p elimination defines it.
    """
    mat = [[v % p for v in primitive_row(row)] for row in rows]
    rank = 0
    for col in range(n_cols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] * inv % p
            if f:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def rigidity_rows(edges, x):
    """Dense rigidity rows at the configuration x, one per edge (i, j), in
    the order given: 2(p_i - p_j) in vertex i's d columns, 2(p_j - p_i) in
    vertex j's, 0 elsewhere."""
    d = x.d
    rows = []
    for i, j in edges:
        row = [0] * (d * len(x.points))
        for t, (a, b) in enumerate(zip(x.points[i - 1], x.points[j - 1])):
            row[(i - 1) * d + t] = 2 * (a - b)
            row[(j - 1) * d + t] = 2 * (b - a)
        rows.append(row)
    return rows


def reference_greedy(n, d, seed, start, candidates):
    """Candidates kept by a greedy scan after the (independent) start edges,
    each decided by Fraction elimination on dense rows at the witness the
    library draws for this seed."""
    x = sample_generic_config(d, n, seed)
    rows = rigidity_rows(start, x)
    kept = []
    for edge in candidates:
        row = rigidity_rows([edge], x)[0]
        if fraction_rank(rows + [row], d * n) > len(rows):
            rows.append(row)
            kept.append(edge)
    return kept


def reference_generic_rank(g, d, seed, samples=5, modulus=None):
    """Reference for generic_rank and its certificate's JSON: the max of the
    rank mod p of g's dense rows over all `samples` witnesses of the seed's
    stream, with the seed's prime unless one is given."""
    if modulus is None:
        modulus = _witness_modulus(seed)
    rng = random.Random(seed)
    best = 0
    for _ in range(samples):
        x = sample_generic_config(d, g.n_vertices, rng.randrange(2 ** 32))
        best = max(best, modular_rank(rigidity_rows(g.edges, x), d * g.n_vertices, modulus))
    return best, json.dumps({"seed": seed, "samples": samples, "agreed_rank": best},
                            sort_keys=True)


def reference_inf_rigid(g, x):
    """Reference for is_framework_inf_rigid: two Fraction ranks, of g and of
    K_n at x."""
    n = g.n_vertices
    if n < 2:
        return True
    complete = itertools.combinations(range(1, n + 1), 2)
    return (fraction_rank(rigidity_rows(g.edges, x), x.d * n)
            == fraction_rank(rigidity_rows(complete, x), x.d * n))


def laman_sparse(n, edges):
    """(2,3)-sparsity on every vertex subset; edge sets satisfying it are
    exactly the independent sets of the plane rigidity matroid, which gives
    a rank oracle with no linear algebra in it."""
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            s = set(subset)
            m = sum(1 for i, j in edges if i in s and j in s)
            if m > 2 * size - 3:
                return False
    return True


def laman_rank(g):
    """Plane generic rank: the greedy basis of (2,3)-sparse edge sets."""
    kept = []
    for e in g.edges:
        if laman_sparse(g.n_vertices, kept + [e]):
            kept.append(e)
    return len(kept)


def adjacency(n, edges):
    """{vertex: set of neighbors} for vertices 1..n."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def bfs_components(n, edges):
    """Vertex sets of the components, each sorted, ordered by their lowest
    vertex: plain BFS over an adjacency dict."""
    adj = adjacency(n, edges)
    seen = set()
    out = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        comp = []
        while queue:
            v = queue.pop(0)
            comp.append(v)
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def relabeled_components(g):
    """connected_components' output: for each BFS component, the subgraph
    relabeled 1..k in ascending vertex order, with the relabeling."""
    out = []
    for verts in bfs_components(g.n_vertices, g.edges):
        relabel = {v: idx for idx, v in enumerate(verts, start=1)}
        edges = tuple((relabel[i], relabel[j]) for i, j in g.edges if i in relabel)
        out.append((Graph(len(verts), edges), relabel))
    return out


def prune_rescan(g):
    """Reference for prune_degree_one: rescan the vertices in ascending
    order for the lowest removable one (degree 1, neighbor of degree at
    least 2) after every removal. Returns (removed vertices, remaining
    graph relabeled 1..k)."""
    adj = adjacency(g.n_vertices, g.edges)
    if any(not nbrs for nbrs in adj.values()):
        raise ValueError("isolated vertex present")
    removed = []
    while True:
        victim = None
        for v in sorted(adj):
            if len(adj[v]) == 1:
                nbr = next(iter(adj[v]))
                if len(adj[nbr]) >= 2:
                    victim = v
                    break
        if victim is None:
            break
        nbr = next(iter(adj[victim]))
        adj[nbr].discard(victim)
        del adj[victim]
        removed.append(victim)
    relabel = {v: idx for idx, v in enumerate(sorted(adj), start=1)}
    edges = tuple((relabel[i], relabel[j]) for i, j in g.edges if i in relabel and j in relabel)
    return tuple(removed), Graph(len(relabel), edges)


def random_graph(rng, n, p):
    """Erdős–Rényi graph on n vertices: each pair is an edge with probability p."""
    edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < p]
    return make_graph(n, edges)


def henneberg_laman(rng, n):
    """Plane Laman graph: each new vertex joins two earlier ones (Henneberg I)."""
    edges = [(1, 2)]
    for v in range(3, n + 1):
        a, b = rng.sample(range(1, v), 2)
        edges += [(a, v), (b, v)]
    return make_graph(n, edges)
