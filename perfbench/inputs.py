"""Seeded input generators for the benchmark.

Every generator takes an explicit seed and returns graph JSON objects in the
program's input format, {"vertices": n, "edges": [[i, j], ...]} with 1-indexed,
lexicographically sorted pairs. The program under test only ever sees the
written files, never the seed.
"""

from __future__ import annotations

import random

# rank of each forest component type in the plane, keyed by (vertices, edges)
FOREST_COMPONENT_RANKS = {
    (3, 3): 3,    # K3
    (4, 6): 5,    # K4
    (5, 4): 4,    # path-5
    (6, 5): 5,    # star-6
    (8, 18): 13,  # double banana: two rigid K5-minus-an-edge blocks on a shared pair
}


def _relabel(n: int, edges, rng: random.Random) -> dict:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    pairs = sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges)
    return {"vertices": n, "edges": [list(e) for e in pairs]}


def henneberg_laman(n: int, seed: int) -> dict:
    """Plane Laman graph on n >= 2 vertices by Henneberg-I steps.

    Starts from one edge and attaches each new vertex to two distinct earlier
    vertices, so the result has 2n - 3 edges and generic rank 2n - 3. Vertex
    labels are then shuffled.
    """
    if n < 2:
        raise ValueError("henneberg_laman needs n >= 2")
    rng = random.Random(seed)
    edges = [(1, 2)]
    for v in range(3, n + 1):
        a, b = rng.sample(range(1, v), 2)
        edges += [(a, v), (b, v)]
    return _relabel(n, edges, rng)


def drop_quarter(graph: dict, seed: int) -> dict:
    """The graph minus a seeded quarter (rounded down) of its edges."""
    rng = random.Random(seed)
    edges = graph["edges"]
    kept = rng.sample(edges, len(edges) - len(edges) // 4)
    return {"vertices": graph["vertices"], "edges": sorted(kept)}


def _component(kind: str, base: int) -> tuple[int, list]:
    if kind == "k3":
        n, local = 3, [(1, 2), (1, 3), (2, 3)]
    elif kind == "k4":
        n, local = 4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    elif kind == "path-5":
        n, local = 5, [(i, i + 1) for i in range(1, 5)]
    elif kind == "star-6":
        n, local = 6, [(1, j) for j in range(2, 7)]
    else:  # double banana: two K5 minus the edge (1, 2), glued along 1 and 2
        n, local = 8, sorted({(min(a, b), max(a, b))
                              for block in ((1, 2, 3, 4, 5), (1, 2, 6, 7, 8))
                              for a in block for b in block if a < b and (a, b) != (1, 2)})
    return n, [(base + i, base + j) for i, j in local]


FOREST_KINDS = ("k3", "k4", "path-5", "star-6", "double-banana")


def forest(components: int, seed: int) -> dict:
    """Disjoint union of `components` small graphs, the five kinds in equal
    shares (cycled when the count is not a multiple of five), in seeded order
    and with shuffled vertex labels."""
    rng = random.Random(seed)
    kinds = [FOREST_KINDS[i % len(FOREST_KINDS)] for i in range(components)]
    rng.shuffle(kinds)
    n, edges = 0, []
    for kind in kinds:
        size, comp = _component(kind, n)
        n += size
        edges += comp
    return _relabel(n, edges, rng)
