"""Closed-form dimensional thresholds for distance sets of graph frameworks,
computed as exact rationals, plus a per-graph report combining them with
generic-rank predictions.

The headline quantities, for a graph on k+1 vertices in R^d:

* sufficient threshold d - 1/(k+1): sets of dimension above this have
  positive-measure distance sets when the graph is minimally rigid.
* pruned threshold d - 1/(k+1-n): the improvement after n rounds of
  degree-1 pruning (leaf edges constrain nothing new).
* necessary exponent d - C(d,2)/k: below this dimension the positive-measure
  conclusion fails in general, witnessed by lattice neighborhood sets.
* natural measure exponent: the threshold above which the pushforward of a
  natural Frostman measure is absolutely continuous, by case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, connected_components, prune_degree_one
from .rigidity import max_independent_subset, required_edge_count

SMALL_REGIME_NOTE = (
    "at most d+1 vertices: complete-graph analysis applies and the sharper "
    "threshold (d*k+1)/(k+1) holds")


def sufficient_threshold(d: int, n_vertices: int) -> Fraction:
    """d - 1/(k+1) for a graph on n_vertices = k+1 vertices."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n_vertices < 2:
        raise ValueError("n_vertices must be >= 2")
    return Fraction(d) - Fraction(1, n_vertices)


def _pruned(d: int, n_vertices: int, removals: int) -> Fraction:
    """d - 1/(k+1-n) for k+1 vertices of which pruning removes n."""
    return Fraction(d) - Fraction(1, n_vertices - removals)


def pruned_threshold(g: Graph, d: int) -> Fraction:
    """Threshold after degree-1 pruning: d - 1/(k+1-n) with n removals.

    Equals sufficient_threshold exactly when nothing can be pruned.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    return _pruned(d, g.n_vertices, prune_degree_one(g).n)


def necessary_exponent(d: int, n_vertices: int) -> Fraction:
    """d - C(d,2)/k; below this the positive-measure conclusion can fail."""
    k = n_vertices - 1
    if d < 2:
        raise ValueError("d must be >= 2")
    if k < 1:
        raise ValueError("n_vertices must be >= 2")
    return Fraction(d) - Fraction(d * (d - 1) // 2, k)


def natural_measure_exponent(d: int, n_vertices: int) -> Fraction:
    """Case formula for the natural-measure threshold.

    d=2: 4k/(2k+1); d=3 with k in {1,2}: (12k-1)/(4k+2); d>3 with k=1:
    d/2 + 1/3; otherwise (4kd-1)/(4k+1).
    """
    k = n_vertices - 1
    if d < 2:
        raise ValueError("d must be >= 2")
    if k < 1:
        raise ValueError("n_vertices must be >= 2")
    if d == 2:
        return Fraction(4 * k, 2 * k + 1)
    if d == 3 and k in (1, 2):
        return Fraction(12 * k - 1, 4 * k + 2)
    if d > 3 and k == 1:
        return Fraction(3 * d + 2, 6)
    return Fraction(4 * k * d - 1, 4 * k + 1)


def small_regime_threshold(d: int, n_vertices: int) -> Fraction:
    """Sharper sufficient threshold (dk+1)/(k+1) for k <= d.

    With at most d+1 vertices the only rigid graph worth studying is the
    complete graph, and its threshold improves on d - 1/(k+1).
    """
    k = n_vertices - 1
    if not 1 <= k <= d:
        raise ValueError("small regime needs 1 <= n_vertices - 1 <= d")
    return Fraction(d * k + 1, k + 1)


@dataclass(frozen=True)
class ThresholdReport:
    """Aggregated predictions for one graph in one ambient dimension.

    Rational fields are None where undefined (single-vertex components have
    no thresholds; pruning needs every vertex to have positive degree;
    small_regime_threshold exists only for n_vertices <= d+1). For sub-reports
    `vertices` lists the component's original vertex labels.
    """

    d: int
    n_vertices: int
    n_edges: int
    generic_rank: int
    predicted_distance_set_dimension: int
    sufficient_threshold: Fraction | None
    pruned_threshold: Fraction | None
    necessary_exponent: Fraction | None
    natural_measure_exponent: Fraction | None
    small_regime_threshold: Fraction | None
    is_generically_rigid: bool
    is_minimally_rigid: bool
    components: tuple["ThresholdReport", ...] = ()
    vertices: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict:
        def frac(v):
            return None if v is None else str(v)

        obj = {
            "d": self.d,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "generic_rank": self.generic_rank,
            "predicted_distance_set_dimension": self.predicted_distance_set_dimension,
            "sufficient_threshold": frac(self.sufficient_threshold),
            "pruned_threshold": frac(self.pruned_threshold),
            "necessary_exponent": frac(self.necessary_exponent),
            "natural_measure_exponent": frac(self.natural_measure_exponent),
            "small_regime_threshold": frac(self.small_regime_threshold),
            "is_generically_rigid": self.is_generically_rigid,
            "is_minimally_rigid": self.is_minimally_rigid,
        }
        if self.small_regime_threshold is not None:
            obj["small_regime_note"] = SMALL_REGIME_NOTE
        if self.vertices is not None:
            obj["vertices"] = list(self.vertices)
        if self.components:
            obj["components"] = [sub.to_json_obj() for sub in self.components]
        return obj


def _report_for(graph: Graph, d: int, rank: int, removals: int | None,
                components=(), vertices=None) -> ThresholdReport:
    """The report of a graph of generic rank `rank` whose degree-1 pruning
    makes `removals` removals, None where pruning is undefined."""
    n, m = graph.n_vertices, graph.n_edges
    k = n - 1
    maximal = required_edge_count(d, n)
    rigid = rank == maximal
    return ThresholdReport(
        d=d,
        n_vertices=n,
        n_edges=m,
        generic_rank=rank,
        predicted_distance_set_dimension=rank,
        sufficient_threshold=sufficient_threshold(d, n) if n >= 2 else None,
        pruned_threshold=None if removals is None else _pruned(d, n, removals),
        necessary_exponent=necessary_exponent(d, n) if n >= 2 else None,
        natural_measure_exponent=natural_measure_exponent(d, n) if n >= 2 else None,
        small_regime_threshold=small_regime_threshold(d, n) if 1 <= k <= d else None,
        is_generically_rigid=rigid,
        is_minimally_rigid=rigid and m == maximal,
        components=tuple(components),
        vertices=tuple(vertices) if vertices is not None else None,
    )


def predicted_distance_set_dimension(g: Graph, d: int, seed: int) -> int:
    """Predicted dimension of the generic distance set.

    The size of a maximum independent edge subset, summed over connected
    components; the distance set of a disconnected graph is a product over
    its components, so dimensions add. This is the same number `analyze`
    reports, from the same basis.
    """
    return analyze(g, d, seed).predicted_distance_set_dimension


def analyze(g: Graph, d: int, seed: int) -> ThresholdReport:
    """Full threshold report with one sub-report per connected component.

    The top-level rank is the size of max_independent_subset(g, d, seed),
    one greedy basis of the whole graph; each component's rank is the
    number of its edges in that basis (the rigidity matrix is
    block-diagonal across components), so the ranks sum to the total. In
    the plane the basis, and so every rank, is exact; in d >= 3 it is taken
    at one witness, and the rigidity module docstring gives the failure
    bound. A graph whose witness would need more than
    rigidity.MAX_WITNESS_COORDINATES coordinates is refused with
    ValueError.

    Each component of at least 2 vertices is pruned once, and the top-level
    pruned threshold is read off the components' removal counts: a leaf is
    removed only while its neighbour, in the same component, keeps an edge,
    so pruning never crosses a component and the whole graph's count is the
    sum of theirs. A single-vertex component leaves it undefined (None).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    basis = max_independent_subset(g, d, seed)
    comps = connected_components(g)
    comp_of = {v: c for c, (_, relabel) in enumerate(comps) for v in relabel}
    ranks = [0] * len(comps)
    for i, _ in basis.edges:
        ranks[comp_of[i]] += 1
    removals = [prune_degree_one(comp).n if comp.n_vertices >= 2 else None for comp, _ in comps]
    subs = [_report_for(comp, d, rank, pruned, vertices=sorted(relabel))
            for (comp, relabel), rank, pruned in zip(comps, ranks, removals)]
    total = None if None in removals else sum(removals)
    return _report_for(g, d, basis.rank, total, components=subs)
