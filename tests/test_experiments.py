import copy
import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidset import experiments
from rigidset.experiments import (
    CantorSampler,
    EnumerationLimitError,
    LatticeSampler,
    UnitCubeSampler,
    check_enumeration,
    congruence_class_counts,
    covering_count,
    distance_images,
    euler_t24,
    fit_box_dimension,
    hausdorff_content_bound,
    k4_euler_residuals,
    sample_box_dimension,
    sample_framework_tuples,
)
from rigidset.graphs import complete_graph, make_graph, path_graph


def reference_lattice_points(d, q):
    """The grid (1/q){0..q}^d as a tuple of Fraction points in the order of
    itertools.product, the form in which the lattice set once stored it."""
    return tuple(tuple(Fraction(c, q) for c in coords)
                 for coords in itertools.product(range(q + 1), repeat=d))


def reference_lattice_draw(sampler, rng, count):
    """LatticeSampler.draw as it was with the grid held as a float array of
    centers; the sampler must give the same bits."""
    centers = np.array([[float(c) for c in p]
                        for p in reference_lattice_points(sampler.d, sampler.q)])
    d = sampler.d
    idx = rng.integers(0, len(centers), size=count)
    normals = rng.normal(size=(count, d))
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    directions = normals / np.where(norms > 0, norms, 1.0)
    radii = sampler.radius * rng.random(count) ** (1.0 / d)
    return centers[idx] + directions * radii[:, None]


def drawn_centers(sampler, count=2000, seed=0):
    """The distinct points a radius-0 copy of the lattice sampler draws,
    sorted; with count far above the point count every point is drawn."""
    flat = copy.copy(sampler)
    flat.radius = 0.0
    draws = flat.draw(np.random.default_rng(seed), count)
    return sorted(set(map(tuple, draws.tolist())))


def pairwise_distance(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def random_convex_quad(rng):
    """Four points in convex position, labeled in convex cyclic order."""
    while True:
        pts = [(rng.random(), rng.random()) for _ in range(4)]
        cx = sum(p[0] for p in pts) / 4
        cy = sum(p[1] for p in pts) / 4
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        crosses = []
        for i in range(4):
            a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            crosses.append((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]))
        if all(v > 1e-6 for v in crosses) or all(v < -1e-6 for v in crosses):
            return pts


def random_reflex_quad(rng):
    """Vertex 4 inside triangle 1-2-3, so 2 and 4 share a side of the 1-3
    diagonal."""
    while True:
        a, b, c = [(rng.random(), rng.random()) for _ in range(3)]
        w = sorted([rng.uniform(0.05, 0.95) for _ in range(2)])
        u, v = w[0], w[1] - w[0]
        t = 1 - u - v
        if min(u, v, t) < 0.05:
            continue
        inner = (u * a[0] + v * b[0] + t * c[0], u * a[1] + v * b[1] + t * c[1])
        area = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
        if area > 0.05:
            return [a, b, c, inner]


def quad_lengths(pts):
    d = pairwise_distance
    return {
        "t12": d(pts[0], pts[1]), "t13": d(pts[0], pts[2]),
        "t14": d(pts[0], pts[3]), "t23": d(pts[1], pts[2]),
        "t24": d(pts[1], pts[3]), "t34": d(pts[2], pts[3]),
    }


def congruence_counts_loop(d, q, k):
    """Reference: the per-tuple Python loop that congruence_class_counts ran
    before it was vectorised, with the same keys in Python sets."""
    points = list(itertools.product(range(q + 1), repeat=d))
    pair_idx = list(itertools.combinations(range(k + 1), 2))
    unlabeled, labeled = set(), set()
    for tup in itertools.product(points, repeat=k + 1):
        key = tuple(
            sum((pa - pb) ** 2 for pa, pb in zip(tup[a], tup[b]))
            for a, b in pair_idx)
        labeled.add(key)
        unlabeled.add(tuple(sorted(key)))
    return len(unlabeled), len(labeled)


def congruence_counts_enumerated(d, q, k):
    """Reference: the numpy enumeration that congruence_class_counts ran
    before it folded one axis's table, walking all (q+1)^(d(k+1)) tuples
    by index in chunks, with both counts through _DistinctRows."""
    n_tuples = (q + 1) ** (d * (k + 1))
    pairs = list(itertools.combinations(range(k + 1), 2))
    radix = d * q * q + 1
    chunk = max(1, 2 ** 18 // (d * (k + 1) + len(pairs)))
    labeled = experiments._DistinctRows(len(pairs), radix)
    unlabeled = experiments._DistinctRows(len(pairs), radix)
    for start in range(0, n_tuples, chunk):
        rest = np.arange(start, min(start + chunk, n_tuples), dtype=np.int64)
        # coords[v * d + axis] is that coordinate of point v
        coords = list(experiments._grid_digits(rest, q, d * (k + 1)))
        dists = np.empty((rest.size, len(pairs)), dtype=np.int64)
        for col, (a, b) in enumerate(pairs):
            dists[:, col] = sum((coords[a * d + axis] - coords[b * d + axis]) ** 2
                                for axis in range(d))
        del coords
        labeled.add(dists.T, rest.size)
        dists.sort(axis=1)
        unlabeled.add(dists.T, rest.size)
    return unlabeled.count(), labeled.count()


def n_tuples(d, q, k):
    return (q + 1) ** (d * (k + 1))


@st.composite
def lattice_instances(draw, most=10 ** 6):
    """(d, q, k) with d <= 4 and at most `most` tuples."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, max(k for k in range(1, 20) if n_tuples(d, 1, k) <= most)))
    q = draw(st.integers(1, max(q for q in range(1, 1000) if n_tuples(d, q, k) <= most)))
    return d, q, k


# Every (d, q, k) with q <= 4, at most 10^5 tuples, and at most 3*10^5
# pair distances for the loop to compute, so the reference stays fast.
LOOP_CASES = [
    (d, q, k)
    for d in range(1, 9) for q in range(1, 5) for k in range(1, 16)
    if n_tuples(d, q, k) <= 10 ** 5
    and n_tuples(d, q, k) * k * (k + 1) // 2 <= 3 * 10 ** 5
]


def covering_reference(cloud, eps):
    """Reference: the row-wise unique covering_count used before packed
    keys. It refuses a cloud whose cell indices leave int64 with
    covering_count's messages, judged on the whole cloud at once."""
    a = np.asarray(cloud, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    with np.errstate(over="ignore"):
        scaled = a / eps
    lo, hi = scaled.min(), scaled.max()
    if not (-2 ** 63 < lo and hi < 2 ** 63):
        if not np.isfinite(a).all():
            raise ValueError("cloud has a non-finite entry")
        raise ValueError(
            f"eps={eps!r} gives cell indices beyond the int64 range "
            f"(|x/eps| up to {max(-lo, hi):.3g}, limit 2^63)")
    return len(np.unique(np.floor(scaled).astype(np.int64), axis=0))


def distance_images_reference(g, tuples):
    """Reference: one np.linalg.norm per edge, as distance_images computed
    the lengths before the per-axis kernel."""
    pts = np.asarray(tuples, dtype=float)
    if not g.edges:
        return np.zeros((pts.shape[0], 0))
    cols = [np.linalg.norm(pts[:, i - 1] - pts[:, j - 1], axis=1) for i, j in g.edges]
    return np.stack(cols, axis=1)


def k4_euler_residuals_reference(tuples):
    """Reference: k4_euler_residuals as whole-array expressions, before it
    was written with in-place column operations."""
    pts = np.asarray(tuples, dtype=float)

    def dist(a, b):
        return np.linalg.norm(pts[:, a] - pts[:, b], axis=1)

    t12, t13, t14 = dist(0, 1), dist(0, 2), dist(0, 3)
    t23, t24, t34 = dist(1, 2), dist(1, 3), dist(2, 3)
    diagonal = pts[:, 2] - pts[:, 0]

    def cross2(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    side2 = cross2(diagonal, pts[:, 1] - pts[:, 0])
    side4 = cross2(diagonal, pts[:, 3] - pts[:, 0])
    convex = side2 * side4 < 0
    cos_theta = np.clip((t12 ** 2 + t13 ** 2 - t23 ** 2) / (2 * t12 * t13), -1.0, 1.0)
    cos_psi = np.clip((t13 ** 2 + t34 ** 2 - t14 ** 2) / (2 * t13 * t34), -1.0, 1.0)
    sin_theta = np.sqrt(1.0 - cos_theta ** 2)
    sin_psi = np.sqrt(1.0 - cos_psi ** 2)
    cos_gap = np.where(convex,
                       cos_theta * cos_psi + sin_theta * sin_psi,
                       cos_theta * cos_psi - sin_theta * sin_psi)
    square = t23 ** 2 + t14 ** 2 - t13 ** 2 + 2 * t12 * t34 * cos_gap
    predicted = np.sqrt(np.maximum(square, 0.0))
    return np.abs(predicted - t24) / np.where(t24 > 0, t24, 1.0)


def sample_reference(g, sampler, n, seed):
    """Reference: the whole-array pipeline of `sample` before it drew in
    chunks. One draw of every tuple, then the residuals and the lengths of
    all of them at once; returns the cloud, the largest finite residual
    (None off K4 in the plane, or when none is finite) and the number of
    non-finite residuals."""
    rng = np.random.default_rng(seed)
    tuples = sampler.draw(rng, n * g.n_vertices).reshape(n, g.n_vertices, -1)
    residual, degenerate = None, 0
    if sampler.d == 2 and g.n_vertices == 4 and g.n_edges == 6:
        with np.errstate(all="ignore"):
            residuals = k4_euler_residuals_reference(tuples)
        finite = residuals[np.isfinite(residuals)]
        degenerate = residuals.size - finite.size
        if finite.size:
            residual = float(finite.max())
    return distance_images_reference(g, tuples), residual, degenerate


def traced_peak(run) -> int:
    """The peak of the memory that tracemalloc traces (numpy buffers
    included) while run() runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_bits(a, b):
    """Equal shape and equal float64 bit patterns, NaNs and signed zeros
    included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def framework_tuples(draw):
    """(graph, tuples): N tuples of n points in R^d for d = 1..9, so both
    branches of the edge-length kernel run, with coordinates of a drawn
    magnitude (squares that underflow to subnormals or overflow to inf
    included) and some points repeated, so that lengths can be zero."""
    n_tuples = draw(st.integers(0, 40))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    scale = draw(st.sampled_from([1.0, 1e-160, 1e160, 2.0 ** 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tuples = rng.uniform(-scale, scale, size=(n_tuples, n, d))
    if n > 1 and draw(st.booleans()):
        tuples[:, 1] = tuples[:, 0]
    return make_graph(n, edges), tuples


def degenerate_k4_tuples(rng):
    """Plane 4-tuples on which the Euler formula meets rounding or division
    by zero: collinear points, coincident points (t24 = 0, or t12 = 0),
    points a rounding error off a line, and tiny and huge configurations."""
    base = rng.random((200, 4, 2))
    collinear = np.zeros((200, 4, 2))
    collinear[:, :, 0] = rng.random((200, 4))
    collinear[:, :, 1] = 0.5 * collinear[:, :, 0]
    near_line = collinear + rng.uniform(-1e-15, 1e-15, size=collinear.shape)
    coincident_24 = base.copy()
    coincident_24[:, 3] = coincident_24[:, 1]
    coincident_12 = base.copy()
    coincident_12[:, 1] = coincident_12[:, 0]
    flat_triangle = base.copy()
    flat_triangle[:, 2] = flat_triangle[:, 0] + 1e-9 * (base[:, 2] - base[:, 0])
    return np.concatenate((base, collinear, near_line, coincident_24, coincident_12,
                           flat_triangle, 1e-150 * base, 1e150 * base))


@st.composite
def clouds(draw):
    """Point clouds with negative coordinates and repeated points: n rows
    drawn from a pool of distinct points, returned 1-D when they have one
    column; `spread` widens the coordinates far enough that the product of
    the column spans passes 2^63 at eps = 2^-4 once there are two or more
    columns."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 6))
    spread = draw(st.sampled_from([1.0, 4.0, 2.0 ** 30]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.uniform(-spread, spread, size=(draw(st.integers(1, n)), m))
    cloud = pool[rng.integers(0, len(pool), size=n)]
    return cloud[:, 0] if m == 1 and draw(st.booleans()) else cloud


class TestEulerT24:
    def test_unit_square(self):
        got = euler_t24(1, math.sqrt(2), 1, 1, 1, convex=True)
        assert got == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_convex_matches_coordinates(self):
        rng = random.Random(606)
        for _ in range(300):
            t = quad_lengths(random_convex_quad(rng))
            got = euler_t24(t["t12"], t["t13"], t["t14"], t["t23"], t["t34"],
                            convex=True)
            assert abs(got - t["t24"]) / t["t24"] < 1e-9

    def test_reflex_matches_coordinates(self):
        rng = random.Random(707)
        for _ in range(300):
            t = quad_lengths(random_reflex_quad(rng))
            got = euler_t24(t["t12"], t["t13"], t["t14"], t["t23"], t["t34"],
                            convex=False)
            assert abs(got - t["t24"]) / t["t24"] < 1e-9

    def test_branches_differ(self):
        a = euler_t24(1, 2, 1, 1.5, 1.5, convex=True)
        b = euler_t24(1, 2, 1, 1.5, 1.5, convex=False)
        assert abs(a - b) > 0.1

    def test_coincident_reflex_vertices(self):
        # t14 = t12 and t34 = t23 on the same side puts vertex 4 on vertex 2
        got = euler_t24(1, 2, 1, 1.5, 1.5, convex=False)
        assert got == pytest.approx(0.0, abs=1e-7)

    def test_degenerate_triangles_rejected(self):
        with pytest.raises(ValueError, match="triangle"):
            euler_t24(1, 2, 1, 1, 1)
        with pytest.raises(ValueError, match="triangle"):
            euler_t24(1, 1, 1, 2, 1)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            euler_t24(0, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="positive"):
            euler_t24(1, 1, 1, -2, 1)


class TestK4Residuals:
    def test_random_tuples_lie_on_hypersurface(self):
        rng = np.random.default_rng(42)
        tuples = rng.random((10000, 4, 2))
        residuals = k4_euler_residuals(tuples)
        assert residuals.shape == (10000,)
        assert float(residuals.max()) < 1e-9

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            k4_euler_residuals(np.zeros((5, 3, 2)))
        with pytest.raises(ValueError):
            k4_euler_residuals(np.zeros((5, 4, 3)))

    def test_matches_scalar_on_convex_quads(self):
        rng = random.Random(808)
        quads = np.array([random_convex_quad(rng) for _ in range(50)])
        assert float(k4_euler_residuals(quads).max()) < 1e-9

    def test_matches_formula_reference(self):
        rng = random.Random(809)
        quads = np.array([random_convex_quad(rng) for _ in range(100)]
                         + [random_reflex_quad(rng) for _ in range(100)])
        np_rng = np.random.default_rng(810)
        for tuples in (np_rng.random((5000, 4, 2)), quads, degenerate_k4_tuples(np_rng)):
            with np.errstate(all="ignore"):
                want = k4_euler_residuals_reference(tuples)
                got = k4_euler_residuals(tuples)
            assert same_bits(got, want)

    def test_bits_are_pinned(self):
        # uniform tuples, tuples with a repeated point (p1 = p2, p1 = p3,
        # p3 = p4, p2 = p4), tuples on the grid {0, 1/2, 1}^2 and lattice
        # sampler tuples: the digest of the residuals' float64 bytes, NaNs
        # included, is frozen
        rng = np.random.default_rng(33)
        base = rng.random((600, 4, 2))
        coincident = np.repeat(base[:150], 4, axis=0)
        for i, (a, b) in enumerate(((0, 1), (0, 2), (2, 3), (1, 3))):
            coincident[i::4, b] = coincident[i::4, a]
        grid = rng.integers(0, 3, size=(600, 4, 2)) / 2
        lattice = sample_framework_tuples(LatticeSampler(2, 3, 1.5), 4, 600, 33)
        residuals = k4_euler_residuals(np.concatenate((base, coincident, grid, lattice)))
        assert residuals.shape == (2400,) and int(np.isnan(residuals).sum()) == 614
        assert hashlib.sha256(residuals.tobytes()).hexdigest() == (
            "8563b8269b1451b1fa987f4740591c4dd0c6251bc369b8f03906e6f0c08b158e")

    def test_degenerate_tuples_give_nan_silently(self):
        # rows 1-3 repeat a point that leaves an angle undefined; row 4
        # repeats p2 as p4, which the formula still handles
        tuples = np.random.default_rng(812).random((5, 4, 2))
        tuples[4, 3] = tuples[4, 1]
        for row, (a, b) in enumerate(((0, 1), (0, 2), (2, 3)), start=1):
            tuples[row, b] = tuples[row, a]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = k4_euler_residuals(tuples)
        assert np.isfinite(residuals[[0, 4]]).all()
        assert np.isnan(residuals[1:4]).all()


class TestCongruenceCounts:
    @pytest.mark.parametrize("d,q,k,want", [
        (2, 1, 1, 3),
        (2, 2, 1, 6),
        (2, 3, 1, 10),
        (1, 2, 1, 3),
    ])
    def test_frozen_pair_counts(self, d, q, k, want):
        unlabeled, labeled = congruence_class_counts(d, q, k)
        assert unlabeled == labeled == want

    def test_pairs_count_squared_norms(self):
        # k = 1: classes are exactly the distinct squared norms of difference
        # vectors, zero included
        for q in (1, 2, 3):
            norms = {
                (a - c) ** 2 + (b - e) ** 2
                for a in range(q + 1) for b in range(q + 1)
                for c in range(q + 1) for e in range(q + 1)}
            assert congruence_class_counts(2, q, 1)[0] == len(norms)

    def test_matches_orbit_oracle(self):
        # canonical forms under vertex relabeling count true unlabeled
        # classes; the sorted-multiset invariant must agree for k <= 2
        for q in (1, 2):
            for k in (1, 2):
                points = list(itertools.product(range(q + 1), repeat=2))
                pairs = list(itertools.combinations(range(k + 1), 2))
                perms = list(itertools.permutations(range(k + 1)))
                canon = set()
                for tup in itertools.product(points, repeat=k + 1):
                    canon.add(min(
                        tuple(
                            sum((tup[p[a]][t] - tup[p[b]][t]) ** 2 for t in range(2))
                            for a, b in pairs)
                        for p in perms))
                assert congruence_class_counts(2, q, k)[0] == len(canon)

    def test_unlabeled_at_most_labeled(self):
        for q in (1, 2):
            for k in (1, 2):
                unlabeled, labeled = congruence_class_counts(2, q, k)
                assert unlabeled <= labeled

    def test_bound(self):
        for q in (1, 2, 3):
            for k in (1, 2):
                unlabeled, labeled = congruence_class_counts(2, q, k)
                assert labeled <= (2 * q + 1) ** (2 * k)

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationLimitError):
            congruence_class_counts(2, 50, 3)
        assert issubclass(EnumerationLimitError, ValueError)

    def test_enumeration_guard_boundary(self, monkeypatch):
        # d = 2, q = 2, k = 1: 3^4 = 81 tuples
        monkeypatch.setattr(experiments, "ENUMERATION_LIMIT", 81)
        check_enumeration(2, 2, 1)
        assert congruence_class_counts(2, 2, 1) == (6, 6)
        monkeypatch.setattr(experiments, "ENUMERATION_LIMIT", 80)
        for refused in (check_enumeration, congruence_class_counts):
            with pytest.raises(EnumerationLimitError,
                               match=r"d=2, q=2, k=1 exceed the enumeration guard of 80$"):
                refused(2, 2, 1)

    @pytest.mark.parametrize("d, q, k", [(2, 1, 10 ** 8), (2, 10 ** 30, 1), (10 ** 6, 1, 1)])
    def test_enumeration_guard_builds_no_power(self, d, q, k):
        # (q+1)^(d(k+1)) has up to 6*10^7 digits here; the guard must
        # refuse without computing it, with a short message
        with pytest.raises(EnumerationLimitError) as exc:
            congruence_class_counts(d, q, k)
        assert len(str(exc.value)) < 150
        assert f"d={d}, q={q}, k={k}" in str(exc.value)

    def test_validation(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                congruence_class_counts(*bad)
            with pytest.raises(ValueError, match="must all be >= 1"):
                check_enumeration(*bad)

    @pytest.mark.parametrize("d,q,k", LOOP_CASES)
    def test_matches_loop(self, d, q, k):
        assert congruence_class_counts(d, q, k) == congruence_counts_loop(d, q, k)

    def test_overflowing_key_matches_loop(self):
        # 66 pairs at radix 2 do not fit one int64 key, while the grid
        # {0,1} has only 2^12 = 4096 tuples of 12 points
        assert 2 ** 66 > 2 ** 63 and n_tuples(1, 1, 11) == 4096
        assert congruence_class_counts(1, 1, 11) == congruence_counts_loop(1, 1, 11)

    @settings(max_examples=50, deadline=None)
    @given(lattice_instances())
    def test_matches_enumeration(self, instance):
        assert congruence_class_counts(*instance) == congruence_counts_enumerated(*instance)

    @pytest.mark.parametrize("d,q,k", [(1, 1, 11), (2, 1, 9)])
    def test_word_rows_match_enumeration(self, d, q, k):
        # 66 pairs at radix 2 and 45 at radix 3 pack into 2 words each;
        # the fold of (2, 1, 9) adds the words one by one, each a column
        # at its word's range
        table = experiments._DistinctRows(k * (k + 1) // 2, d * q * q + 1)
        assert len(table.word_radix) == 2
        assert len(experiments._DistinctRows(2, table.word_radix).word_radix) == 2
        assert congruence_class_counts(d, q, k) == congruence_counts_enumerated(d, q, k)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_pairs_count_sums_of_squares(self, d):
        # k = 1: a pair's squared distance is a sum of d squares of axis
        # differences in 0..q, and each such sum occurs, so both counts are
        # the number of distinct sums; every q <= 30 the guard admits
        for q in range(1, 31):
            if n_tuples(d, q, 1) > experiments.ENUMERATION_LIMIT:
                break
            sums = {sum(c * c for c in squares)
                    for squares in itertools.combinations_with_replacement(range(q + 1), d)}
            assert congruence_class_counts(d, q, 1) == (len(sums), len(sums))

    @pytest.mark.parametrize("d,q,k,want", [
        (2, 99, 1, (3664, 3664)),
        (2, 12, 2, (4636, 26776)),
        (3, 20, 1, (727, 727)),
        (3, 6, 2, (6247, 35611)),
    ])
    def test_frozen_large_instances(self, d, q, k, want):
        # as the full enumeration counted them; all but (2, 12, 2) have the
        # largest q that the guard admits for their d and k
        assert n_tuples(d, q, k) <= experiments.ENUMERATION_LIMIT
        assert (d, q, k) == (2, 12, 2) or n_tuples(d, q + 1, k) > experiments.ENUMERATION_LIMIT
        assert congruence_class_counts(d, q, k) == want

    @pytest.mark.parametrize("d,q,k", [(2, 2, 2), (3, 1, 2), (1, 3, 3), (1, 1, 11)])
    def test_small_chunks_merge(self, monkeypatch, d, q, k):
        # chunks and fold blocks of at most `entries` int64 entries: the
        # (q+1)^(k+1) one-axis tuples of (1, 3, 3) and (1, 1, 11) come in 2
        # and 164 chunks, and every fold of (2, 2, 2) and (3, 1, 2), whose
        # one-axis tables hold 10 and 4 words, in 2 to 5 blocks
        entries = {(2, 2, 2): 20, (3, 1, 2): 8}.get((d, q, k), 2000)
        want = congruence_counts_loop(d, q, k)
        adds = []

        class Recorded(experiments._DistinctRows):
            def add(self, columns, count):
                adds.append((self, count))
                super().add(columns, count)

        monkeypatch.setattr(experiments, "_DistinctRows", Recorded)
        monkeypatch.setattr(experiments, "_LATTICE_CHUNK_ENTRIES", entries)
        assert congruence_class_counts(d, q, k) == want
        # the table, d - 1 folds and the unlabeled rows
        collectors = list(dict.fromkeys(rows for rows, _ in adds))
        assert len(collectors) == d + 1
        table = [count for rows, count in adds if rows is collectors[0]]
        assert sum(table) == (q + 1) ** (k + 1) and (d > 1 or len(table) > 1)
        for fold in collectors[1:d]:
            blocks = [count for rows, count in adds if rows is fold]
            assert len(blocks) > 1 and all(count <= entries for count in blocks)


class TestContentBound:
    def test_q_one_is_always_one(self):
        assert hausdorff_content_bound(2, 1, 3, 1.5) == 1.0

    def test_critical_s_in_plane(self):
        # s = 1 with d=2, k=1 zeroes the exponent
        for q in (1, 2, 17):
            assert hausdorff_content_bound(2, q, 1, 1.0) == 1.0

    def test_frozen_value(self):
        got = hausdorff_content_bound(2, 2, 1, 1.5)
        assert got == pytest.approx(2 ** (2 / 3), rel=1e-12)

    def test_decreasing_iff_below_critical(self):
        checked = 0
        for d in (2, 3, 4):
            for k in (1, 2, 3, 4):
                critical = d - d * (d - 1) / 2 / k
                for s in np.linspace(d / 2, d - 0.05, 8):
                    s = float(s)
                    if abs(s - critical) < 0.02:
                        continue
                    decreasing = (hausdorff_content_bound(d, 3, k, s)
                                  < hausdorff_content_bound(d, 2, k, s))
                    assert decreasing == (s < critical)
                    checked += 1
        assert checked >= 80

    def test_s_range(self):
        hausdorff_content_bound(2, 2, 1, 1.0)
        with pytest.raises(ValueError, match="s must lie"):
            hausdorff_content_bound(2, 2, 1, 0.99)
        with pytest.raises(ValueError, match="s must lie"):
            hausdorff_content_bound(2, 2, 1, 2.0)
        with pytest.raises(ValueError, match="s must lie"):
            hausdorff_content_bound(2, 2, 1, 2.5)

    @pytest.mark.parametrize("d, q, k, s", [
        (10, 10 ** 10, 1, 9.99),  # the bound is about 10^450
        (2, 10 ** 309, 1, 1.5),  # q itself is no float
        (2, 10 ** 4000, 1, 1.0),  # exponent 0, but float(q) overflows
        (2, 10 ** 309, 2, 1.0),  # exponent -2, but float(q) overflows
    ])
    def test_beyond_float_range_refused(self, d, q, k, s):
        with pytest.raises(ValueError, match="float range") as exc:
            hausdorff_content_bound(d, q, k, s)
        assert len(str(exc.value)) < 80

    def test_float_range_edge(self):
        # q^(2/3) stays finite for every q below the float maximum
        assert hausdorff_content_bound(2, 10 ** 308, 1, 1.5) == pytest.approx(1e308 ** (2 / 3))
        # below the float range the bound rounds to 0.0: q^-2 = 10^-400
        assert hausdorff_content_bound(2, 10 ** 200, 2, 1.0) == 0.0
        # exponent 3: (10^102)^3 = 10^306 is finite, (10^103)^3 is not
        assert hausdorff_content_bound(3, 10 ** 102, 1, 2.25) == pytest.approx(1e306)
        with pytest.raises(ValueError, match="float range"):
            hausdorff_content_bound(3, 10 ** 103, 1, 2.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            hausdorff_content_bound(1, 2, 1, 0.75)
        with pytest.raises(ValueError):
            hausdorff_content_bound(2, 0, 1, 1.0)


class TestLatticeSet:
    def test_frozen_small(self):
        ls = LatticeSampler(2, 2, 1.0)
        assert vars(ls) == {"d": 2, "q": 2, "s": 1.0, "radius": 0.25, "side": 1.5}
        assert ls.radius == pytest.approx(1 / 4)
        points = drawn_centers(ls)
        assert len(points) == 9
        assert (0.5, 0.5) in points
        assert all(0 <= c <= 1 for p in points for c in p)
        assert points == sorted(tuple(float(c) for c in p)
                                for p in reference_lattice_points(2, 2))

    def test_frozen_q4(self):
        ls = LatticeSampler(2, 4, 1.0)
        assert len(drawn_centers(ls)) == 25
        assert ls.radius == pytest.approx(1 / 16)

    def test_radius_formula(self):
        ls = LatticeSampler(3, 4, 2.5)
        assert ls.radius == pytest.approx(4 ** (-3 / 2.5), rel=1e-12)

    def test_point_guard(self):
        # (q+1)^d is the high of rng.integers, which must fit int64; a q
        # the old 10^7 point guard refused now draws
        with pytest.raises(EnumerationLimitError):
            LatticeSampler(2, 3037000499, 1.0)
        ls = LatticeSampler(2, 4000, 1.0)
        draws = ls.draw(np.random.default_rng(1), 100)
        assert draws.shape == (100, 2)
        centers = np.round(draws * 4000) / 4000
        assert np.linalg.norm(draws - centers, axis=1).max() <= ls.radius + 1e-12

    def test_point_guard_boundary(self):
        # decided by multiplying up to 2^63, so no test allocates (q+1)^d
        # points; each accepted size draws
        for d, q, s in ((2, 3037000498, 1.5),  # 3037000499^2 < 2^63
                        (63, 1, 40.0)):        # 2^63, the largest high rng.integers takes
            ls = LatticeSampler(d, q, s)
            draws = ls.draw(np.random.default_rng(5), 50)
            assert draws.shape == (50, d) and np.isfinite(draws).all()
            assert draws.min() >= -ls.radius and draws.max() <= 1 + ls.radius
        for d, q, s in ((2, 3037000499, 1.5),  # 3037000500^2 > 2^63
                        (64, 1, 40.0)):
            with pytest.raises(EnumerationLimitError,
                               match=rf"d={d}, q={q} exceed the int64 index guard of 2\^63$"):
                LatticeSampler(d, q, s)
        with pytest.raises(EnumerationLimitError) as exc:
            LatticeSampler(2, 10 ** 40, 1.0)
        assert len(str(exc.value)) < 150

    def test_s_range(self):
        with pytest.raises(ValueError, match="s must lie"):
            LatticeSampler(2, 2, 2.0)

    def test_inputs_checked_in_order(self):
        # d, then q, then the s range, then the index guard
        for args, match in (((1, 0, 5.0), "d must be >= 2"), ((2, 0, 5.0), "q must be >= 1"),
                            ((2, 10 ** 40, 5.0), "s must lie")):
            with pytest.raises(ValueError, match=match) as exc:
                LatticeSampler(*args)
            assert not isinstance(exc.value, EnumerationLimitError)


class TestSamplers:
    def test_unit_cube(self):
        rng = np.random.default_rng(1)
        draws = UnitCubeSampler(3).draw(rng, 500)
        assert draws.shape == (500, 3)
        assert draws.min() >= 0 and draws.max() < 1

    def test_lattice_sampler_stays_in_balls(self):
        sampler = LatticeSampler(2, 2, 1.0)
        rng = np.random.default_rng(2)
        draws = sampler.draw(rng, 400)
        centers = np.array([[float(c) for c in p] for p in reference_lattice_points(2, 2)])
        dists = np.linalg.norm(draws[:, None, :] - centers[None, :, :], axis=2)
        assert dists.min(axis=1).max() <= sampler.radius + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_lattice_draw_matches_stored_grid(self, data):
        # the digit decode gives the bits of the draw from a stored grid
        d = data.draw(st.integers(2, 4))
        q = data.draw(st.integers(1, 12).filter(lambda q: (q + 1) ** d <= 20000))
        s = data.draw(st.floats(d / 2, d, exclude_max=True))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        count = data.draw(st.integers(1, 600))
        sampler = LatticeSampler(d, q, s)
        draws = sampler.draw(np.random.default_rng(seed), count)
        expected = reference_lattice_draw(sampler, np.random.default_rng(seed), count)
        assert np.array_equal(draws, expected)

    @pytest.mark.parametrize("d, q, s, digest, radius, side", [
        (2, 3, 1.5, "5f5fcf5f272f23f5ceab24d98542b01660b8cdc817eec1699f891da94878822f",
         "0x1.d955aa4f1049dp-3", "0x1.76556a93c4127p+0"),
        (3, 7, 2.5, "7fdb3b3fd459600a68db532af4ca8d92b2588ba5baeb8cfcdbbfd11488bf46ef",
         "0x1.8c7fcaa5a3fd2p-4", "0x1.318ff954b47fap+0"),
        (63, 1, 40.0, "503d30e4ccda64039ee93fe45a3d01038eccb4250fe36da66a95038bd04dd14a",
         "0x1.0000000000000p+0", "0x1.8000000000000p+1"),
        (2, 3037000498, 1.5, "d80583f0c57d2da75205deaedb8234bd0dadc3014ae9020c323058f8c180a65b",
         "0x1.00000003b9e08p-42", "0x1.0000000000800p+0"),
    ])
    def test_lattice_draws_are_pinned(self, d, q, s, digest, radius, side):
        # the digest of 1000 draws' float64 bytes, the radius and the side
        # are frozen, up to the largest index (q+1)^d the guard admits
        sampler = LatticeSampler(d, q, s)
        draws = sampler.draw(np.random.default_rng(34), 1000)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest
        assert (sampler.radius.hex(), sampler.side.hex()) == (radius, side)

    def test_cantor_digits(self):
        rng = np.random.default_rng(3)
        draws = CantorSampler(2, depth=35).draw(rng, 200)
        assert draws.shape == (200, 2)
        assert draws.min() >= 0 and draws.max() <= 1
        for x in draws.ravel():
            for _ in range(10):
                if x >= 0.5:
                    x = 3 * x - 2
                else:
                    assert x < 1 / 3 + 1e-7
                    x = 3 * x

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitCubeSampler(0)
        with pytest.raises(ValueError):
            CantorSampler(0)
        with pytest.raises(ValueError, match="depth"):
            CantorSampler(2, depth=0)


class TestSampling:
    def test_tuple_shape_and_determinism(self):
        sampler = UnitCubeSampler(2)
        a = sample_framework_tuples(sampler, 3, 50, seed=9)
        b = sample_framework_tuples(sampler, 3, 50, seed=9)
        c = sample_framework_tuples(sampler, 3, 50, seed=10)
        assert a.shape == (50, 3, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            sample_framework_tuples(UnitCubeSampler(2), 3, 0, seed=1)

    def test_distance_images(self):
        tuples = np.array([[[0.0, 0.0], [3.0, 4.0]]])
        img = distance_images(complete_graph(2), tuples)
        assert img.shape == (1, 1)
        assert img[0, 0] == pytest.approx(5.0)

    def test_distance_images_edge_order(self):
        tuples = np.array([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]])
        img = distance_images(complete_graph(3), tuples)
        assert img[0] == pytest.approx([1.0, math.sqrt(2), 1.0])

    def test_edgeless_graph(self):
        tuples = np.zeros((4, 3, 2))
        assert distance_images(make_graph(3, []), tuples).shape == (4, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            distance_images(complete_graph(3), np.zeros((4, 2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(framework_tuples())
    def test_distance_images_match_norm_reference(self, case):
        g, tuples = case
        with np.errstate(over="ignore", under="ignore"):
            got = distance_images(g, tuples)
            want = distance_images_reference(g, tuples)
        assert same_bits(got, want)


SAMPLE_GRAPHS = {"k2": complete_graph(2), "k3": complete_graph(3),
                 "k4": complete_graph(4), "path-4": path_graph(4)}
STREAM_SAMPLERS = {"cube": UnitCubeSampler,
                   "cantor-1": lambda d: CantorSampler(d, depth=1),
                   "cantor-35": CantorSampler}


class TestChunkedSample:
    @pytest.mark.parametrize("sampler_name", STREAM_SAMPLERS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("graph_name", SAMPLE_GRAPHS)
    def test_matches_whole_array_reference(self, monkeypatch, graph_name, d, sampler_name):
        # chunks of 1 to 80 tuples: n = 301 crosses 4 to 300 chunk boundaries
        g, sampler = SAMPLE_GRAPHS[graph_name], STREAM_SAMPLERS[sampler_name](d)
        want_cloud, want_residual, want_degenerate = sample_reference(g, sampler, 301, 17)
        want_tuples = sampler.draw(np.random.default_rng(17), 301 * g.n_vertices)
        for entries in (1, 37, 640):
            monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", entries)
            tuples = sample_framework_tuples(sampler, g.n_vertices, 301, 17)
            assert same_bits(tuples, want_tuples.reshape(301, g.n_vertices, d))
            assert same_bits(distance_images(g, tuples), want_cloud)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, residual, degenerate = sample_box_dimension(g, sampler, 301, 17, [0.5, 0.25])
            assert (residual, degenerate) == (want_residual, want_degenerate)

    def test_k4_degenerate_counts_fold_across_chunks(self, monkeypatch):
        # depth-1 Cantor points take 4 values, so most K4 tuples repeat one
        sampler = CantorSampler(2, depth=1)
        _, want_residual, want_degenerate = sample_reference(complete_graph(4), sampler, 500, 1)
        assert 0 < want_degenerate < 500 and want_residual is not None
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 24)
        _, *got = sample_box_dimension(complete_graph(4), sampler, 500, 1, [0.5, 0.25])
        assert got == [want_residual, want_degenerate]

    def test_max_residual_is_pinned(self):
        # 40000 tuples cross two chunk boundaries; depth-2 Cantor points
        # take 16 values, so many K4 tuples repeat a point
        g, scales = complete_graph(4), [0.5, 0.25]
        _, top, degenerate = sample_box_dimension(g, UnitCubeSampler(2), 40000, 33, scales)
        assert (top.hex(), degenerate) == ("0x1.17132138cc295p-35", 0)
        _, top, degenerate = sample_box_dimension(g, CantorSampler(2, depth=2), 40000, 33, scales)
        assert (top.hex(), degenerate) == ("0x1.6a09e72e00000p-24", 7070)

    def test_lattice_result_is_pinned(self):
        # 40000 K4 tuples cross two chunk boundaries, where the lattice
        # stream depends on the chunking
        sampler = LatticeSampler(2, 7, 1.5)
        fit, top, degenerate = sample_box_dimension(complete_graph(4), sampler, 40000, 34,
                                                    [0.5, 0.25, 0.125])
        assert fit.counts == (461, 6120, 31423) and fit.slope.hex() == "0x1.85d179b27f900p+1"
        assert (top.hex(), degenerate) == ("0x1.30f70f688c923p-32", 0)

    def test_all_degenerate_has_no_residual(self, monkeypatch):
        def coincident(sampler, rng, count):
            return np.zeros((count, sampler.d))

        monkeypatch.setattr(experiments.UnitCubeSampler, "draw", coincident)
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 24)
        fit, *got = sample_box_dimension(complete_graph(4), UnitCubeSampler(2), 10, 1, [0.5, 0.25])
        assert got == [None, 10] and fit.counts == (1, 1)

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 100])
    def test_chunk_length_does_not_depend_on_n(self, monkeypatch, n):
        # k3 in R^2 draws 6 entries per tuple, so 40 entries are 6 tuples
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 40)
        lengths = [c.shape[0] for c in experiments._sample_chunks(UnitCubeSampler(2), 3, n, 1)]
        assert sum(lengths) == n
        assert lengths[:-1] == [6] * (len(lengths) - 1) and 1 <= lengths[-1] <= 6

    def test_bad_count_refused_before_drawing(self):
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            sample_box_dimension(complete_graph(2), UnitCubeSampler(2), 0, 1, [0.5, 0.25])

    def test_lattice_equal_up_to_one_chunk(self):
        # K4 in the plane draws 8 entries per tuple: 5000 tuples are one chunk
        sampler = LatticeSampler(2, 7, 1.5)
        assert 5000 * 8 <= experiments._SAMPLE_CHUNK_ENTRIES
        want_cloud, *want = sample_reference(complete_graph(4), sampler, 5000, 3)
        tuples = sample_framework_tuples(sampler, 4, 5000, 3)
        assert same_bits(distance_images(complete_graph(4), tuples), want_cloud)
        _, *got = sample_box_dimension(complete_graph(4), sampler, 5000, 3, [0.5, 0.25])
        assert got == want

    def test_lattice_reruns_identical_above_one_chunk(self, monkeypatch):
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 100)
        g, scales = complete_graph(4), [0.5, 0.25]
        sampler = LatticeSampler(2, 7, 1.5)
        first = sample_box_dimension(g, sampler, 1000, 3, scales)
        assert same_estimate(sample_box_dimension(g, sampler, 1000, 3, scales), first)
        assert same_estimate(cloud_route(g, sampler, 1000, 3, scales), first)
        # the lattice stream depends on the chunking, unlike the others
        tuples = sample_framework_tuples(sampler, 4, 1000, 3)
        assert not same_bits(sample_reference(g, sampler, 1000, 3)[0], distance_images(g, tuples))

    def test_tuples_peak_memory_is_the_tuples_and_one_chunk(self):
        # besides the tuples, a chunk's draws of _SAMPLE_CHUNK_ENTRIES
        # doubles, copied in, and the next chunk's (4 chunks of entries);
        # the reference, which draws all 200000 K4 tuples at once and
        # measures them whole, cannot fit
        n, g = 200000, complete_graph(4)
        bound = n * 4 * 2 * 8 + 4 * 8 * experiments._SAMPLE_CHUNK_ENTRIES
        assert traced_peak(lambda: sample_framework_tuples(UnitCubeSampler(2), 4, n, 1)) < bound
        assert traced_peak(lambda: sample_reference(g, UnitCubeSampler(2), n, 1)) > bound


def cloud_route(g, sampler, n, seed, scales):
    """sample_box_dimension's reference: all n tuples are drawn and held,
    then the box counts of their whole distance cloud and, for K4 in the
    plane, the largest finite residual and the number of non-finite ones."""
    tuples = sample_framework_tuples(sampler, g.n_vertices, n, seed)
    fit = fit_box_dimension(distance_images(g, tuples), scales)
    if sampler.d != 2 or g.edges != complete_graph(4).edges:
        return fit, None, 0
    residuals = k4_euler_residuals(tuples)
    finite = residuals[np.isfinite(residuals)]
    return fit, float(finite.max()) if finite.size else None, residuals.size - finite.size


def same_estimate(got, want):
    """Equal streamed and cloud-route results, the slope bit for bit."""
    (got_fit, *got_rest), (want_fit, *want_rest) = got, want
    return (got_fit.scales == want_fit.scales and got_fit.counts == want_fit.counts
            and got_fit.slope.hex() == want_fit.slope.hex() and got_rest == want_rest)


@st.composite
def streamed_cases(draw):
    """(graph, sampler, n, seed, scales, chunk entries, buffer rows) for
    the three samplers, K2, K3, K4 and path-4, d = 1..3 (2..3 for the
    lattice sampler), and sometimes a scale fine enough that radix^m
    passes 2^63 once the graph has two or more edges."""
    g = SAMPLE_GRAPHS[draw(st.sampled_from(sorted(SAMPLE_GRAPHS)))]
    kind = draw(st.sampled_from(["cube", "cantor", "lattice"]))
    d = draw(st.integers(2 if kind == "lattice" else 1, 3))
    if kind == "cube":
        sampler = UnitCubeSampler(d)
    elif kind == "cantor":
        sampler = CantorSampler(d, depth=draw(st.sampled_from([1, 2, 35])))
    else:
        q, s = draw(st.integers(1, 8)), draw(st.sampled_from([0.5, 0.75]))
        sampler = LatticeSampler(d, q, s * d)
    exponents = draw(st.lists(st.integers(-2, 12), min_size=2, max_size=4, unique=True))
    if draw(st.booleans()):
        exponents.append(draw(st.integers(20, 60)))
    scales = [2.0 ** -e for e in exponents]
    return (g, sampler, draw(st.integers(1, 300)), draw(st.integers(0, 2 ** 32 - 1)), scales,
            draw(st.sampled_from([1, 7, 37, 640, 2 ** 17])),
            draw(st.sampled_from([1, 5, 64, 2 ** 17])))


class NarrowCubeSampler(UnitCubeSampler):
    """Draws in [0,1]^d that claim to lie in a cube of side 1/4."""

    side = 0.25


class GridCornerSampler(UnitCubeSampler):
    """Draws on the grid {0, 1/4, ..., 1}^d: lengths reach the bound
    side * sqrt(d) of the cube sampler itself."""

    def draw(self, rng, count):
        return rng.integers(0, 5, size=(count, self.d)) / 4


class TestStreamedCover:
    @settings(max_examples=150, deadline=None)
    @given(streamed_cases())
    def test_matches_the_cloud_route(self, case):
        g, sampler, n, seed, scales, entries, rows = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", entries)
            patch.setattr(experiments, "_MERGE_BUFFER_ROWS", rows)
            want = cloud_route(g, sampler, n, seed, scales)
            got = sample_box_dimension(g, sampler, n, seed, scales)
        assert same_estimate(got, want)

    def test_word_rows_match_the_cloud_route(self, monkeypatch):
        # at eps = 2^-30 a K4 length spans about 1.5 * 2^30 cells: a row
        # holds the six cells at eps = 1/2, in range(3), then the six 29-bit
        # digits down to 2^-30, and takes four words; the coarse cell is the
        # first word's high part, so the rows must be sorted numerically,
        # not by their native bytes, which are little-endian
        g, sampler, scales = complete_graph(4), UnitCubeSampler(2), [0.5, 2.0 ** -30]
        # chunks of 100 tuples, merged 500 rows at a time
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 800)
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 500)
        want = cloud_route(g, sampler, 3000, 4, scales)
        sorted_, made = [], []
        keys, rows = experiments._keys, experiments._DistinctRows
        monkeypatch.setattr(experiments, "_keys",
                            lambda words: sorted_.append(words.shape) or keys(words))
        monkeypatch.setattr(experiments, "_DistinctRows",
                            lambda *args: made.append(rows(*args)) or made[-1])
        assert same_estimate(sample_box_dimension(g, sampler, 3000, 4, scales), want)
        assert want[0].counts[0] < 3 ** 6 < want[0].counts[1] == 3000
        # the fine grid has more cells than there are tuples: the one
        # collector holds all 3000 rows, never merged, and sorts them once
        assert [w for w, _, _ in made[0].columns] == [0] * 7 + [1, 1, 2, 2, 3]
        assert len(made) == 1 and made[0].runs == [] and sorted_ == [(3000, 4)]

    def test_word_rows_merged_through_runs_match_the_cloud_route(self, monkeypatch):
        # a path of two edges in the line at scales 2^40 down to 2^-5: a row
        # holds the two cells at 2^40, both 0, then the two digits of 41, 2
        # and 2 bits that each finer scale adds, and takes two words. The
        # finest grid of 33^2 cells is smaller than n, so the rows are
        # merged through 256-row runs, and the coarser counts are proper
        # prefixes of two-word keys
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 256)
        g, sampler = path_graph(3), UnitCubeSampler(1)
        scales = [2.0 ** 40, 0.5, 0.125, 2.0 ** -5]
        merged, made = [], []
        merge_runs, rows = experiments._merge_runs, experiments._DistinctRows
        monkeypatch.setattr(experiments, "_merge_runs",
                            lambda runs: merged.append(len(runs)) or merge_runs(runs))
        monkeypatch.setattr(experiments, "_DistinctRows",
                            lambda *args: made.append(rows(*args)) or made[-1])
        got = sample_box_dimension(g, sampler, 3000, 3, scales)
        assert len(made[0].word_radix) == 2 and merged
        want = cloud_route(g, sampler, 3000, 3, scales)
        assert same_estimate(got, want) and want[0].counts == (1, 4, 64, 754)

    @pytest.mark.parametrize("n, rows", [(17, 17), (18, 4)])
    def test_a_grid_of_n_cells_keeps_one_key_per_tuple(self, monkeypatch, n, rows):
        # K2 in the line at eps = 1/16: every length lies in [0, 1], so the
        # finest grid has 17 cells; up to 17 tuples may all lie in distinct
        # cells, and their rows are kept whole, else merged through the
        # buffer. A row is the cell at eps = 1/2, in range(3), and the 3
        # bits that eps = 1/16 adds
        made = []

        class Recorded(experiments._DistinctRows):
            def __init__(self, m, radix, rows=0):
                super().__init__(m, radix, rows)
                made.append((m, radix, self.rows))

        monkeypatch.setattr(experiments, "_DistinctRows", Recorded)
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 4)
        want = cloud_route(complete_graph(2), UnitCubeSampler(1), n, 2, [1 / 16, 1 / 2])
        made.clear()
        got = sample_box_dimension(complete_graph(2), UnitCubeSampler(1), n, 2, [1 / 16, 1 / 2])
        assert same_estimate(got, want)
        assert made == [(2, [3, 8], rows)]

    @pytest.mark.parametrize("exponents", [(1, 64), (64, 1, 70), (1, 62, 63)])
    def test_int64_refusal_matches_the_cloud_route(self, monkeypatch, exponents):
        # the first scale in list order whose cells leave int64 on the whole
        # cloud is named, with the largest |x / eps| of the whole cloud
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 60)
        g, scales = complete_graph(3), [2.0 ** -e for e in exponents]
        with pytest.raises(ValueError) as want:
            cloud_route(g, UnitCubeSampler(2), 500, 1, scales)
        with pytest.raises(ValueError) as got:
            sample_box_dimension(g, UnitCubeSampler(2), 500, 1, scales)
        assert "int64" in str(want.value) and str(got.value) == str(want.value)

    def test_late_non_finite_length_refused_after_the_last_draw(self, monkeypatch):
        # the third chunk holds an infinite coordinate, so its lengths are
        # not finite; the refusal names it, as the cloud route does, and
        # comes after every chunk is drawn
        draws = []
        draw = UnitCubeSampler.draw

        def late_inf(sampler, rng, count):
            pts = draw(sampler, rng, count)
            draws.append(count)
            if len(draws) == 3:
                pts[0, 0] = math.inf
            return pts

        monkeypatch.setattr(experiments.UnitCubeSampler, "draw", late_inf)
        monkeypatch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", 60)
        with pytest.raises(ValueError, match="cloud has a non-finite entry"):
            cloud_route(complete_graph(3), UnitCubeSampler(2), 100, 1, [0.5, 0.25])
        assert len(draws) == 10
        draws.clear()
        with pytest.raises(ValueError, match="cloud has a non-finite entry"):
            sample_box_dimension(complete_graph(3), UnitCubeSampler(2), 100, 1, [0.5, 0.25])
        assert len(draws) == 10

    @pytest.mark.parametrize("graph_name", ["k3", "k4"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_lengths_at_the_bound_match_the_cloud_route(self, graph_name, d):
        # cells as far out as the radix admits, at scales that divide the
        # grid exactly: one cell too few would alias rows
        g, scales = SAMPLE_GRAPHS[graph_name], [1.0, 0.5, 0.25, 0.125]
        want = cloud_route(g, GridCornerSampler(d), 2000, 5, scales)
        assert want[0].counts[0] > 1
        assert same_estimate(sample_box_dimension(g, GridCornerSampler(d), 2000, 5, scales), want)

    def test_length_past_the_bound_raises(self):
        # the sampler's side undercounts its draws: the cells pass the radix
        # fixed from it, which raises rather than miscounts
        with pytest.raises(ValueError, match="exceeds the bound"):
            sample_box_dimension(complete_graph(2), NarrowCubeSampler(2), 1000, 1, [0.5, 0.25])

    def test_edgeless_graph_and_bad_scales_refused(self):
        g = make_graph(3, [])
        with pytest.raises(ValueError, match="empty cloud"):
            cloud_route(g, UnitCubeSampler(2), 10, 1, [0.5, 0.25])
        with pytest.raises(ValueError, match="empty cloud"):
            sample_box_dimension(g, UnitCubeSampler(2), 10, 1, [0.5, 0.25])
        with pytest.raises(ValueError, match="two distinct scales"):
            sample_box_dimension(complete_graph(2), UnitCubeSampler(2), 10, 1, [0.5, 0.5])

    def test_every_sampler_states_its_side(self):
        # every draw, the centers and radius offsets of the lattice sampler
        # included, lies in a box of the stated side
        rng = np.random.default_rng(2)
        for sampler in (UnitCubeSampler(3), CantorSampler(2, depth=3),
                        LatticeSampler(2, 1, 1.0)):
            pts = sampler.draw(rng, 20000)
            assert np.ptp(pts, axis=0).max() <= sampler.side
        assert LatticeSampler(2, 4, 1.5).side == 1 + 2 * 4 ** (-2 / 1.5)

    def test_k4_cover_peak_does_not_grow_with_n(self):
        # one chunk's draws, lengths and residual work columns (4 chunks of
        # entries), per scale the key buffer and its merge copy, and the
        # distinct cells, at most 3^6 and 6^6 keys at eps = 1/2 and 1/4
        # (twice, while merged); the cloud alone of 200000 K4 tuples is
        # 9.6 MB, so the route that holds it cannot fit
        g, scales = complete_graph(4), [0.5, 0.25]
        bound = (4 * 8 * experiments._SAMPLE_CHUNK_ENTRIES
                 + len(scales) * 2 * 8 * experiments._MERGE_BUFFER_ROWS
                 + 2 * 8 * (3 ** 6 + 6 ** 6))
        for n in (200000, 400000):
            assert traced_peak(
                lambda: sample_box_dimension(g, UnitCubeSampler(2), n, 1, scales)) < bound
        assert traced_peak(lambda: cloud_route(g, UnitCubeSampler(2), 200000, 1, scales)) > bound

    @pytest.mark.parametrize("exponents", [(3, 4), (1, 2, 3, 4), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)])
    def test_one_collector_for_every_scale(self, monkeypatch, exponents):
        made, rows = [], experiments._DistinctRows
        monkeypatch.setattr(experiments, "_DistinctRows",
                            lambda *args: made.append(rows(*args)) or made[-1])
        scales = [2.0 ** -e for e in exponents]
        got = sample_box_dimension(complete_graph(4), UnitCubeSampler(2), 2000, 3, scales)
        assert len(made) == 1 and len(made[0].columns) == 6 * len(scales)
        made.clear()
        assert same_estimate(got, cloud_route(complete_graph(4), UnitCubeSampler(2), 2000, 3, scales))
        # the cloud route covers once per scale
        assert len(made) == len(scales)

    def test_k4_ten_scales_hold_one_collector(self):
        # ten scales 2^-3..2^-12 of 200000 K4 tuples: every grid has more
        # cells than tuples (12^6 at 2^-3), so a collector per scale would
        # hold ten keys per tuple and not fit. The one collector holds a
        # row of two words per tuple, sorted once in place (as
        # covering_count's word rows: the words, an argsort index, one
        # reordered column and one block of neighbour differences), beside
        # one chunk's draws, lengths and work columns (4 chunks of entries)
        n, scales = 200000, [2.0 ** -e for e in range(3, 13)]
        bound = (2 * 8 * n + 8 * n + 8 * n + 2 * 8 * experiments._MERGE_BUFFER_ROWS
                 + 4 * 8 * experiments._SAMPLE_CHUNK_ENTRIES)
        assert traced_peak(
            lambda: sample_box_dimension(complete_graph(4), UnitCubeSampler(2), n, 1, scales)) < bound

    @pytest.mark.parametrize("scales", [[0.3, 0.1], [0.5, 0.3], [2.0 ** -3, 2.0 ** -4, 0.1]])
    def test_non_dyadic_scales_refused_before_any_draw(self, monkeypatch, scales):
        def draw(sampler, rng, count):
            raise AssertionError("drawn")

        monkeypatch.setattr(experiments.UnitCubeSampler, "draw", draw)
        with pytest.raises(ValueError, match="times a power of two"):
            sample_box_dimension(complete_graph(3), UnitCubeSampler(2), 100, 1, scales)

    def test_scales_the_finest_times_powers_of_two_accepted(self):
        # 0.75 = 2 * 0.375 and 3 * 2^-9 = 2^-2 * 3 * 2^-7: not powers of two
        # themselves, but nested grids all the same
        for scales in ([0.75, 0.375], [3 * 2.0 ** -5, 3 * 2.0 ** -9, 3 * 2.0 ** -7]):
            want = cloud_route(complete_graph(4), UnitCubeSampler(2), 3000, 2, scales)
            got = sample_box_dimension(complete_graph(4), UnitCubeSampler(2), 3000, 2, scales)
            assert same_estimate(got, want)


class TestDistinctRows:
    @pytest.mark.parametrize("m, radix", [(2, 7), (3, [2 ** 40, 2 ** 30, 2])])
    def test_the_buffer_stays_at_its_rows(self, monkeypatch, m, radix):
        # chunks of 97 rows into a 100-row buffer, and two longer than it
        # (250 and 459 rows): every flush but the last sorts a full buffer
        # of 100 rows, and the buffer never grows
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 100)
        flushed = []
        flush = experiments._DistinctRows._flush
        monkeypatch.setattr(experiments._DistinctRows, "_flush", lambda self, keep=0: (
            self.fill and flushed.append((self.fill, self.words.shape[0]))) or flush(self, keep))
        rng = np.random.default_rng(4)
        radices = [radix] * m if isinstance(radix, int) else radix
        rows = np.column_stack([rng.integers(0, r, size=1000, dtype=np.int64) for r in radices])
        rows[500:] = rows[:500]
        keys = experiments._DistinctRows(m, radix)
        for start, stop in [(0, 97), (97, 194), (194, 444), (444, 541), (541, 1000)]:
            keys.add(rows[start:stop].T, stop - start)
        assert keys.count() == len(np.unique(rows, axis=0))
        assert all(size == 100 for size, _ in flushed[:-1]) and len(flushed) == 10
        assert all(shape == 100 for _, shape in flushed)

    def test_lattice_fold_blocks_under_the_buffer_keep_it(self, monkeypatch):
        # the fold of (2, 2, 2) adds blocks of 2 * 10 sums; a 21-row buffer
        # takes one, and the next is split across a flush, not grown into
        monkeypatch.setattr(experiments, "_LATTICE_CHUNK_ENTRIES", 20)
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 21)
        shapes = []
        flush = experiments._DistinctRows._flush
        monkeypatch.setattr(experiments._DistinctRows, "_flush", lambda self, keep=0: (
            shapes.append(self.words.shape[0])) or flush(self, keep))
        assert congruence_class_counts(2, 2, 2) == congruence_counts_loop(2, 2, 2)
        assert len(shapes) > 3 and set(shapes) == {21}

    @pytest.mark.parametrize("m, radix", [(3, 5), (1, 2 ** 63), (2, 2 ** 40), (30, 7), (4, 1)])
    def test_many_small_chunks_merge_to_the_distinct_rows(self, monkeypatch, m, radix):
        # 2000 rows drawn from 40, added in chunks of 1 to 100 rows; a
        # chunk longer than the 64-row buffer grows it
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 64)
        merges = []  # the rows of each buffer sorted into a run
        flush = experiments._DistinctRows._flush
        monkeypatch.setattr(experiments._DistinctRows, "_flush", lambda self, keep=0: (
            self.fill and merges.append(self.fill)) or flush(self, keep))
        rng = np.random.default_rng(m)
        pool = rng.integers(0, radix, size=(40, m), dtype=np.int64, endpoint=False)
        pool[:2] = [0] * m, [radix - 1] * m
        rows = pool[rng.integers(0, 40, size=2000)]
        keys = experiments._DistinctRows(m, radix)
        start = 0
        while start < len(rows):
            chunk = rows[start:start + int(rng.integers(1, 101))]
            keys.add(chunk.T, len(chunk))
            start += len(chunk)
        # distinct() consumes the rows, as counting does
        if (m, radix) == (3, 5):
            assert np.array_equal(keys.distinct()[:, 0], np.unique(rows @ [25, 5, 1]))
        elif (m, radix) == (2, 2 ** 40):
            # a word per column: the distinct rows in numeric order
            assert np.array_equal(keys.distinct(), np.unique(rows, axis=0))
        else:
            assert keys.count() == len(np.unique(rows, axis=0))
        assert len(merges) <= math.ceil(len(rows) / 64) + 1
        assert all(size >= 64 for size in merges[:-1])

    def test_each_key_is_merged_a_logarithmic_number_of_times(self, monkeypatch):
        # 400000 distinct keys through a 4096-row buffer make 98 runs; with
        # runs merged as a binary counter each key takes part in at most
        # log2(98) + 1 < 8 merges, where merging every buffer into all the
        # keys so far would pass each key about 49 times
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 2 ** 12)
        passed = []
        merge_runs = experiments._merge_runs
        monkeypatch.setattr(experiments, "_merge_runs",
                            lambda runs: passed.append(sum(map(len, runs))) or merge_runs(runs))
        n = 400000
        rows = np.random.default_rng(8).permutation(n).astype(np.int64)[:, None]
        keys = experiments._DistinctRows(1, n)
        for start in range(0, n, 1024):
            keys.add(rows[start:start + 1024].T, len(rows[start:start + 1024]))
        assert keys.count() == n
        assert 0 < len(passed) <= -(-n // 2 ** 12) + 1
        assert sum(passed) <= n * (math.log2(-(-n // 2 ** 12)) + 1)

    def test_count_merges_down_to_two_runs_and_builds_not_their_merge(self, monkeypatch):
        # four buffers of 4 rows: at the count the runs hold 2 and 1 buffers
        # and the fourth buffer becomes a run; the runs of 1 merge into one
        # of 2, and the last merge, of the two runs of 2, is counted on the
        # sorted keys, not built
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 4)
        rows = np.array([[0], [1], [2], [3], [2], [3], [4], [5], [5], [6], [0], [7],
                         [8], [1], [9], [8]])
        keys = experiments._DistinctRows(1, 10)
        for start in range(0, 16, 4):
            keys.add(rows[start:start + 4].T, 4)
        merged, merge_runs = [], experiments._merge_runs
        monkeypatch.setattr(experiments, "_merge_runs",
                            lambda runs: merged.append(len(runs)) or merge_runs(runs))
        assert keys.buffers == [2, 1] and keys.fill == 4
        assert keys.count() == 10 and merged == [2]

    def test_merge_frees_the_old_keys(self, monkeypatch):
        # 400000 distinct keys merged 16384 at a time: the last merges hold
        # the concatenated and the merged keys, about twice the distinct
        # keys; keeping the old keys too would need three times
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 2 ** 14)
        n = 400000
        rows = np.random.default_rng(7).permutation(n).astype(np.int64)[:, None] * 3

        def collect():
            keys = experiments._DistinctRows(1, 3 * n)
            for start in range(0, n, 2 ** 14):
                chunk = rows[start:start + 2 ** 14]
                keys.add(chunk.T, len(chunk))
            assert keys.count() == n

        assert traced_peak(collect) < 2.5 * 8 * n

    def test_counts_hold_one_block_of_neighbour_differences(self, monkeypatch):
        # three blocks of 2^17 sorted two-word rows: past the sort, the
        # comparison of neighbours holds one block of their differences
        # (4 MiB) and a few boolean columns of a block, not two blocks
        n, block = 3 * 2 ** 17, 2 * 8 * experiments._MERGE_BUFFER_ROWS
        rows = np.random.default_rng(9).integers(0, 2 ** 40, size=(n, 2))
        keys = experiments._DistinctRows(2, 2 ** 40, n)
        keys.add(rows.T, n)
        assert len(keys.word_radix) == 2
        held, sorted_rows = [], experiments._rows

        def reset_at_the_rows(sorted_keys):
            out = sorted_rows(sorted_keys)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(experiments, "_rows", reset_at_the_rows)
        counted = []
        peak = traced_peak(lambda: counted.append(keys.count()))
        assert counted == [len(np.unique(rows, axis=0))]
        assert peak - held[0] < 1.5 * block

    def test_one_buffer_is_counted_without_a_merge(self, monkeypatch):
        merges = []
        monkeypatch.setattr(experiments, "_distinct_sorted", lambda *args: merges.append(1))
        rows = np.random.default_rng(3).integers(0, 9, size=(500, 4))
        keys = experiments._DistinctRows(4, 9, 500)
        keys.add(rows[:300].T, 300)
        keys.add(rows[300:].T, 200)
        assert keys.count() == len(np.unique(rows, axis=0)) and merges == []

    @pytest.mark.parametrize("d,q,k", [(2, 2, 2), (3, 1, 2), (1, 1, 11)])
    def test_lattice_counts_across_buffers(self, monkeypatch, d, q, k):
        want = congruence_counts_loop(d, q, k)
        monkeypatch.setattr(experiments, "_LATTICE_CHUNK_ENTRIES", 500)
        monkeypatch.setattr(experiments, "_MERGE_BUFFER_ROWS", 70)
        assert congruence_class_counts(d, q, k) == want

    @settings(max_examples=100, deadline=None)
    @given(clouds(), st.sampled_from([1.0, 0.3, 2.0 ** -4]), st.sampled_from([1, 5, 64]))
    def test_covering_in_small_chunks(self, cloud, eps, entries):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "_SAMPLE_CHUNK_ENTRIES", entries)
            assert covering_count(cloud, eps) == covering_reference(cloud, eps)


class TestCovering:
    def test_holds_keys_and_two_columns(self):
        # besides the cloud: the keys, one float and one int64 column, then
        # the bool marks of the distinct keys, plus a 64 KiB allowance
        n = 200000
        cloud = np.random.default_rng(5).random((n, 3))
        bound = 3 * 8 * n + n + 2 ** 16
        assert traced_peak(lambda: covering_count(cloud, 2.0 ** -8)) < bound
        assert traced_peak(lambda: covering_reference(cloud, 2.0 ** -8)) > bound

    def test_word_rows_hold_words_keys_and_one_ranking(self):
        # at eps = 2^-12 six columns of 4097 cells pack into two words per
        # point, five columns in the first: besides the cloud, the words,
        # sorted in place through the argsort index of the leading word and
        # one column reordered by it, and one block of neighbour
        # differences, plus a 64 KiB allowance
        n = 200000
        cloud = np.random.default_rng(5).random((n, 6))
        assert [w for w, _, _ in experiments._DistinctRows(6, 4097).columns] == [0] * 5 + [1]
        bound = 2 * 8 * n + 8 * n + 8 * n + 2 * 8 * experiments._MERGE_BUFFER_ROWS + 2 ** 16
        assert traced_peak(lambda: covering_count(cloud, 2.0 ** -12)) < bound
        assert traced_peak(lambda: covering_reference(cloud, 2.0 ** -12)) > bound

    def test_merge_returns_distinct_values(self):
        rows = np.random.default_rng(6).integers(0, 5, size=(300, 3))
        keys = experiments._DistinctRows(3, 5, 200)
        keys.add(rows[:200].T, 200)
        keys.add(rows[200:].T, 100)  # first sorts the full buffer into a run
        assert np.array_equal(keys.runs[0], np.unique(rows[:200] @ [25, 5, 1]))
        assert np.array_equal(keys.distinct()[:, 0], np.unique(rows @ [25, 5, 1]))

    def test_single_point(self):
        for eps in (1.0, 0.5, 0.125):
            assert covering_count(np.array([[0.3, 0.7]]), eps) == 1

    def test_frozen_1d(self):
        cloud = np.array([0.0, 0.3, 0.6, 0.9])
        assert covering_count(cloud, 0.5) == 2
        assert covering_count(cloud, 0.25) == 4

    def test_grid_anchored_at_origin(self):
        cloud = np.array([0.49, 0.51])
        assert covering_count(cloud, 0.5) == 2

    def test_nested_scales_monotone(self):
        rng = np.random.default_rng(6)
        cloud = rng.random((300, 2))
        for e in (2, 3, 4):
            coarse = covering_count(cloud, 2.0 ** -e)
            fine = covering_count(cloud, 2.0 ** -(e + 1))
            assert coarse <= fine <= 4 * coarse

    def test_validation(self):
        with pytest.raises(ValueError):
            covering_count(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            covering_count(np.array([]), 0.5)

    @settings(max_examples=200, deadline=None)
    @given(clouds(), st.sampled_from([1.0, 0.5, 0.3, 2.0 ** -4, 2.0 ** -10]))
    def test_matches_row_unique(self, cloud, eps):
        assert covering_count(cloud, eps) == covering_reference(cloud, eps)

    def test_overflowing_key_matches_row_unique(self, monkeypatch):
        # column spans of 2^24 + 1 and 2^40 cells: packed in one word, the
        # key of (2^24, 0) would wrap round to the key of (0, 0)
        cloud = np.array([[0.0, 0.0], [2.0 ** 24, 0.0], [0.0, 2.0 ** 40 - 1]])
        assert covering_count(cloud, 1.0) == 3
        # five columns spanning about 2^41 cells each (product about 2^205),
        # one column reaching both ends of int64, and repeated rows: that
        # column's cells pass 2^63 and wrap to negative int64 in a word of
        # its own, and whole rows are still compared exactly
        made, rows = [], experiments._DistinctRows
        monkeypatch.setattr(experiments, "_DistinctRows",
                            lambda *args: made.append(rows(*args)) or made[-1])
        rng = np.random.default_rng(31)
        pool = rng.uniform(-2.0 ** 40, 2.0 ** 40, size=(50, 6))
        pool[:25, 5] = -(2.0 ** 63) + 2 ** 11
        pool[25:, 5] = 2.0 ** 63 - 2 ** 11
        cloud = pool[rng.integers(0, 50, size=400)]
        assert covering_count(cloud, 1.0) == covering_reference(cloud, 1.0) == 50
        words = [w for w, _, _ in made[0].columns]
        assert made[0].word_radix[words[5]] > 2 ** 63 and words.count(words[5]) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        cloud = np.array([[0.1, 0.2], [0.3, bad]])
        with pytest.raises(ValueError, match="non-finite"):
            covering_count(cloud, 0.5)

    def test_cells_beyond_int64_rejected(self):
        eps = 2.0 ** -64
        for cloud in (np.array([0.1, 0.5, 1.0]), np.array([-1.0, 0.0]),
                      np.array([[0.0, 1e300]])):
            with pytest.raises(ValueError, match="int64"):
                covering_count(cloud, eps)
        # |x / eps| = 2^63 is out, the float just below it is in
        with pytest.raises(ValueError, match="int64"):
            covering_count(np.array([2.0 ** 63]), 1.0)
        with pytest.raises(ValueError, match="int64"):
            covering_count(np.array([-(2.0 ** 63)]), 1.0)
        edge = np.nextafter(2.0 ** 63, 0)
        assert covering_count(np.array([-edge, 0.0, edge]), 1.0) == 3

    @pytest.mark.parametrize("cloud, eps", [
        (np.array([[0.1, 0.2], [0.3, math.nan]]), 0.5),
        (np.array([[1e300, 0.2], [0.3, math.inf]]), 0.5),
        (np.array([[0.5, 1e300], [-1e301, 0.2]]), 2.0 ** -64),
        (np.array([[3.0, 0.0], [0.0, -(2.0 ** 70)]]), 1.0),
        (np.array([0.1, 0.5, 1.0]), 2.0 ** -64),
        (np.array([[0.5, 1e300]]), 1e-300),
    ])
    def test_error_text_unchanged(self, cloud, eps):
        # the first failing column need not hold the largest |x / eps| or
        # the non-finite entry; the message still describes the whole cloud
        with pytest.raises(ValueError) as want:
            covering_reference(cloud, eps)
        with pytest.raises(ValueError) as got:
            covering_count(cloud, eps)
        assert str(got.value) == str(want.value)


class TestBoxDimension:
    def test_uniform_interval_slope_one(self):
        rng = np.random.default_rng(8)
        est = fit_box_dimension(rng.random(20000), [2.0 ** -e for e in range(3, 8)])
        assert est.slope == pytest.approx(1.0, abs=0.01)
        assert est.counts == (8, 16, 32, 64, 128)

    def test_cantor_distance_set_full_dimension(self):
        # the pair-distance set of the middle-thirds Cantor set fills [0,1]
        tuples = sample_framework_tuples(CantorSampler(1), 2, 30000, seed=13)
        cloud = distance_images(complete_graph(2), tuples)
        est = fit_box_dimension(cloud, [2.0 ** -e for e in range(3, 8)])
        assert est.slope == pytest.approx(1.0, abs=0.05)

    def test_cantor_set_itself_log2_over_log3(self):
        rng = np.random.default_rng(14)
        cloud = CantorSampler(1).draw(rng, 30000)
        est = fit_box_dimension(cloud, [2.0 ** -e for e in range(3, 8)])
        assert 0.55 < est.slope < 0.72

    def test_single_point_slope_zero(self):
        est = fit_box_dimension(np.array([[0.25, 0.25]]), [0.5, 0.25, 0.125])
        assert est.counts == (1, 1, 1)
        assert est.slope == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_scales(self):
        with pytest.raises(ValueError):
            fit_box_dimension(np.array([1.0, 2.0]), [0.5])
        with pytest.raises(ValueError, match="two distinct scales"):
            fit_box_dimension(np.array([1.0, 2.0]), [0.5, 0.5, 0.5])

    def test_nonpositive_scales_refused(self):
        # 2.0 ** -1100 underflows to 0.0; refused before any count
        for scales in ([0.5, 2.0 ** -1100], [2.0 ** -1080, 2.0 ** -1100], [0.5, -0.25]):
            with pytest.raises(ValueError, match="is not positive"):
                fit_box_dimension(np.array([1.0, 2.0]), scales)

    def test_estimate_fields(self):
        est = fit_box_dimension(np.array([0.1, 0.9]), [0.5, 0.25])
        assert est.scales == (0.5, 0.25)
        assert len(est.counts) == 2
