"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE PASS/FAIL line (visible with -s, and on
any failure) and asserts the criterion at its stated tolerance. Run with

    pytest tests/test_acceptance.py -v
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import rigidset
from rigidset.experiments import (
    UnitCubeSampler,
    congruence_class_counts,
    euler_t24,
    hausdorff_content_bound,
    k4_euler_residuals,
    sample_framework_tuples,
)
from rigidset.frameworks import infinitesimal_motions, is_general_position
from rigidset import rigidity
from rigidset.graphs import complete_graph, double_banana, make_graph
from rigidset.linalg import RowSpace
from rigidset.rigidity import (
    DependentEdgeSetError,
    generic_rank,
    is_generically_rigid,
    is_minimally_rigid,
    max_independent_subset,
    minimal_rigid_completion,
    required_edge_count,
    sample_generic_config,
)
from rigidset.thresholds import (
    natural_measure_exponent,
    necessary_exponent,
    predicted_distance_set_dimension,
    sufficient_threshold,
)


def verdict(number, ok, label):
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} {number}: {label}")
    return ok


def test_criterion_01_k4_plane_rank():
    t0 = time.perf_counter()
    rank, cert = generic_rank(complete_graph(4), 2, seed=7)
    predicted = predicted_distance_set_dimension(complete_graph(4), 2, seed=7)
    elapsed = time.perf_counter() - t0
    ok = rank == 5 and predicted == 5 and cert.samples == 5 and elapsed < 1.0
    assert verdict(1, ok, "K4 in the plane has generic rank 5 and predicted "
                          f"dimension 5 in {elapsed:.3f}s"), (rank, predicted, elapsed)


def test_criterion_02_double_banana():
    t0 = time.perf_counter()
    g = double_banana()
    rank, _ = generic_rank(g, 3, seed=7)
    rigid = is_generically_rigid(g, 3, seed=7)
    basis = max_independent_subset(g, 3, seed=7)
    message = ""
    try:
        minimal_rigid_completion(g, 3, seed=7)
    except DependentEdgeSetError as exc:
        message = str(exc)
    elapsed = time.perf_counter() - t0
    ok = (g.n_edges == 18 and rank == 17 and not rigid and basis.rank == 17
          and "dependent edges" in message and elapsed < 5.0)
    assert verdict(2, ok, "double banana: 18 edges, rank 17, flexible, basis 17, "
                          f"completion refused in {elapsed:.3f}s"), \
        (g.n_edges, rank, rigid, basis.rank, message, elapsed)


def test_criterion_03_complete_graphs_fully_independent():
    failures = []
    for d in (2, 3, 4):
        for q in range(1, d + 1):
            rank, _ = generic_rank(complete_graph(q + 1), d, seed=13)
            if rank != q * (q + 1) // 2:
                failures.append((d, q, rank))
    ok = not failures
    assert verdict(3, ok, "K_{q+1} in R^d has rank C(q+1,2) for q <= d <= 4"), failures


def test_criterion_04_kernel_dimension_general_position():
    failures = []
    configs = 0
    seed_counter = itertools.count(900000)
    for d in (2, 3):
        want = (d + 1) * d // 2
        for k in range(d, 7):
            g = complete_graph(k + 1)
            done = 0
            while done < 100:
                x = sample_generic_config(d, k + 1, seed=next(seed_counter))
                if not is_general_position(x):
                    continue
                dim = len(infinitesimal_motions(g, x))
                if dim != want:
                    failures.append((d, k, dim))
                done += 1
                configs += 1
    ok = not failures and configs == 900
    assert verdict(4, ok, f"rigidity kernel has dimension C(d+1,2) at {configs} "
                          "general-position exact configurations"), failures


def test_criterion_05_minimally_rigid_edge_count():
    rng = random.Random(424242)
    failures = []
    positives = 0
    for d in (2, 3):
        for k in range(1, 9):
            n = k + 1
            for i in range(50):
                if i % 5 == 0:
                    # seed the corpus with completions so the check never
                    # passes vacuously
                    forest = [(j, j + 1) for j in range(1, n) if rng.random() < 0.5]
                    try:
                        g = minimal_rigid_completion(
                            make_graph(n, forest), d, rng.randrange(2 ** 32))
                    except DependentEdgeSetError:
                        continue
                else:
                    p = rng.random()
                    g = make_graph(n, [(a, b) for a in range(1, n)
                                       for b in range(a + 1, n + 1) if rng.random() < p])
                if not is_minimally_rigid(g, d, rng.randrange(2 ** 32)):
                    continue
                positives += 1
                want = required_edge_count(d, n)
                if g.n_edges != want:
                    failures.append((d, n, g.n_edges, want))
                if n >= d + 1 and g.n_edges != d * n - (d + 1) * d // 2:
                    failures.append((d, n, g.n_edges, "closed form"))
    ok = not failures and positives > 0
    assert verdict(5, ok, f"all {positives} minimally rigid graphs in the corpus "
                          "have exactly d*n - C(d+1,2) edges"), failures


def _convex_quads(rng, count):
    """Random unit-square quadruples in convex position, convex cyclic order."""
    chunks = []
    need = count
    while need > 0:
        batch = rng.random((2 * need + 64, 4, 2))
        rel = batch - batch.mean(axis=1, keepdims=True)
        order = np.argsort(np.arctan2(rel[..., 1], rel[..., 0]), axis=1)
        pts = np.take_along_axis(batch, order[..., None], axis=1)
        e1 = np.roll(pts, -1, axis=1) - pts
        e2 = np.roll(pts, -2, axis=1) - np.roll(pts, -1, axis=1)
        cross = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
        keep = pts[np.all(cross > 1e-9, axis=1) | np.all(cross < -1e-9, axis=1)]
        chunks.append(keep[:need])
        need -= len(keep[:need])
    return np.concatenate(chunks, axis=0)


def test_criterion_06_euler_identity_convex_quadrilaterals():
    rng = np.random.default_rng(606)
    quads = _convex_quads(rng, 10 ** 4)
    t0 = time.perf_counter()

    def dist(a, b):
        return np.linalg.norm(quads[:, a] - quads[:, b], axis=1)

    t12, t13, t14 = dist(0, 1), dist(0, 2), dist(0, 3)
    t23, t24, t34 = dist(1, 2), dist(1, 3), dist(2, 3)
    worst = 0.0
    for i in range(len(quads)):
        got = euler_t24(t12[i], t13[i], t14[i], t23[i], t34[i], convex=True)
        worst = max(worst, abs(got - t24[i]) / t24[i])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    assert verdict(6, ok, f"10^4 convex quadrilaterals: max relative Euler residual "
                          f"{worst:.2e} in {elapsed:.3f}s"), (worst, elapsed)


def test_criterion_07_k4_distance_set_degeneracy():
    tuples = sample_framework_tuples(UnitCubeSampler(2), 4, 10 ** 5, seed=77)
    worst = float(k4_euler_residuals(tuples).max())
    ok = worst < 1e-9
    assert verdict(7, ok, "10^5 sampled K4 tuples satisfy the branch-matched "
                          f"Euler relation, max residual {worst:.2e}"), worst


def test_criterion_08_lattice_congruence_counts():
    failures = []
    for q in (1, 2, 3):
        for k in (1, 2):
            unlabeled, labeled = congruence_class_counts(2, q, k)
            points = list(itertools.product(range(q + 1), repeat=2))
            pairs = list(itertools.combinations(range(k + 1), 2))
            perms = list(itertools.permutations(range(k + 1)))
            canon = set()
            for tup in itertools.product(points, repeat=k + 1):
                canon.add(min(
                    tuple(sum((tup[p[a]][t] - tup[p[b]][t]) ** 2 for t in range(2))
                          for a, b in pairs)
                    for p in perms))
            if unlabeled != len(canon):
                failures.append((q, k, unlabeled, len(canon)))
            if labeled > (2 * q + 1) ** (2 * k):
                failures.append((q, k, labeled, "bound"))
    ok = not failures
    assert verdict(8, ok, "hashed congruence-class counts match the brute-force "
                          "oracle and respect (2q+1)^(dk)"), failures


def test_criterion_09_content_bound_sign():
    failures = []
    checked = 0
    for d in (2, 3, 4, 5):
        for k in (1, 2, 3, 4, 5):
            critical = d - (d * (d - 1) / 2) / k
            for t in (0.02, 0.2, 0.4, 0.6, 0.8, 0.97):
                s = d / 2 + t * (d / 2 - 0.01)
                if abs(s - critical) < 0.02:
                    continue
                decreasing = (hausdorff_content_bound(d, 3, k, s)
                              < hausdorff_content_bound(d, 2, k, s))
                if decreasing != (s < critical):
                    failures.append((d, k, s))
                checked += 1
    ok = not failures and checked >= 100
    assert verdict(9, ok, f"content bound decreasing in q exactly below "
                          f"d - C(d,2)/k on {checked} triples"), failures


def test_criterion_10_threshold_table_plane():
    failures = []
    for k in range(1, 51):
        n = k + 1
        suff = sufficient_threshold(2, n)
        nec = necessary_exponent(2, n)
        nat = natural_measure_exponent(2, n)
        if not all(isinstance(v, Fraction) for v in (suff, nec, nat)):
            failures.append((k, "type"))
        if suff != 2 - Fraction(1, k + 1):
            failures.append((k, "sufficient", suff))
        if nec != 2 - Fraction(1, k):
            failures.append((k, "necessary", nec))
        if nat != Fraction(4 * k, 2 * k + 1):
            failures.append((k, "natural", nat))
        if not nec < suff:
            failures.append((k, "comparison"))
    ok = not failures
    assert verdict(10, ok, "plane threshold table reproduced as exact rationals "
                           "for k <= 50"), failures


def test_criterion_11_greedy_basis_order_invariance():
    # max_independent_subset scans the edges in lexicographic order; the same
    # greedy scan at its witness and prime, in a shuffled order, must keep as
    # many edges
    rng = random.Random(1111)
    failures = []
    for g, d in ((complete_graph(4), 2), (double_banana(), 3)):
        basis = max_independent_subset(g, d, seed=31)
        base = basis.rank
        target = required_edge_count(d, g.n_vertices)
        for _ in range(20):
            order = list(g.edges)
            rng.shuffle(order)
            space = RowSpace(d * g.n_vertices, rigidity._witness_modulus(31))
            witness = sample_generic_config(d, g.n_vertices, basis.seed)
            size = len(rigidity._scan(space, order, witness, target))
            if size != base:
                failures.append((g.n_vertices, d, size, base))
    ok = not failures
    assert verdict(11, ok, "20 random scan orders preserve the greedy basis size "
                           "on K4 and the double banana"), failures


def _run_cli(args, cwd):
    # The child runs from a fresh cwd, so a relative PYTHONPATH entry (such as
    # PYTHONPATH=src) would not resolve there. Put the directory holding the
    # package this test imported first, so the child runs the same code.
    package_root = str(Path(rigidset.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rigidset.cli", *args],
        cwd=cwd, env=env, capture_output=True, timeout=120)


def test_criterion_12_cli_byte_identical(tmp_path):
    commands = [
        ["analyze", "double-banana", "--d", "3", "--seed", "7", "--output", "out.json"],
        ["sample", "k4", "--n", "2000", "--seed", "21", "--output", "out.csv"],
    ]
    failures = []
    for idx, args in enumerate(commands):
        runs = []
        for attempt in (0, 1):
            cwd = tmp_path / f"cmd{idx}_run{attempt}"
            cwd.mkdir()
            proc = _run_cli(args, cwd)
            if proc.returncode != 0:
                failures.append((args, proc.returncode, proc.stderr[:200]))
                continue
            out_name = args[args.index("--output") + 1]
            runs.append((
                proc.stdout,
                (cwd / out_name).read_bytes(),
                (cwd / (out_name + ".manifest.json")).read_bytes(),
            ))
        if len(runs) == 2 and runs[0] != runs[1]:
            failures.append((args, "bytes differ"))
    ok = not failures
    assert verdict(12, ok, "CLI reruns with the same seed are byte-identical "
                           "(stdout, output file, manifest)"), failures
