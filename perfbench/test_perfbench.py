"""Self-tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, run.SRC)
import rigidset  # noqa: E402
import rigidset.cli  # noqa: E402
import rigidset.linalg  # noqa: E402


def _cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert rigidset.cli.main(argv) == 0
    return out.getvalue()


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 7, 40, 320])
def test_laman_generator_is_deterministic_and_counts_2n_minus_3(n):
    g = inputs.henneberg_laman(n, 11)
    assert g == inputs.henneberg_laman(n, 11)
    assert g["vertices"] == n and len(g["edges"]) == 2 * n - 3
    assert g["edges"] == sorted(g["edges"])
    assert all(1 <= i < j <= n for i, j in g["edges"])
    assert len({tuple(e) for e in g["edges"]}) == len(g["edges"])
    if n > 7:
        assert g != inputs.henneberg_laman(n, 12)


@pytest.mark.parametrize("seed", range(5))
def test_laman_generator_satisfies_the_laman_count(seed):
    n = 9
    edges = [tuple(e) for e in inputs.henneberg_laman(n, seed)["edges"]]
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            inside = set(subset)
            spanned = sum(1 for i, j in edges if i in inside and j in inside)
            assert spanned <= 2 * size - 3, (subset, spanned)


def test_drop_quarter_is_a_seeded_subset():
    g = inputs.henneberg_laman(80, 3)
    dropped = inputs.drop_quarter(g, 4)
    assert dropped == inputs.drop_quarter(g, 4)
    assert dropped != inputs.drop_quarter(g, 5)
    m = len(g["edges"])
    assert len(dropped["edges"]) == m - m // 4
    assert {tuple(e) for e in dropped["edges"]} <= {tuple(e) for e in g["edges"]}


def test_forest_has_equal_shares_of_each_component_kind():
    f = inputs.forest(1000, 7)
    assert f == inputs.forest(1000, 7) and f != inputs.forest(1000, 8)
    g = rigidset.make_graph(f["vertices"], f["edges"])
    shapes = [(c.n_vertices, c.n_edges) for c, _ in rigidset.connected_components(g)]
    assert len(shapes) == 1000
    assert {s: shapes.count(s) for s in set(shapes)} == {
        s: 200 for s in inputs.FOREST_COMPONENT_RANKS}


def test_forest_component_ranks_match_the_library():
    for kind in inputs.FOREST_KINDS:
        n, edges = inputs._component(kind, 0)
        g = rigidset.make_graph(n, edges)
        rank = rigidset.max_independent_subset(g, 2, 1).rank
        assert inputs.FOREST_COMPONENT_RANKS[(n, len(edges))] == rank


# -- checks -------------------------------------------------------------------

def test_rank_check_flags_a_wrong_rank():
    out = _cli(["analyze", "k4", "--seed", "3"])
    assert workloads.check_rank(5)(out) is None
    assert workloads.check_rank(5)(out.replace('"generic_rank": 5', '"generic_rank": 4'))
    assert workloads.check_rank(6)(out)


def test_forest_check_flags_a_wrong_component_rank():
    f = inputs.forest(10, 1)
    out = _cli_file(["analyze", "--d", "2", "--seed", "1"], f)
    assert workloads.check_forest(10)(out) is None
    report = workloads._report(out)
    report["components"][0]["generic_rank"] -= 1
    corrupted = out.split("\n\n", 1)[0] + "\n\n" + json.dumps(report)
    assert workloads.check_forest(10)(corrupted)
    assert workloads.check_forest(11)(out)


def _cli_file(argv, graph) -> str:
    path = os.path.join(run.ROOT, ".perfbench-test-graph.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph, fh)
    try:
        return _cli([argv[0], path, *argv[1:]])
    finally:
        os.remove(path)


def test_completion_check_flags_a_dropped_edge_and_a_different_basis():
    _, dropped = workloads.laman_graphs()
    digest = workloads.load_expected()["complete"]["40"]
    out = _cli_file(["complete", "--seed", "5"], dropped[40])
    assert workloads.check_completion(dropped[40], digest)(out) is None
    doc = json.loads(out)
    assert workloads.check_completion(dropped[40], digest)(
        json.dumps({"vertices": 40, "edges": doc["edges"][1:]}) + "\n")
    # same shape, other edges: only the recorded digest catches it
    other = json.loads(out)
    extra = [e for e in other["edges"] if e not in dropped[40]["edges"]][0]
    other["edges"].remove(extra)
    other["edges"].append([e for e in itertools.combinations(range(1, 41), 2)
                           if list(e) not in doc["edges"]][0])
    assert workloads.check_completion(dropped[40], digest)(json.dumps(other) + "\n")


def test_lattice_and_sample_checks_flag_a_changed_count():
    expected = workloads.load_expected()
    lines = expected["lattice"]["d2k2"]
    assert workloads.check_lines(lines)("\n".join(lines) + "\n") is None
    changed = lines[:-1] + [lines[-1].replace("649", "648")]
    assert workloads.check_lines(lines)("\n".join(changed) + "\n")

    rows = expected["sample"]["k4"]["0"]
    good = "# slope=1.0\n# max_euler_residual=1e-09\neps,count\n" + "\n".join(rows) + "\n"
    check = workloads.check_sample(rows, workloads.MAX_EULER_RESIDUAL)
    assert check(good) is None
    assert check(good.replace("# slope=1.0", "# slope=2.5")) is None
    eps, count = rows[-1].split(",")
    assert check(good.replace(rows[-1], f"{eps},{int(count) + 1}"))
    assert check(good.replace("1e-09", "0.001"))


def test_generic_rank_check_flags_a_wrong_rank():
    result = rigidset.generic_rank(rigidset.double_banana(), 3, 1)
    assert workloads.check_generic_rank(17)(result) is None
    assert workloads.check_generic_rank(18)(result)


def test_a_failing_operation_raises_fail_frac(tmp_path):
    k4 = rigidset.complete_graph(4)
    ops = [workloads.Op("generic_rank_s", "generic_rank k4", workloads.check_generic_rank(6),
                        call=lambda rs: rs.generic_rank(k4, 2, 1))]
    setup = workloads.Op("setup_s", "analyze k2", workloads.check_rank(1),
                         argv=("analyze", "k2", "--seed", "1"))
    workload = workloads.Workload("broken", setup, ops)
    result = run.measure(run.Runner(str(tmp_path), rigidset), workload, 0.0)
    assert result["failed"] == 1 and result["extra"]["fail_frac"] > 0
    assert result["values"]["setup_s"] > 0


# -- tracing ------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    originals = (rigidset.linalg.exact_rank_int, rigidset.thresholds.max_independent_subset,
                 rigidset.linalg.RowSpace.add, rigidset.generic_rank)
    tracer = spans.Tracer().install()
    try:
        assert rigidset.rigidity.exact_rank_int is rigidset.linalg.exact_rank_int
        assert rigidset.linalg.exact_rank_int is not originals[0]
        assert rigidset.thresholds.max_independent_subset is rigidset.rigidity.max_independent_subset
        assert rigidset.thresholds.max_independent_subset is not originals[1]
        assert rigidset.generic_rank is rigidset.rigidity.generic_rank is not originals[3]
        rigidset.generic_rank(rigidset.complete_graph(4), 2, 1)
    finally:
        tracer.uninstall()
    assert (rigidset.linalg.exact_rank_int, rigidset.thresholds.max_independent_subset,
            rigidset.linalg.RowSpace.add, rigidset.generic_rank) == originals
    assert tracer.stats["rigidity.generic_rank"][2] == 1
    assert tracer.stats["linalg.exact_rank_int"][2] == 5
    assert tracer.counts["rigidity.witnesses"] == 5


def test_self_times_add_up_to_the_outer_span():
    g = rigidset.double_banana()
    tracer = spans.Tracer().install()
    try:
        rigidset.analyze(g, 3, 1)
    finally:
        tracer.uninstall()
    total = tracer.stats["thresholds.analyze"][0]
    assert sum(v[1] for v in tracer.stats.values()) == pytest.approx(total, rel=1e-9)


def test_a_missing_name_is_reported_absent(monkeypatch):
    monkeypatch.delattr(rigidset.linalg, "RowSpace")
    tracer = spans.Tracer().install()
    tracer.uninstall()
    values, absent = metrics.per_layer_values(tracer.to_obj())
    assert "linalg.RowSpace.add.s" in absent
    assert "rigidity.completion_accept_frac" in absent
    assert "linalg.RowSpace.add.s" not in values
    assert "linalg.exact_rank_int.s" in values


def _layer_self(fn) -> dict:
    tracer = spans.Tracer().install()
    try:
        fn()
    finally:
        tracer.uninstall()
    view = metrics.TraceView(spans.merge([tracer.to_obj()]))
    return {layer: view.layer_self_s(layer) for layer in metrics.LAYERS}, view


def test_rigidity_self_time_sits_in_linalg_and_frameworks():
    graphs, dropped = workloads.laman_graphs()

    def work():
        g = rigidset.make_graph(160, graphs[160]["edges"])
        rigidset.analyze(g, 2, 1)
        rigidset.minimal_rigid_completion(rigidset.make_graph(160, dropped[160]["edges"]), 2, 1)
        rigidset.generic_rank(rigidset.make_graph(40, graphs[40]["edges"]), 2, 1)

    layers, _ = _layer_self(work)
    assert layers["linalg"] + layers["frameworks"] > 0.5 * sum(layers.values()), layers


def test_forest_self_time_sits_in_graphs():
    f = inputs.forest(1000, 1)
    layers, _ = _layer_self(lambda: rigidset.analyze(
        rigidset.make_graph(f["vertices"], f["edges"]), 2, 1))
    assert layers["graphs"] > 0.5 * sum(layers.values()), layers


def test_sample_self_time_sits_in_covering_count():
    layers, view = _layer_self(lambda: _cli(
        ["sample", "k4", "--n", "300000", "--scales", "1,2,3,4", "--seed", "1"]))
    assert view.total("experiments.covering_count") > 0.5 * sum(layers.values()), layers


# -- the benchmark description -----------------------------------------------

def test_benchmark_json_names_the_metrics_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
