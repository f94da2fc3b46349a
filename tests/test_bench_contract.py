"""The benchmark in perfbench/ derives its per-layer metrics from functions
it finds by name in the package. A metric whose function is renamed or
deleted drops out of the benchmark's result line, and so does one whose
size hook cannot read the call's arguments or result, or an import time
that `import rigidset` no longer shows. A value that is not finite makes
the result line unreadable too. These tests check all of that; they read
perfbench and change nothing there."""

import importlib
import json
import math
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("spans"), importlib.import_module("metrics")


def test_every_traced_name_resolves(perfbench):
    spans, metrics = perfbench
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
        missing = sorted({target.split(":")[0]
                          for _, _, targets, _ in metrics.PER_LAYER_TABLE
                          for target in targets
                          if target.split(":")[0] not in metrics.LAYERS
                          and target.split(":")[0] not in tracer.wrapped})
        assert missing == []
    finally:
        tracer.uninstall()


def test_every_size_hook_reads_its_call(perfbench):
    spans, metrics = perfbench
    from rigidset import experiments, frameworks, graphs, rigidity, thresholds

    tracer = spans.Tracer()
    try:
        tracer.install()
        # called through the module attributes, which the tracer has wrapped
        rigidity.generic_rank(graphs.complete_graph(4), 2, 1)
        thresholds.analyze(graphs.double_banana(), 3, 1)
        rigidity.minimal_rigid_completion(graphs.path_graph(4), 2, 1)
        x = rigidity.sample_generic_config(2, 4, 1)
        rigidity.exact_rank(frameworks.rigidity_rows(graphs.complete_graph(4).edges, x))
        experiments.covering_count(np.array([[0.1, 0.2], [0.7, 0.2]]), 0.5)
        experiments.congruence_class_counts(2, 1, 1)
    finally:
        tracer.uninstall()
    for name in ("rigidity.generic_rank", "thresholds.analyze",
                 "rigidity.minimal_rigid_completion", "frameworks.rigidity_rows",
                 "rigidity.exact_rank", "experiments.covering_count",
                 "experiments.congruence_class_counts"):
        assert tracer.stats[name][2] >= 1, name
    assert tracer.absent == set()
    values, absent = metrics.per_layer_values(tracer.to_obj())
    assert absent == []
    assert all(math.isfinite(v) for v in values.values()), values
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted([*values, *metrics.EXTRA_PER_LAYER]) == sorted(declared)


def test_import_times_report_rigidset_and_numpy(perfbench, tmp_path):
    import rigidset

    run = importlib.import_module("run")
    times = run.Runner(str(tmp_path), rigidset).import_times()
    assert set(times) == {"import.rigidset_s", "import.numpy_s"}
