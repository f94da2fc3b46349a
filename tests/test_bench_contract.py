"""The benchmark in perfbench/ derives its per-layer metrics from functions
it finds by name in the package. A metric whose function is renamed or
deleted drops out of the benchmark's result line, so every name it reads
must still resolve. This test reads perfbench and changes nothing there."""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
