"""Metric names, units and the per-layer metrics derived from a merged trace.

End-to-end metrics are measured with tracing off; per-layer metrics come
from a separate traced pass over the same operations. BENCHMARK.json lists
the same names, and the self-tests keep the two in step.
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Reported next to the end-to-end metrics in the run record, but not in the
# result line: each applies to some workloads only, and a result-line metric
# must be present, and non-zero, on every workload.
SUBCOMMAND_TIMES = ("analyze_s", "complete_s", "lattice_s", "sample_s", "generic_rank_s")

LAYERS = ("cli", "graphs", "frameworks", "linalg", "rigidity", "thresholds", "experiments")

FORMULAS = ("thresholds.sufficient_threshold", "thresholds.pruned_threshold",
            "thresholds.necessary_exponent", "thresholds.natural_measure_exponent",
            "thresholds.small_regime_threshold")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_layer_table():
    """(name, unit, targets the value needs, function of the trace view)."""
    table = [
        ("cli.main.self_s", "s", ("cli.main",), lambda t: t.self_s("cli.main")),
        ("graphs.graph_from_json.s", "s", ("graphs.graph_from_json",),
         lambda t: t.total("graphs.graph_from_json")),
        ("graphs.make_graph.calls", "count", ("graphs.make_graph",),
         lambda t: t.calls("graphs.make_graph")),
        ("graphs.connected_components.s", "s", ("graphs.connected_components",),
         lambda t: t.total("graphs.connected_components")),
        ("graphs.prune_degree_one.s", "s", ("graphs.prune_degree_one",),
         lambda t: t.total("graphs.prune_degree_one")),
        ("graphs.prune_degree_one.calls", "count", ("graphs.prune_degree_one",),
         lambda t: t.calls("graphs.prune_degree_one")),
        ("frameworks.rigidity_rows.s", "s", ("frameworks.rigidity_rows",),
         lambda t: t.total("frameworks.rigidity_rows")),
        ("frameworks.rigidity_rows.calls", "count", ("frameworks.rigidity_rows",),
         lambda t: t.calls("frameworks.rigidity_rows")),
        ("frameworks.rows", "count", ("frameworks.rigidity_rows:sizes",),
         lambda t: t.count("frameworks.rows")),
        ("frameworks.dense_entries", "count", ("frameworks.rigidity_rows:sizes",),
         lambda t: t.count("frameworks.dense_entries")),
        ("frameworks.nnz_frac", "ratio", ("frameworks.rigidity_rows:sizes",),
         lambda t: _ratio(t.count("frameworks.nnz_entries"),
                          t.count("frameworks.dense_entries"))),
        ("rigidity.sample_generic_config.calls", "count", ("rigidity.sample_generic_config",),
         lambda t: t.calls("rigidity.sample_generic_config")),
        ("rigidity.exact_rank.s", "s", ("rigidity.exact_rank",),
         lambda t: t.total("rigidity.exact_rank")),
        ("rigidity.exact_rank.calls", "count", ("rigidity.exact_rank",),
         lambda t: t.calls("rigidity.exact_rank")),
        ("rigidity.witness_at_max_frac", "ratio",
         ("rigidity.exact_rank:sizes", "rigidity.generic_rank:sizes"),
         lambda t: _ratio(t.count("rigidity.witnesses_at_max"), t.count("rigidity.witnesses"))),
        ("rigidity.generic_rank.self_s", "s", ("rigidity.generic_rank",),
         lambda t: t.self_s("rigidity.generic_rank")),
        ("rigidity.max_independent_subset.self_s", "s", ("rigidity.max_independent_subset",),
         lambda t: t.self_s("rigidity.max_independent_subset")),
        ("rigidity.minimal_rigid_completion.self_s", "s", ("rigidity.minimal_rigid_completion",),
         lambda t: t.self_s("rigidity.minimal_rigid_completion")),
        ("rigidity.completion_accept_frac", "ratio",
         ("rigidity.minimal_rigid_completion", "linalg.RowSpace.add:sizes"),
         lambda t: _ratio(t.count("rigidity.completion_accepted"),
                          t.count("rigidity.completion_adds"))),
        ("linalg.exact_rank_int.s", "s", ("linalg.exact_rank_int",),
         lambda t: t.total("linalg.exact_rank_int")),
        ("linalg.exact_rank_int.calls", "count", ("linalg.exact_rank_int",),
         lambda t: t.calls("linalg.exact_rank_int")),
        ("linalg.RowSpace.add.s", "s", ("linalg.RowSpace.add",),
         lambda t: t.total("linalg.RowSpace.add")),
        ("linalg.RowSpace.add.calls", "count", ("linalg.RowSpace.add",),
         lambda t: t.calls("linalg.RowSpace.add")),
        ("linalg.RowSpace.add.grew_frac", "ratio", ("linalg.RowSpace.add:sizes",),
         lambda t: _ratio(t.count("linalg.RowSpace.add.grew"), t.calls("linalg.RowSpace.add"))),
        ("linalg.integerize_row.calls", "count", ("linalg.integerize_row",),
         lambda t: t.count("linalg.integerize_row.calls")),
        ("thresholds.analyze.self_s", "s", ("thresholds.analyze",),
         lambda t: t.self_s("thresholds.analyze")),
        ("thresholds.formulas.self_s", "s", FORMULAS,
         lambda t: sum(t.self_s(name) for name in FORMULAS)),
        ("thresholds.components", "count", ("thresholds.analyze:sizes",),
         lambda t: t.count("thresholds.components")),
        ("experiments.sample_framework_tuples.s", "s", ("experiments.sample_framework_tuples",),
         lambda t: t.total("experiments.sample_framework_tuples")),
        ("experiments.distance_images.s", "s", ("experiments.distance_images",),
         lambda t: t.total("experiments.distance_images")),
        ("experiments.k4_euler_residuals.s", "s", ("experiments.k4_euler_residuals",),
         lambda t: t.total("experiments.k4_euler_residuals")),
        ("experiments.covering_count.s", "s", ("experiments.covering_count",),
         lambda t: t.total("experiments.covering_count")),
        ("experiments.covering_count.calls", "count", ("experiments.covering_count",),
         lambda t: t.calls("experiments.covering_count")),
        ("experiments.covering_points", "count", ("experiments.covering_count:sizes",),
         lambda t: t.count("experiments.covering_points")),
        ("experiments.covering_bytes", "B", ("experiments.covering_count:sizes",),
         lambda t: t.count("experiments.covering_bytes")),
        ("experiments.fit_box_dimension.self_s", "s", ("experiments.fit_box_dimension",),
         lambda t: t.self_s("experiments.fit_box_dimension")),
        ("experiments.congruence_class_counts.s", "s", ("experiments.congruence_class_counts",),
         lambda t: t.total("experiments.congruence_class_counts")),
        ("experiments.lattice_tuples", "count", ("experiments.congruence_class_counts:sizes",),
         lambda t: t.count("experiments.lattice_tuples")),
        ("experiments.lattice_tuples_per_s", "1/s", ("experiments.congruence_class_counts:sizes",),
         lambda t: _ratio(t.count("experiments.lattice_tuples"),
                          t.total("experiments.congruence_class_counts"))),
    ]
    # self time of every layer: which module the work sits in. cli.main is
    # the only span in cli, so its layer self time is cli.main.self_s above.
    for layer in LAYERS:
        if layer == "cli":
            continue
        table.append((f"{layer}.self_s", "s", (layer,),
                      lambda t, layer=layer: t.layer_self_s(layer)))
    return table


PER_LAYER_TABLE = _per_layer_table()

# measured outside the trace, from a fresh `python -X importtime` and from the
# traced and untraced passes
EXTRA_PER_LAYER = {
    "import.rigidset_s": "s",
    "import.numpy_s": "s",
    "trace.overhead_s": "s",
}

PER_LAYER = {name: unit for name, unit, _, _ in PER_LAYER_TABLE}
PER_LAYER.update(EXTRA_PER_LAYER)


class TraceView:
    """Read access to a merged trace (see spans.merge)."""

    def __init__(self, obj: dict):
        self.stats = obj["stats"]
        self.counts = obj["counts"]
        self.absent = set(obj["absent"])
        self.wrapped = set(obj["wrapped"])

    def present(self, target: str) -> bool:
        """A target counts as present unless it, its span or its module is
        absent from the tree under test."""
        base = target.split(":")[0]
        module = base.split(".")[0]
        if target in self.absent or base in self.absent or module in self.absent:
            return False
        return base == module or base in self.wrapped

    def total(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0.0, 0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0.0, 0.0, 0))[1]

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0.0, 0.0, 0))[2]

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v[1] for name, v in self.stats.items() if name.startswith(prefix))


def per_layer_values(trace_obj: dict) -> tuple[dict, list]:
    """Per-layer metric values of one traced pass, and the names left out
    because what they measure is absent from the tree under test."""
    view = TraceView(trace_obj)
    values, absent = {}, []
    for name, _, targets, fn in PER_LAYER_TABLE:
        if all(view.present(t) for t in targets):
            values[name] = fn(view)
        else:
            absent.append(name)
    return values, absent
