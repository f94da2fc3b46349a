"""The three workloads: their operations, inputs and output checks.

An operation is one CLI call (a fresh interpreter, as users run it) or one
in-process call of the public generic_rank API. Each carries a check that
turns its output into None (correct) or a one-line reason it is wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("rigidity", "forest", "experiments")

LAMAN_SIZES = (40, 80, 160, 320)
GENERIC_RANK_LAMAN_SIZES = (40, 80)
FOREST_SIZES = (1000, 2000)

# The Laman graphs are drawn from this fixed generator seed, not from the run
# seed: under the current exact engine the elimination cost of two Laman
# graphs of the same size differs up to threefold, so graphs that changed per
# run would measure the draw, not the program. The run seed still varies
# every witness seed the program uses.
LAMAN_GRAPH_SEED = 0

# Sample counts are recorded at the seed commit for this many sample seeds;
# the run seed picks one of them.
SAMPLE_SEED_POOL = 32

SAMPLE_CALLS = (
    ("k4", ("sample", "k4", "--n", "1000000", "--scales", "1,2,3,4")),
    ("k3", ("sample", "k3", "--n", "300000", "--scales", "2,3,4,5,6")),
)
LATTICE_CALLS = (
    ("d2k2", ("lattice", "--d", "2", "--k", "2", "--q-list", "2,4,6,7")),
    ("d3k1", ("lattice", "--d", "3", "--k", "1", "--q-list", "2,4,6,8")),
)
MAX_EULER_RESIDUAL = 1e-6


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    metric names the subcommand total it adds to. A CLI op has argv (the
    arguments after `python -m rigidset.cli`); an API op has call, a
    function of the imported rigidset package.
    """

    metric: str
    label: str
    check: Callable[[object], str | None]
    argv: tuple[str, ...] = ()
    call: Callable | None = None


@dataclass
class Workload:
    name: str
    setup: Op
    ops: list[Op]
    files: dict[str, dict] = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    # set-up calls after each operation
    probes_per_op: int = 1


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


# -- checks -------------------------------------------------------------------

def _report(stdout: str) -> dict:
    """The JSON report that follows the table in `analyze` output."""
    return json.loads(stdout.split("\n\n", 1)[1])


def check_rank(expected: int):
    def check(stdout: str):
        rank = _report(stdout)["generic_rank"]
        return None if rank == expected else f"generic rank {rank}, expected {expected}"
    return check


def check_forest(components: int):
    def check(stdout: str):
        report = _report(stdout)
        subs = report.get("components", [])
        if len(subs) != components:
            return f"{len(subs)} components, expected {components}"
        total = 0
        for sub in subs:
            key = (sub["n_vertices"], sub["n_edges"])
            want = inputs.FOREST_COMPONENT_RANKS.get(key)
            if want is None or sub["generic_rank"] != want:
                return f"component {key} has rank {sub['generic_rank']}, expected {want}"
            total += want
        if report["generic_rank"] != total:
            return f"generic rank {report['generic_rank']}, expected {total}"
        return None
    return check


def check_completion(graph: dict, digest: str | None):
    def check(stdout: str):
        out = json.loads(stdout)
        n = graph["vertices"]
        edges = {tuple(e) for e in out["edges"]}
        if out["vertices"] != n:
            return f"{out['vertices']} vertices, expected {n}"
        if not edges >= {tuple(e) for e in graph["edges"]}:
            return "completion drops an input edge"
        if len(edges) != 2 * n - 3:
            return f"{len(edges)} edges, expected {2 * n - 3}"
        if digest is not None and sha1(stdout) != digest:
            return "completion differs from the recorded lexicographic basis"
        return None
    return check


def check_lines(expected: list[str]):
    def check(stdout: str):
        lines = stdout.splitlines()
        if lines != expected:
            return f"output {lines[:3]}..., expected {expected[:3]}..."
        return None
    return check


def check_sample(rows: list[str], residual_bound: float | None):
    """Compare the eps,count rows; the slope comment is not checked."""
    def check(stdout: str):
        lines = stdout.splitlines()
        if "eps,count" not in lines:
            return "no eps,count header"
        got = lines[lines.index("eps,count") + 1:]
        if got != rows:
            return f"counts {got}, expected {rows}"
        if residual_bound is not None:
            marks = [ln for ln in lines if ln.startswith("# max_euler_residual=")]
            if not marks:
                return "no max_euler_residual line"
            residual = float(marks[0].split("=", 1)[1])
            if not residual < residual_bound:
                return f"max_euler_residual {residual} not below {residual_bound}"
        return None
    return check


def check_generic_rank(expected: int):
    def check(result):
        rank, cert = result
        if rank != expected or cert.agreed_rank != expected:
            return f"generic_rank {rank}, expected {expected}"
        return None
    return check


# -- workload construction ----------------------------------------------------

def witness_seed(seed: int, index: int) -> int:
    """A distinct witness seed per operation, fixed by the run seed."""
    return seed * 1000 + index


def laman_graphs():
    graphs = {n: inputs.henneberg_laman(n, LAMAN_GRAPH_SEED + n) for n in LAMAN_SIZES}
    dropped = {n: inputs.drop_quarter(graphs[n], LAMAN_GRAPH_SEED + n) for n in LAMAN_SIZES}
    return graphs, dropped


def _rigidity(seed: int, expected: dict, rs) -> Workload:
    graphs, dropped = laman_graphs()
    files, ops = {}, []
    for n in LAMAN_SIZES:
        files[f"laman-{n}.json"] = graphs[n]
        files[f"laman-{n}-dropped.json"] = dropped[n]
    analyze = [(f"laman-{n}.json", "2", 2 * n - 3) for n in LAMAN_SIZES]
    analyze += [("path-1000", "2", 999), ("k18", "3", 48), ("double-banana", "3", 17)]
    for graph, d, rank in analyze:
        ops.append(Op("analyze_s", f"analyze {graph} --d {d}", check_rank(rank),
                      argv=("analyze", graph, "--d", d, "--seed", str(witness_seed(seed, len(ops))))))
    for n in LAMAN_SIZES:
        digest = expected["complete"].get(str(n))
        ops.append(Op("complete_s", f"complete laman-{n}-dropped.json",
                      check_completion(dropped[n], digest),
                      argv=("complete", f"laman-{n}-dropped.json", "--seed",
                            str(witness_seed(seed, len(ops))))))
    api_graphs = [(f"laman-{n}", rs.make_graph(n, graphs[n]["edges"]), 2, 2 * n - 3)
                  for n in GENERIC_RANK_LAMAN_SIZES]
    api_graphs += [("k18", rs.complete_graph(18), 3, 48), ("double-banana", rs.double_banana(), 3, 17)]
    for label, g, d, rank in api_graphs:
        api_seed = witness_seed(seed, len(ops))
        ops.append(Op("generic_rank_s", f"generic_rank {label} d={d}", check_generic_rank(rank),
                      call=lambda rs, g=g, d=d, s=api_seed: rs.generic_rank(g, d, s)))
    setup = Op("setup_s", "analyze k2", check_rank(1), argv=("analyze", "k2", "--seed", str(seed)))
    sizes = {
        "laman_n": list(LAMAN_SIZES),
        "laman_edges": [len(graphs[n]["edges"]) for n in LAMAN_SIZES],
        "dropped_edges": [len(dropped[n]["edges"]) for n in LAMAN_SIZES],
        "laman_graph_seed": LAMAN_GRAPH_SEED,
        "analyze_builtin": ["path-1000", "k18 --d 3", "double-banana --d 3"],
        "generic_rank": [f"{label} d={d}" for label, _, d, _ in api_graphs],
    }
    return Workload("rigidity", setup, ops, files, sizes)


def _forest(seed: int) -> Workload:
    files, ops = {}, []
    for c in FOREST_SIZES:
        graph = inputs.forest(c, seed * 10 + len(ops))
        files[f"forest-{c}.json"] = graph
        ops.append(Op("analyze_s", f"analyze forest-{c}.json", check_forest(c),
                      argv=("analyze", f"forest-{c}.json", "--d", "2", "--seed",
                            str(witness_seed(seed, len(ops))))))
    setup = Op("setup_s", "analyze k2", check_rank(1), argv=("analyze", "k2", "--seed", str(seed)))
    sizes = {
        "components": list(FOREST_SIZES),
        "vertices": [files[f"forest-{c}.json"]["vertices"] for c in FOREST_SIZES],
        "edges": [len(files[f"forest-{c}.json"]["edges"]) for c in FOREST_SIZES],
        "kinds": list(inputs.FOREST_KINDS),
    }
    return Workload("forest", setup, ops, files, sizes, probes_per_op=2)


def sample_seed(seed: int) -> int:
    return seed % SAMPLE_SEED_POOL


def _experiments(seed: int, expected: dict) -> Workload:
    ops = []
    s = sample_seed(seed)
    for key, argv in SAMPLE_CALLS:
        rows = expected["sample"][key][str(s)]
        bound = MAX_EULER_RESIDUAL if key == "k4" else None
        ops.append(Op("sample_s", " ".join(argv[:2]), check_sample(rows, bound),
                      argv=argv + ("--seed", str(s))))
    for key, argv in LATTICE_CALLS:
        ops.append(Op("lattice_s", " ".join(argv), check_lines(expected["lattice"][key]),
                      argv=argv))
    setup = Op("setup_s", "lattice --q-list 1 --k 1",
               check_lines(["q,classes,classes_labeled,count_bound,content_bound", "1,3,3,9,"]),
               argv=("lattice", "--q-list", "1", "--k", "1"))
    sizes = {
        "sample": [" ".join(argv) for _, argv in SAMPLE_CALLS],
        "sample_seed": s,
        "lattice": [" ".join(argv) for _, argv in LATTICE_CALLS],
    }
    return Workload("experiments", setup, ops, {}, sizes, probes_per_op=3)


def build(name: str, seed: int, rs, expected: dict | None = None) -> Workload:
    """The named workload for this run seed; rs is the imported rigidset."""
    expected = load_expected() if expected is None else expected
    if name == "rigidity":
        return _rigidity(seed, expected, rs)
    if name == "forest":
        return _forest(seed)
    if name == "experiments":
        return _experiments(seed, expected)
    raise ValueError(f"unknown workload {name!r}")


def write_files(workload: Workload, workdir: str):
    for name, graph in workload.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
