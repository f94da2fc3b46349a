"""In-process and CLI timings of `rigidset analyze`, for one or more source trees.

    python3 bench/analyze_pass.py --tree before=/path/to/parent --tree after=. \\
        > BENCH.json

Every tree is measured by fresh child interpreters that import rigidset from
TREE/src, so one script and one set of inputs measure every tree. The inputs
come from perfbench/inputs.py beside this script: seeded forests of 500,
1000, 2000 and 4000 small components (the `forest` workload's generator) and
plane Laman graphs with n = 640 and 1280, written once as graph JSON files.

For each input a child times, after one warm-up call, REPEATS runs of each
stage of `analyze` in d = 2 with seed 1: load (graph_from_json of the file's
text), analyze, and emit (the report's JSON as the CLI writes it). The CLI
time is the wall time of `python3 -m rigidset.cli analyze FILE --seed 1` on
each forest, interpreter start and import included. Every child, of either
kind and of sample_pass.py, runs with TREE/src on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1, so none writes a bytecode cache into a tree for
a later child to read. The trees take turns
within every one of ROUNDS rounds, the first tree changing each round, so
a drift of the machine falls on all of them. Each figure is the median and
quartiles of all its samples; the record also names each tree's commit and
a digest of its sources, and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FOREST_SIZES = (500, 1000, 2000, 4000)
LAMAN_SIZES = (640, 1280)
STAGES = ("load_s", "analyze_s", "emit_s")
ROUNDS = 7
REPEATS = 3


def _write_inputs(workdir: str) -> dict:
    """Write the inputs as graph JSON files; returns {name: path}."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs

    graphs = {f"forest-{c}": inputs.forest(c, 1) for c in FOREST_SIZES}
    graphs.update({f"laman-{n}": inputs.henneberg_laman(n, n) for n in LAMAN_SIZES})
    paths = {}
    for name, obj in graphs.items():
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return paths


def _child_env(src: str) -> dict:
    """The environment of every child: src on PYTHONPATH, and no bytecode
    cache written, so that no child leaves one for a later child to read."""
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def child(src: str, paths: dict) -> dict:
    """Stage timings of every input, in this process, against the package
    in src: {name: {stage: [seconds, ...]}}."""
    sys.path.insert(0, src)
    from rigidset.graphs import graph_from_json
    from rigidset.thresholds import analyze

    out = {}
    for name, path in paths.items():
        samples = {stage: [] for stage in STAGES}
        for run in range(REPEATS + 1):
            t0 = time.perf_counter()
            with open(path, encoding="utf-8") as fh:
                g = graph_from_json(fh.read())
            t1 = time.perf_counter()
            report = analyze(g, 2, 1)
            t2 = time.perf_counter()
            json.dumps(report.to_json_obj(), indent=2, sort_keys=True)
            t3 = time.perf_counter()
            if run:  # the first run warms up
                for stage, seconds in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2)):
                    samples[stage].append(seconds)
        out[name] = samples
    return out


def _summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "samples": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": len(values)}


def _tree_id(tree: str) -> dict:
    """The tree's commit (None outside git), whether its sources differ
    from that commit, and a digest of its package sources."""
    commit = dirty = None
    if os.path.isdir(os.path.join(tree, ".git")):
        head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "-C", tree, "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True, check=False)
        commit, dirty = head.stdout.strip() or None, bool(status.stdout.strip())
    digest = hashlib.sha1()
    pkg = os.path.join(tree, "src", "rigidset")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "src_dirty": dirty, "src_sha1": digest.hexdigest()}


def _run(src: str, args: tuple) -> dict:
    """Wall seconds, peak RSS in MB, minor page faults and system CPU
    seconds of one CLI call."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rigidset.cli", *args],
                            env=_child_env(src), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status:
        raise RuntimeError(f"{' '.join(args)} failed in {src} (status {status})")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt, "sys_s": usage.ru_stime}


def header(harness: str) -> dict:
    """The fields a record starts with: the harness, the Python and numpy
    versions, and the machine."""
    return {
        "harness": harness,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def measure(trees: dict) -> dict:
    labels = list(trees)
    samples = {label: {} for label in labels}
    with tempfile.TemporaryDirectory() as workdir:
        paths = _write_inputs(workdir)
        forests = [name for name in paths if name.startswith("forest-")]
        for r in range(ROUNDS):
            for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                src = os.path.join(trees[label], "src")
                res = subprocess.run(
                    [sys.executable, __file__, "--child", src, json.dumps(paths)],
                    env=_child_env(src), capture_output=True, text=True, check=True)
                for name, stages in json.loads(res.stdout).items():
                    for stage, values in stages.items():
                        samples[label].setdefault(name, {}).setdefault(stage, []).extend(values)
                for name in forests:
                    samples[label].setdefault(name, {}).setdefault("cli_analyze_s", []).append(
                        _run(src, ("analyze", paths[name], "--seed", "1"))["wall_s"])
        sizes = {}
        for name, path in paths.items():
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            sizes[name] = {"vertices": obj["vertices"], "edges": len(obj["edges"])}
    return {
        **header("bench/analyze_pass.py"),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "inputs": sizes,
        "trees": {label: {**_tree_id(trees[label]),
                          "figures": {name: {stage: _summary(values)
                                             for stage, values in stages.items()}
                                      for name, stages in samples[label].items()}}
                  for label in labels},
    }


def tree_parser(doc: str) -> argparse.ArgumentParser:
    """A parser with the one --tree LABEL=PATH option, repeatable."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a source tree to measure (repeat for several)")
    return parser


def trees_of(parser: argparse.ArgumentParser, specs: list) -> dict:
    """{label: absolute path} of the --tree values, in their order."""
    if not specs:
        parser.error("give at least one --tree LABEL=PATH")
    trees = {}
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            parser.error(f"--tree wants LABEL=PATH, got {spec!r}")
        trees[label] = os.path.abspath(path)
    return trees


def main(argv=None) -> int:
    parser = tree_parser(__doc__)
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        src, paths = args.child
        print(json.dumps(child(src, json.loads(paths))))
        return 0
    print(json.dumps(measure(trees_of(parser, args.tree)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
