"""Time and memory of rigidset's CLI and analyze stages on several trees.

    python3 bench/compare.py --tree parent=/path/to/parent --tree change=. > BENCH.json

Every tree is measured by fresh child interpreters with TREE/src on
PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, as in perfbench, so no child
writes a bytecode cache that a later one reads; on trees whose src holds no
__pycache__, such as fresh checkouts, every child compiles the package.
The inputs, written once as graph JSON files into the children's working
directory, come from perfbench/inputs.py: seeded forests of 500 to 4000
small components (the `forest` workload's generator) and plane Laman graphs.

Each round, each tree first runs the stage child, which times in one
process, after one warm-up call, REPEATS runs of each stage of `analyze` in
d = 2 with seed 1 on each input: load (graph_from_json of the file's text),
analyze, and emit (the report's JSON as the CLI writes it, through
rigidset.cli._report_json, which every tree measured needs). Then each of
CALLS runs as `python3 -m rigidset.cli ...` in a fresh child; its wall time
runs from its start to its exit, interpreter start and import included, and
its peak RSS (ru_maxrss), minor page faults (ru_minflt) and system CPU
seconds (ru_stime) come from the same os.wait4. The first tree changes each
of ROUNDS rounds, so a drift of the machine falls on all trees. Each figure
is the median and quartiles of all its samples; the record also names each
tree's commit and a digest of its sources, and the Python and numpy versions.
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
CALLS = {
    **{f"analyze-forest-{c}": ("analyze", f"forest-{c}.json", "--seed", "1")
       for c in FOREST_SIZES},
    # k4 at n = 3*10^6 is the largest sample the sample size guard admits
    "k4-1e6": ("sample", "k4", "--n", "1000000", "--scales", "1,2,3,4", "--seed", "1"),
    "k4-2e6": ("sample", "k4", "--n", "2000000", "--scales", "1,2,3,4", "--seed", "1"),
    "k4-3e6": ("sample", "k4", "--n", "3000000", "--scales", "1,2,3,4", "--seed", "1"),
    # the `experiments` workload's two sample and two lattice calls
    "k3-3e5": ("sample", "k3", "--n", "300000", "--scales", "2,3,4,5,6", "--seed", "1"),
    "lattice-d2k2": ("lattice", "--d", "2", "--k", "2", "--q-list", "2,4,6,7"),
    "lattice-d3k1": ("lattice", "--d", "3", "--k", "1", "--q-list", "2,4,6,8"),
    # scale 2^-20 merges about 10^6 distinct cells
    "k2-2e6": ("sample", "k2", "--d", "1", "--n", "2000000", "--scales", "16,20", "--seed", "1"),
    # single lattice instances at or near the enumeration guard
    "lattice-d2k1q99": ("lattice", "--d", "2", "--k", "1", "--q-list", "99"),
    "lattice-d2k2q12": ("lattice", "--d", "2", "--k", "2", "--q-list", "12"),
    "lattice-d3k1q20": ("lattice", "--d", "3", "--k", "1", "--q-list", "20"),
    "lattice-d3k2q6": ("lattice", "--d", "3", "--k", "2", "--q-list", "6"),
    # many pairs: packed rows of two words; d = 1 leaves nothing to fold
    "lattice-d2k6q2": ("lattice", "--d", "2", "--k", "6", "--q-list", "2"),
    "lattice-d1k16q1": ("lattice", "--d", "1", "--k", "16", "--q-list", "1"),
    # the default scales 3..7, and ten scales, whose rows take two words
    "k4-1e6-default": ("sample", "k4", "--n", "1000000", "--seed", "1"),
    "k4-1e6-ten": ("sample", "k4", "--n", "1000000", "--scales", "3,4,5,6,7,8,9,10,11,12",
                   "--seed", "1"),
    "k4-3e6-default": ("sample", "k4", "--n", "3000000", "--seed", "1"),
    # rows of two words and of three
    "k5-1e6-default": ("sample", "k5", "--n", "1000000", "--seed", "1"),
    "k4-3e6-wide": ("sample", "k4", "--n", "3000000", "--scales", "1,5,10,15,20",
                    "--seed", "1"),
    # the lattice sampler at the default scales
    "k4-lattice-1e6": ("sample", "k4", "--sampler", "lattice", "--q", "5", "--s", "1.5",
                       "--n", "1000000", "--seed", "1"),
}


def _write_inputs(workdir: str) -> dict:
    """Write the inputs as NAME.json files; returns {name: their sizes}."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import inputs

    graphs = {f"forest-{c}": inputs.forest(c, 1) for c in FOREST_SIZES}
    graphs.update({f"laman-{n}": inputs.henneberg_laman(n, n) for n in LAMAN_SIZES})
    for name, obj in graphs.items():
        with open(os.path.join(workdir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return {name: {"vertices": obj["vertices"], "edges": len(obj["edges"])}
            for name, obj in graphs.items()}


def stages(names: list) -> dict:
    """Stage timings of the inputs NAME.json in the working directory, in
    this process, against the rigidset on PYTHONPATH:
    {name: {stage: [seconds, ...]}}."""
    from rigidset import cli
    from rigidset.graphs import graph_from_json
    from rigidset.thresholds import analyze

    out = {}
    for name in names:
        samples = {stage: [] for stage in STAGES}
        for run in range(REPEATS + 1):
            t0 = time.perf_counter()
            with open(name + ".json", encoding="utf-8") as fh:
                g = graph_from_json(fh.read())
            t1 = time.perf_counter()
            report = analyze(g, 2, 1)
            t2 = time.perf_counter()
            cli._report_json(report)
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


def _child_env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def _run(src: str, args: tuple, cwd: str) -> dict:
    """Wall seconds, peak RSS in MB, minor page faults and system CPU
    seconds of one CLI call, run in the directory cwd."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rigidset.cli", *args], cwd=cwd,
                            env=_child_env(src), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status:
        raise RuntimeError(f"{' '.join(args)} failed in {src} (status {status})")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "minor_faults": usage.ru_minflt, "sys_s": usage.ru_stime}


def measure(trees: dict) -> dict:
    labels = list(trees)
    samples = {label: {} for label in labels}
    with tempfile.TemporaryDirectory() as workdir:
        sizes = _write_inputs(workdir)
        for r in range(ROUNDS):
            for label in labels[r % len(labels):] + labels[:r % len(labels)]:
                src = os.path.join(trees[label], "src")
                child = subprocess.run(
                    [sys.executable, os.path.join(HERE, "compare.py"), "--stages", *sizes],
                    cwd=workdir, env=_child_env(src), capture_output=True, text=True,
                    check=True)
                runs = json.loads(child.stdout)
                for name, args in CALLS.items():
                    runs[name] = {figure: [value]
                                  for figure, value in _run(src, args, workdir).items()}
                for name, figures in runs.items():
                    for figure, values in figures.items():
                        samples[label].setdefault(name, {}).setdefault(figure, []).extend(values)
    return {
        "harness": "bench/compare.py",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "inputs": sizes,
        "calls": {name: " ".join(args) for name, args in CALLS.items()},
        "trees": {label: {**_tree_id(trees[label]),
                          "figures": {name: {figure: _summary(values)
                                             for figure, values in figures.items()}
                                      for name, figures in samples[label].items()}}
                  for label in labels},
    }


def _tree(spec: str) -> tuple:
    """(label, absolute path) of one --tree LABEL=PATH."""
    label, sep, path = spec.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"--tree wants LABEL=PATH, got {spec!r}")
    return label, os.path.abspath(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=_tree, action="append", default=[],
                        metavar="LABEL=PATH", help="a source tree to measure (repeat for several)")
    parser.add_argument("--stages", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.stages:
        print(json.dumps(stages(args.stages)))
    elif args.tree:
        print(json.dumps(measure(dict(args.tree)), indent=2))
    else:
        parser.error("give at least one --tree LABEL=PATH")
    return 0


if __name__ == "__main__":
    sys.exit(main())
