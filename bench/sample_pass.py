"""CLI wall time and peak RSS of `rigidset sample` and `rigidset lattice`, for one
or more source trees.

    python3 bench/sample_pass.py --tree before=/path/to/parent --tree after=. \\
        > BENCH.json

Each call is `python3 -m rigidset.cli ...` in a fresh child with TREE/src on
PYTHONPATH. Its wall time runs from the start of the child to its exit,
interpreter start and import included, and its peak RSS is the child's
ru_maxrss from os.wait4. The calls are `sample k4 --scales 1,2,3,4 --seed 1`
at n = 10^6, 2*10^6 and 3*10^6 (the largest the sample size guard admits
for k4), and `sample k3 --n 300000 --scales 2,3,4,5,6 --seed 1`,
`lattice --d 2 --k 2 --q-list 2,4,6,7` and `lattice --d 3 --k 1 --q-list
2,4,6,8`, the `experiments` workload's two sample and two lattice calls.
Then `sample k2 --d 1 --n 2000000 --scales 16,20 --seed 1`, whose scale
2^-20 merges about 10^6 distinct cells; single lattice instances at or
near the enumeration guard, (d, k, q) = (2, 1, 99), (2, 2, 12), (3, 1, 20)
and (3, 2, 6); and two of many pairs, (2, 6, 2), whose packed rows take
two words, and (1, 16, 1), where d = 1 leaves nothing to fold. Then
`sample k4 --seed 1` at the default scales 3..7 at n = 10^6 and 3*10^6,
and at the ten scales 3..12 at n = 10^6, whose rows take two words.
Then two more calls whose rows take several words: `sample k5 --n
1000000 --seed 1` at the default scales (two words) and `sample k4 --n
3000000 --scales 1,5,10,15,20 --seed 1` (three words). Last, `sample k4
--sampler lattice --q 5 --s 1.5 --n 1000000 --seed 1`, the lattice
sampler at the default scales.
The trees take turns within every one of ROUNDS rounds, the first tree
changing each round, as in analyze_pass.py, whose record fields this one
shares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from analyze_pass import _summary, _tree_id, header, tree_parser, trees_of

CALLS = {
    "k4-1e6": ("sample", "k4", "--n", "1000000", "--scales", "1,2,3,4", "--seed", "1"),
    "k4-2e6": ("sample", "k4", "--n", "2000000", "--scales", "1,2,3,4", "--seed", "1"),
    "k4-3e6": ("sample", "k4", "--n", "3000000", "--scales", "1,2,3,4", "--seed", "1"),
    "k3-3e5": ("sample", "k3", "--n", "300000", "--scales", "2,3,4,5,6", "--seed", "1"),
    "lattice-d2k2": ("lattice", "--d", "2", "--k", "2", "--q-list", "2,4,6,7"),
    "lattice-d3k1": ("lattice", "--d", "3", "--k", "1", "--q-list", "2,4,6,8"),
    "k2-2e6": ("sample", "k2", "--d", "1", "--n", "2000000", "--scales", "16,20", "--seed", "1"),
    "lattice-d2k1q99": ("lattice", "--d", "2", "--k", "1", "--q-list", "99"),
    "lattice-d2k2q12": ("lattice", "--d", "2", "--k", "2", "--q-list", "12"),
    "lattice-d3k1q20": ("lattice", "--d", "3", "--k", "1", "--q-list", "20"),
    "lattice-d3k2q6": ("lattice", "--d", "3", "--k", "2", "--q-list", "6"),
    "lattice-d2k6q2": ("lattice", "--d", "2", "--k", "6", "--q-list", "2"),
    "lattice-d1k16q1": ("lattice", "--d", "1", "--k", "16", "--q-list", "1"),
    "k4-1e6-default": ("sample", "k4", "--n", "1000000", "--seed", "1"),
    "k4-1e6-ten": ("sample", "k4", "--n", "1000000", "--scales", "3,4,5,6,7,8,9,10,11,12",
                   "--seed", "1"),
    "k4-3e6-default": ("sample", "k4", "--n", "3000000", "--seed", "1"),
    "k5-1e6-default": ("sample", "k5", "--n", "1000000", "--seed", "1"),
    "k4-3e6-wide": ("sample", "k4", "--n", "3000000", "--scales", "1,5,10,15,20",
                    "--seed", "1"),
    "k4-lattice-1e6": ("sample", "k4", "--sampler", "lattice", "--q", "5", "--s", "1.5",
                       "--n", "1000000", "--seed", "1"),
}
ROUNDS = 7


def _run(src: str, args: tuple) -> dict:
    """Wall seconds and peak RSS in MB of one CLI call."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rigidset.cli", *args],
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status:
        raise RuntimeError(f"{' '.join(args)} failed in {src} (status {status})")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def measure(trees: dict) -> dict:
    labels = list(trees)
    samples = {label: {name: {} for name in CALLS} for label in labels}
    for r in range(ROUNDS):
        for label in labels[r % len(labels):] + labels[:r % len(labels)]:
            for name, args in CALLS.items():
                for figure, value in _run(os.path.join(trees[label], "src"), args).items():
                    samples[label][name].setdefault(figure, []).append(value)
    return {
        **header("bench/sample_pass.py"),
        "rounds": ROUNDS,
        "calls": {name: " ".join(args) for name, args in CALLS.items()},
        "trees": {label: {**_tree_id(trees[label]),
                          "figures": {name: {figure: _summary(values)
                                             for figure, values in figures.items()}
                                      for name, figures in samples[label].items()}}
                  for label in labels},
    }


def main(argv=None) -> int:
    parser = tree_parser(__doc__)
    print(json.dumps(measure(trees_of(parser, parser.parse_args(argv).tree)), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
