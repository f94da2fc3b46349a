"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Run it once on the commit whose outputs are taken as correct; it rewrites
perfbench/expected.json with the SHA-1 of each completion of the fixed Laman
inputs, the lattice tables, and the eps,count rows of both sample calls for
every seed in the sample-seed pool.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    import rigidset

    expected = {"complete": {}, "lattice": {}, "sample": {key: {} for key, _ in workloads.SAMPLE_CALLS}}
    _, dropped = workloads.laman_graphs()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    runner = run.Runner(workdir, rigidset)

    def cli(argv):
        res = runner.child([sys.executable, "-m", "rigidset.cli", *argv])
        if res["rc"] != 0:
            raise SystemExit(f"{' '.join(argv)} exited {res['rc']}: {res['stderr']}")
        return res["stdout"]

    try:
        for n in workloads.LAMAN_SIZES:
            path = os.path.join(workdir, f"laman-{n}-dropped.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dropped[n], fh)
            expected["complete"][str(n)] = workloads.sha1(
                cli(["complete", path, "--seed", "1"]))
        for key, argv in workloads.LATTICE_CALLS:
            expected["lattice"][key] = cli(list(argv)).splitlines()
        for seed in range(workloads.SAMPLE_SEED_POOL):
            for key, argv in workloads.SAMPLE_CALLS:
                lines = cli([*argv, "--seed", str(seed)]).splitlines()
                expected["sample"][key][str(seed)] = lines[lines.index("eps,count") + 1:]
            print(f"sample seed {seed} recorded", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
