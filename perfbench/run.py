"""Benchmark for rigidset: seeded workloads through the CLI and the public API.

    python3 perfbench/run.py --workload rigidity --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree; the package under test is the one in
`src/` next to this directory. Load is a closed loop with one client: one
operation at a time, each CLI call a fresh interpreter, as users run it.
Passes over the workload repeat until --seconds have elapsed (at least one)
and every time reported is the median over passes.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced pass, with untraced passes run
alongside for the tracing overhead. The line before it is the run record:
commit, versions, sizes and every figure measured, as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 170.0


class Runner:
    """Runs operations against the source tree at ROOT, from a working
    directory inside it."""

    def __init__(self, workdir: str, rs):
        self.workdir = workdir
        self.rs = rs
        # absolute, so the CLI resolves the tree under test from any cwd
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self._calls = 0

    def child(self, cmd: list[str]) -> dict:
        """Run one child process to exit; its own peak RSS comes from wait4."""
        self._calls += 1
        out_path = os.path.join(self.workdir, f"out-{self._calls}.txt")
        err_path = os.path.join(self.workdir, f"err-{self._calls}.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            ready = False
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready = bool(select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0])
                finally:
                    os.close(pidfd)
            finally:
                # a child that timed out, or whose wait was interrupted, is
                # killed; every child is reaped before this returns
                if not ready:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        return {"wall_s": wall, "rc": proc.returncode, "stdout": stdout, "stderr": stderr,
                "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": not ready}

    def run_op(self, op, trace_file: str | None = None, tracer=None) -> dict:
        if op.call is not None:
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                output = op.call(self.rs)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            return {"wall_s": wall, "output": output, "error": error, "rss_mb": None}
        if trace_file is None:
            cmd = [sys.executable, "-m", "rigidset.cli", *op.argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_file, *op.argv]
        res = self.child(cmd)
        error = None
        if res["timed_out"]:
            error = f"timed out after {CHILD_TIMEOUT_S} s"
        elif res["rc"] != 0:
            error = f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"
        return {"wall_s": res["wall_s"], "output": res["stdout"], "error": error,
                "rss_mb": res["rss_mb"]}

    def check(self, op, res: dict) -> str | None:
        if res["error"] is not None:
            return res["error"]
        try:
            return op.check(res["output"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def run_pass(self, workload, traced: bool = False, probe: bool = False) -> dict:
        """One pass over every operation. With probe, the workload's setup
        call runs probes_per_op times after each operation, so that set-up
        time is sampled across the whole run; it is not part of the pass
        time. Outputs are checked after the pass, outside the timed region."""
        results, trace_files, probes = [], [], []
        tracer = spans.Tracer() if traced else None
        for i, op in enumerate(workload.ops):
            trace_file = None
            if traced and op.call is None:
                trace_file = os.path.join(self.workdir, f"trace-{i}.json")
                trace_files.append(trace_file)
            results.append((op, self.run_op(op, trace_file, tracer)))
            if probe:
                for _ in range(workload.probes_per_op):
                    probes.append((workload.setup, self.run_op(workload.setup)))
        totals = {}
        for op, res in results:
            totals[op.metric] = totals.get(op.metric, 0.0) + res["wall_s"]
        errors = []
        for op, res in results + probes:
            reason = self.check(op, res)
            if reason is not None:
                errors.append(f"{op.label}: {reason}")
        rss = [res["rss_mb"] for _, res in results if res["rss_mb"] is not None]
        out = {"wall_s": sum(res["wall_s"] for _, res in results), "totals": totals,
               "setup_s": [res["wall_s"] for _, res in probes],
               "peak_rss_mb": max(rss) if rss else 0.0,
               "attempted": len(results) + len(probes), "failed": len(errors), "errors": errors}
        if traced:
            objs = [tracer.to_obj()]
            for path in trace_files:
                if os.path.exists(path):
                    with open(path, "r", encoding="utf-8") as fh:
                        objs.append(json.load(fh))
                    os.remove(path)
            out["trace"] = spans.merge(objs)
        return out

    def import_times(self) -> dict:
        """Cumulative import times of rigidset and numpy from a fresh
        interpreter, medians of several runs."""
        found = {"rigidset": [], "numpy": []}
        for _ in range(IMPORT_REPEATS):
            res = self.child([sys.executable, "-X", "importtime", "-c", "import rigidset"])
            for line in res["stderr"].splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in found:
                    found[parts[2].strip()].append(int(parts[1]) / 1e6)
        return {f"import.{name}_s": statistics.median(v) for name, v in found.items() if v}


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, workload, seconds: float) -> dict:
    runner.run_op(workload.setup)  # warms the file cache; not measured
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass(workload, probe=True))
    setup = [t for p in passes for t in p["setup_s"]]
    values = {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "setup_s": _median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    extra = {"pass_wall_s": [p["wall_s"] for p in passes], "setup_samples": len(setup),
             "setup_samples_s": setup}
    for name in metrics.SUBCOMMAND_TIMES:
        per_pass = [p["totals"][name] for p in passes if name in p["totals"]]
        if per_pass:
            extra[name] = _median(per_pass)
    return _summary(passes, values, extra)


def measure_traced(runner: Runner, workload, seconds: float) -> dict:
    values = runner.import_times()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass(workload))
        traced.append(runner.run_pass(workload, traced=True))
    layer_values, absent = [], set()
    for p in traced:
        vals, missing = metrics.per_layer_values(p["trace"])
        layer_values.append(vals)
        absent.update(missing)
    for name in layer_values[0]:
        values[name] = _median([v[name] for v in layer_values])
    values["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                                  - _median([p["wall_s"] for p in untraced]))
    extra = {"untraced_wall_s": _median([p["wall_s"] for p in untraced]),
             "traced_wall_s": _median([p["wall_s"] for p in traced]),
             "absent": sorted(absent)}
    return _summary(untraced + traced, values, extra)


def _summary(passes, values, extra) -> dict:
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = len(errors)
    extra = dict(extra, fail_frac=failed / attempted, passes=len(passes))
    return {"values": values, "extra": extra, "attempted": attempted,
            "failed": failed, "errors": errors}


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def _src_sha1() -> str:
    """Digest of the package sources, which identifies the tree under test
    where there is no git commit."""
    digest = hashlib.sha1()
    pkg = os.path.join(SRC, "rigidset")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, rs) -> dict:
    workload = workloads.build(name, seed, rs)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workloads.write_files(workload, workdir)
        runner = Runner(workdir, rs)
        result = (measure_traced if trace else measure)(runner, workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    result["line"] = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["values"].items()},
    }
    result["record"] = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "src_sha1": _src_sha1(),
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(), "sizes": workload.sizes,
        "operations": [op.label for op in workload.ops],
        "metrics": result["values"], "extra": result["extra"],
        "errors": result["errors"][:20],
    }
    return result


def _print_table(name: str, result: dict, trace: bool):
    units = dict(metrics.PER_LAYER if trace else metrics.END_TO_END)
    units.update({k: "s" for k in metrics.SUBCOMMAND_TIMES})
    rows = dict(result["values"])
    rows.update({k: v for k, v in result["extra"].items() if isinstance(v, (int, float))})
    print(f"# {name}")
    for key, value in rows.items():
        print(f"{key:<44} {value:>16.6g} {units.get(key, '')}")
    for error in result["errors"][:20]:
        print(f"FAIL {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rigidset", "__init__.py")):
        print(f"error: no rigidset package under {SRC}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rigidset
    if os.path.dirname(os.path.dirname(os.path.abspath(rigidset.__file__))) != SRC:
        print(f"error: imported rigidset from {rigidset.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), rigidset)
        _print_table(name, result, bool(args.trace))
        print(json.dumps({"record": result["record"]}, sort_keys=True))
        lines[name] = result["line"]
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
