"""Span tracing from outside the program under test.

The tracer wraps the public functions of each rigidset module, at every
module attribute that is bound to the same function object: a name imported
with `from .linalg import exact_rank_int` is wrapped inside `rigidity` as well
as inside `linalg`, so calls are seen whichever binding the caller uses.
Spans nest on one stack, so a span's self time is its duration minus the
durations of the spans it directly encloses, and self times add up to the
outermost span's duration. A target that no longer exists in the tree under
test is recorded as absent; the metrics derived from it are then left out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("graphs", "frameworks", "linalg", "rigidity", "thresholds", "experiments")
PACKAGE = "rigidset"

# entry points and methods wrapped besides the modules' public functions
EXTRA_TARGETS = ("cli.main", "linalg.RowSpace.add")

# called once per matrix row: a timed span there would cost more than the call,
# so the tracer only counts these
COUNT_ONLY = ("linalg.integerize_row",)

COMPLETION = "rigidity.minimal_rigid_completion"
GENERIC_RANK = "rigidity.generic_rank"


class Tracer:
    """Aggregated span statistics for one traced process.

    stats maps a span name to [total seconds, self seconds, calls]; counts
    holds sizes and outcomes recorded at the same boundaries.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.wrapped: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._witness_ranks: list[int] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _span(self, name: str, fn):
        stats = self.stats.setdefault(name, [0.0, 0.0, 0])
        stack = self._stack
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        def wrapper(*args, **kwargs):
            token = before(self) if before else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                stats[0] += duration
                stats[1] += duration - frame[1]
                stats[2] += 1
            if after:
                try:
                    after(self, args, kwargs, result, token)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the call's shape changed in the tree under test
                    self.absent.add(name + ":sizes")
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target in the imported rigidset package."""
        modules = {}
        for short in MODULES + ("cli",):
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:
                self.absent.add(short)
        targets: dict[str, object] = {}
        owners: dict[str, tuple[object, str]] = {}
        for short in MODULES:
            mod = modules.get(short)
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    targets[f"{short}.{attr}"] = value
        for target in EXTRA_TARGETS + COUNT_ONLY:
            short, *path = target.split(".")
            owner = modules.get(short)
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            value = getattr(owner, path[-1], None) if owner is not None else None
            if value is None:
                self.absent.add(target)
                continue
            targets[target] = value
            if inspect.isclass(owner):
                owners[target] = (owner, path[-1])
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name, fn in targets.items():
            wrapper = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
            if name in owners:
                self._patch(*owners[name], wrapper)
            else:
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, attr, wrapper)
            self.wrapped.add(name)
        return self

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- export --------------------------------------------------------------

    def to_obj(self) -> dict:
        return {"stats": self.stats, "counts": dict(self.counts),
                "absent": sorted(self.absent), "wrapped": sorted(self.wrapped)}


def merge(objs) -> dict:
    """Sum several exported tracers (one per process) into one."""
    stats: dict[str, list] = {}
    counts: Counter = Counter()
    absent: set[str] = set()
    wrapped: set[str] = set()
    for obj in objs:
        for name, (total, self_s, calls) in obj["stats"].items():
            acc = stats.setdefault(name, [0.0, 0.0, 0])
            acc[0] += total
            acc[1] += self_s
            acc[2] += calls
        counts.update(obj["counts"])
        absent.update(obj["absent"])
        wrapped.update(obj["wrapped"])
    return {"stats": stats, "counts": dict(counts),
            "absent": sorted(absent), "wrapped": sorted(wrapped)}


# -- size and outcome hooks ---------------------------------------------------
# Each hook reads sizes from the call's arguments and result; none of them
# repeats work the program did.

def _rows_after(tracer, args, kwargs, rows, _):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["frameworks.rows"] += len(rows)
    tracer.counts["frameworks.dense_entries"] += len(rows) * x.d * x.n_points
    tracer.counts["frameworks.nnz_entries"] += len(rows) * 2 * x.d


def _exact_rank_after(tracer, args, kwargs, rank, _):
    if tracer._open(GENERIC_RANK):
        tracer._witness_ranks.append(rank)


def _generic_rank_before(tracer):
    return len(tracer._witness_ranks)


def _generic_rank_after(tracer, args, kwargs, result, start):
    certified = result[0]
    ranks = tracer._witness_ranks[start:]
    del tracer._witness_ranks[start:]
    tracer.counts["rigidity.witnesses"] += len(ranks)
    tracer.counts["rigidity.witnesses_at_max"] += sum(1 for r in ranks if r == certified)


def _rowspace_add_after(tracer, args, kwargs, grew, _):
    tracer.counts["linalg.RowSpace.add.grew"] += bool(grew)
    if tracer._open(COMPLETION):
        tracer.counts["rigidity.completion_adds"] += 1
        tracer.counts["rigidity.completion_accepted"] += bool(grew)


def _analyze_after(tracer, args, kwargs, report, _):
    tracer.counts["thresholds.components"] += len(report.components)


def _covering_after(tracer, args, kwargs, count, _):
    cloud = args[0] if args else kwargs["cloud"]
    n_points = len(cloud)
    width = cloud.shape[1] if getattr(cloud, "ndim", 1) == 2 else 1
    tracer.counts["experiments.covering_points"] += n_points
    tracer.counts["experiments.covering_bytes"] += n_points * width * 8


def _lattice_after(tracer, args, kwargs, counts, _):
    d, q, k = (list(args) + [kwargs.get(key) for key in ("d", "q", "k")[len(args):]])[:3]
    tracer.counts["experiments.lattice_tuples"] += (q + 1) ** (d * (k + 1))


_BEFORE = {GENERIC_RANK: _generic_rank_before}
_AFTER = {
    "frameworks.rigidity_rows": _rows_after,
    "rigidity.exact_rank": _exact_rank_after,
    GENERIC_RANK: _generic_rank_after,
    "linalg.RowSpace.add": _rowspace_add_after,
    "thresholds.analyze": _analyze_after,
    "experiments.covering_count": _covering_after,
    "experiments.congruence_class_counts": _lattice_after,
}
