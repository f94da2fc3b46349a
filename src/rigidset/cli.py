"""Command-line front end.

Subcommands: analyze (threshold report for a graph), complete (minimally
rigid completion), lattice (exact congruence-class counts and content
bounds), sample (box-counting estimate of a sampled distance set). Every
randomized command takes an explicit --seed and reruns byte-identically;
a run manifest is written next to any requested output file.

Exit codes: 0 success, 2 unreadable input or unwritable --output (or an
option argparse cannot read), 3 invalid parameter (among them
a --d below 2, a --d of 3 or more whose witness, d times the vertex count,
would exceed rigidity.MAX_WITNESS_COORDINATES coordinates, and a sample of
n tuples whose n * (vertices * d coordinates, times --depth digits for the
cantor sampler, plus edges) array entries exceed
experiments.SAMPLE_ENTRY_LIMIT, which sample_box_dimension refuses before
any draw; the runs measured at that edge peak at 70 to 290 MB), 4
dependent input edges, 5 enumeration guard tripped. A refusal prints an
integer above 10^30 in size by its digit count, and option text of more
than _ECHO_LIMIT characters by its length. With --output the file and
its manifest are written before stdout, so a failed write prints nothing.

The process entry, run (the `rigidset` script and `python -m
rigidset.cli`), freezes the heap before main: the tens of thousands of
objects the imports leave, numpy's most of all, would otherwise be
rescanned by every full collection, during the command and at exit.
analyze writes its report JSON through _report_json, which gives the same
bytes as json.dumps(report.to_json_obj(), indent=2, sort_keys=True) but
runs that pure-Python indenter once per distinct component, not once per
component.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

from . import __version__
from .experiments import (
    CantorSampler,
    EnumerationLimitError,
    LatticeSampler,
    UnitCubeSampler,
    check_enumeration,
    congruence_class_counts,
    hausdorff_content_bound,
    sample_box_dimension,
)
from .graphs import (_INT_TEXT_LIMIT, Graph, GraphFormatError, _int_text, graph_from_json,
                     graph_to_json, named_graph)
from .rigidity import MAX_WITNESS_COORDINATES, DependentEdgeSetError, minimal_rigid_completion
from .thresholds import ThresholdReport, analyze

DEFAULT_SCALES = "3,4,5,6,7"
# the longest option text a refusal repeats; longer text is named by its length
_ECHO_LIMIT = 64


def _echo(text: str, shown: str | None = None) -> str:
    """repr(shown), by default of text, if that has at most _ECHO_LIMIT
    characters; else the length of text."""
    shown = text if shown is None else shown
    return repr(shown) if len(shown) <= _ECHO_LIMIT else f"a text of {len(text)} characters"


def _number(text: str, kind=int):
    """kind(text), an int by default, as an argparse type. Text that kind
    cannot read raises ArgumentTypeError, which argparse prints in its own
    wording, with the text shown by _echo, and exits with code 2."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {_echo(text)}")


def _blob_sha1(text: str) -> str:
    # git-style blob hash of the canonical input, for provenance checks;
    # imported here, since only --output manifests need it
    import hashlib

    data = text.encode("utf-8")
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def _load_graph(source: str) -> Graph:
    """Resolve a built-in name (k4, path-5, star-6, double-banana) or read a
    graph JSON file."""
    try:
        return named_graph(source)
    except KeyError:
        pass
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFormatError(f"cannot read graph {source!r}: {exc}") from exc
    return graph_from_json(text)


def _emit(args, text: str, graph: Graph | None = None, file_text: str | None = None):
    """Print text; with --output, first write it (or file_text) and its
    manifest, which says what produced the file: rerunning the same
    command, parameters and seed with the same tool version reproduces
    the bytes. The parameters are every parsed option but the seed and
    the output, with the lists a command parsed in place of their strings.
    The manifest hashes the input graph when there is one."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if file_text is None else file_text)
        parameters = {name: value for name, value in vars(args).items()
                      if name not in ("command", "func", "seed", "output")}
        manifest = {"command": args.command, "parameters": parameters,
                    "seed": getattr(args, "seed", None), "version": __version__,
                    "outputs": [args.output]}
        if graph is not None:
            manifest["input_sha1"] = _blob_sha1(graph_to_json(graph))
        with open(args.output + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_table(label: str, report: ThresholdReport) -> str:
    rows = [
        ("input", label),
        ("d", report.d),
        ("vertices", report.n_vertices),
        ("edges", report.n_edges),
        ("generic rank", report.generic_rank),
        ("predicted dimension", report.predicted_distance_set_dimension),
        ("generically rigid", report.is_generically_rigid),
        ("minimally rigid", report.is_minimally_rigid),
        ("sufficient threshold", report.sufficient_threshold),
        ("pruned threshold", report.pruned_threshold),
        ("necessary exponent", report.necessary_exponent),
        ("natural measure exponent", report.natural_measure_exponent),
        ("small regime threshold", report.small_regime_threshold),
        ("components", len(report.components)),
    ]
    width = max(len(name) for name, _ in rows)
    return "".join(f"{name:<{width}}  {_cell(value)}\n" for name, value in rows)


def _report_json(report: ThresholdReport) -> str:
    """json.dumps(report.to_json_obj(), indent=2, sort_keys=True), byte for
    byte. An indented dump runs json's pure-Python encoder over every
    component; here it runs on the top level and once per distinct set of a
    component's fields other than `vertices`, and each vertex list is
    joined. `components` sorts first among the top level's keys, and
    `vertices`, never empty, last among a component's."""
    obj = report.to_json_obj()
    subs = obj.pop("components")
    top = json.dumps(obj, indent=2, sort_keys=True)
    heads: dict = {}
    parts = []
    for sub in subs:
        vertices = sub.pop("vertices")
        key = tuple(sub.items())
        head = heads.get(key)
        if head is None:
            # the fields one level in, without the closing brace
            fields = json.dumps(sub, indent=2, sort_keys=True)[:-2].replace("\n", "\n    ")
            head = heads[key] = f'    {fields},\n      "vertices": [\n        '
        parts.append(head + ",\n        ".join(map(str, vertices)) + "\n      ]\n    }")
    return '{\n  "components": [\n' + ",\n".join(parts) + "\n  ]," + top[1:]


def cmd_analyze(args) -> None:
    g = _load_graph(args.graph)
    report = analyze(g, args.d, args.seed)
    doc = _report_json(report) + "\n"
    text = _report_table(args.graph, report) + "\n" + doc
    _emit(args, text, g, file_text=doc)


def cmd_complete(args) -> None:
    g = _load_graph(args.graph)
    completion = minimal_rigid_completion(g, args.d, args.seed)
    text = graph_to_json(completion) + "\n"
    _emit(args, text, g)


def _parse_int_list(raw: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {_echo(raw)}") from None
    if not values or any(v < 1 for v in values):
        # an integer above 10^30 is named by its digits
        huge = any(abs(v) > _INT_TEXT_LIMIT for v in values)
        shown = ",".join(map(_int_text, values)) if huge else raw
        raise ValueError(f"{flag} expects positive integers, got {_echo(raw, shown)}")
    return values


def cmd_lattice(args) -> None:
    qs = args.q_list = _parse_int_list(args.q_list, "--q-list")
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    # content bounds first: validates the s range before any enumeration
    contents: dict[int, str] = {}
    if args.s is not None:
        for q in qs:
            contents[q] = repr(hausdorff_content_bound(args.d, q, args.k, args.s))
    # every q is guarded before any is enumerated
    for q in qs:
        check_enumeration(args.d, q, args.k)
    lines = ["q,classes,classes_labeled,count_bound,content_bound"]
    for q in qs:
        unlabeled, labeled = congruence_class_counts(args.d, q, args.k)
        bound = (2 * q + 1) ** (args.d * args.k)
        lines.append(f"{q},{unlabeled},{labeled},{bound},{contents.get(q, '')}")
    _emit(args, "\n".join(lines) + "\n")


def _build_sampler(args):
    if args.sampler == "cube":
        return UnitCubeSampler(args.d)
    if args.sampler == "lattice":
        if args.q is None or args.s is None:
            raise ValueError("the lattice sampler needs --q and --s")
        return LatticeSampler(args.d, args.q, args.s)
    return CantorSampler(args.d, depth=args.depth)


def cmd_sample(args) -> None:
    g = _load_graph(args.graph)
    if not g.n_edges:
        raise ValueError(f"graph {args.graph!r} has no edges, so it has no distances to sample")
    exponents = args.scales = _parse_int_list(args.scales, "--scales")
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0 for sample")
    sampler = _build_sampler(args)
    # a sample over the entry guard and a scale list that fits no slope are
    # refused before any draw
    estimate, max_residual, degenerate = sample_box_dimension(
        g, sampler, args.n, args.seed, [math.ldexp(1.0, -e) for e in exponents])
    lines = [
        f"# sample {args.graph} d={args.d} sampler={args.sampler} n={args.n} seed={args.seed}",
        f"# scales={','.join(str(e) for e in exponents)}",
        f"# slope={repr(estimate.slope)}",
    ]
    if max_residual is not None:
        lines.append(f"# max_euler_residual={repr(max_residual)}")
    if degenerate:
        # a degenerate tuple (coincident points) has no residual
        lines.append(f"# degenerate_tuples={degenerate}")
    lines.append("eps,count")
    for eps, count in zip(estimate.scales, estimate.counts):
        lines.append(f"{repr(eps)},{count}")
    _emit(args, "\n".join(lines) + "\n", g)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigidset",
        description="rigidity analysis and distance-set experiments for small graphs")
    parser.add_argument("--version", action="version", version=f"rigidset {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    witness_d_help = (f"ambient dimension (default 2); in d >= 3, d times the vertex "
                      f"count may be at most {MAX_WITNESS_COORDINATES}")

    p = sub.add_parser("analyze", help="threshold report for a graph")
    p.add_argument("graph", help="built-in name (k4, path-5, star-6, double-banana) or JSON file")
    p.add_argument("--d", type=_number, default=2, help=witness_d_help)
    p.add_argument("--seed", type=_number, required=True, help="witness seed")
    p.add_argument("--output", help="also write the report JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("complete", help="minimally rigid completion of a graph")
    p.add_argument("graph", help="built-in name or JSON file")
    p.add_argument("--d", type=_number, default=2, help=witness_d_help)
    p.add_argument("--seed", type=_number, required=True, help="witness seed")
    p.add_argument("--output", help="also write the completion JSON here")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("lattice", help="exact congruence-class counts on {0..q}^d grids")
    p.add_argument("--d", type=_number, default=2, help="ambient dimension (default 2)")
    p.add_argument("--q-list", default="1,2,3", help="comma-separated grid sizes")
    p.add_argument("--k", type=_number, default=1, help="tuples have k+1 points")
    p.add_argument("--s", type=lambda text: _number(text, float), default=None,
                   help="dimension parameter in [d/2, d) for the content-bound column")
    p.add_argument("--output", help="also write the CSV here")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("sample", help="box-counting estimate of a sampled distance set")
    p.add_argument("graph", help="built-in name or JSON file")
    p.add_argument("--d", type=_number, default=2, help="ambient dimension (default 2)")
    p.add_argument("--sampler", choices=("cube", "lattice", "cantor"), default="cube")
    p.add_argument("--q", type=_number, default=None, help="lattice sampler: grid size")
    p.add_argument("--s", type=lambda text: _number(text, float), default=None,
                   help="lattice sampler: dimension parameter")
    p.add_argument("--depth", type=_number, default=35, help="cantor sampler: ternary digits")
    p.add_argument("--n", type=_number, default=10000, help="number of sampled tuples")
    p.add_argument("--seed", type=_number, required=True, help="sampler seed")
    p.add_argument("--scales", default=DEFAULT_SCALES,
                   help="comma-separated exponents e; grids use eps = 2^-e")
    p.add_argument("--output", help="also write the CSV here")
    p.set_defaults(func=cmd_sample)
    return parser


# the exit code of each exception that main reports, subclasses before
# ValueError, which they would otherwise match first
_EXIT_CODES = ((GraphFormatError, 2), (DependentEdgeSetError, 4), (EnumerationLimitError, 5),
               (ValueError, 3), (OSError, 2))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


def run(argv=None) -> int:
    """Process entry of `rigidset` and `python -m rigidset.cli`: main, after
    gc.freeze() moves every object alive now, the imported modules and
    numpy's most of all, out of the collector's reach for the rest of the
    process. main leaves the collector alone, since callers run it in
    process."""
    gc.freeze()
    return main(argv)


if __name__ == "__main__":
    sys.exit(run())
