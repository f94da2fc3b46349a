"""Command-line front end.

Subcommands: analyze (threshold report for a graph), complete (minimally
rigid completion), lattice (exact congruence-class counts and content
bounds), sample (box-counting estimate of a sampled distance set). Every
randomized command takes an explicit --seed and reruns byte-identically;
a run manifest is written next to any requested output file.

Exit codes: 0 success, 2 unreadable input, 3 invalid parameter (among them
a --d below 2, a --d of 3 or more whose witness, d times the vertex count,
would exceed rigidity.MAX_WITNESS_COORDINATES coordinates, and a sample of
n tuples whose n * (vertices * d coordinates, times --depth digits for the
cantor sampler, plus edges) array entries exceed
experiments.SAMPLE_ENTRY_LIMIT, which sample_box_dimension refuses before
any draw; the runs measured at that edge peak at 70 to 290 MB), 4
dependent input edges, 5 enumeration guard tripped.
"""

from __future__ import annotations

import argparse
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
from .graphs import Graph, GraphFormatError, graph_from_json, graph_to_json, named_graph
from .rigidity import MAX_WITNESS_COORDINATES, DependentEdgeSetError, minimal_rigid_completion
from .thresholds import ThresholdReport, analyze

DEFAULT_SCALES = "3,4,5,6,7"


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
    """Print text; with --output, also write it (or file_text) and its
    manifest, which says what produced the file: rerunning the same
    command, parameters and seed with the same tool version reproduces
    the bytes. The parameters are every parsed option but the seed and
    the output, with the lists a command parsed in place of their strings.
    The manifest hashes the input graph when there is one."""
    sys.stdout.write(text)
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


def cmd_analyze(args) -> None:
    g = _load_graph(args.graph)
    report = analyze(g, args.d, args.seed)
    doc = json.dumps(report.to_json_obj(), indent=2, sort_keys=True) + "\n"
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
        raise ValueError(f"{flag} expects comma-separated integers, got {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError(f"{flag} expects positive integers, got {raw!r}")
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
    p.add_argument("--d", type=int, default=2, help=witness_d_help)
    p.add_argument("--seed", type=int, required=True, help="witness seed")
    p.add_argument("--output", help="also write the report JSON here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("complete", help="minimally rigid completion of a graph")
    p.add_argument("graph", help="built-in name or JSON file")
    p.add_argument("--d", type=int, default=2, help=witness_d_help)
    p.add_argument("--seed", type=int, required=True, help="witness seed")
    p.add_argument("--output", help="also write the completion JSON here")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("lattice", help="exact congruence-class counts on {0..q}^d grids")
    p.add_argument("--d", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument("--q-list", default="1,2,3", help="comma-separated grid sizes")
    p.add_argument("--k", type=int, default=1, help="tuples have k+1 points")
    p.add_argument("--s", type=float, default=None,
                   help="dimension parameter in [d/2, d) for the content-bound column")
    p.add_argument("--output", help="also write the CSV here")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("sample", help="box-counting estimate of a sampled distance set")
    p.add_argument("graph", help="built-in name or JSON file")
    p.add_argument("--d", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument("--sampler", choices=("cube", "lattice", "cantor"), default="cube")
    p.add_argument("--q", type=int, default=None, help="lattice sampler: grid size")
    p.add_argument("--s", type=float, default=None, help="lattice sampler: dimension parameter")
    p.add_argument("--depth", type=int, default=35, help="cantor sampler: ternary digits")
    p.add_argument("--n", type=int, default=10000, help="number of sampled tuples")
    p.add_argument("--seed", type=int, required=True, help="sampler seed")
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


if __name__ == "__main__":
    sys.exit(main())
