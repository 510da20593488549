"""Command-line interface.

Subcommands mirror the experiment workflow: `gen` writes synthetic views,
`summarize` turns a graph into a summary file, `merge` merges two summary
files, `merge-all` folds a directory of summaries under a strategy, and
`bench` produces pairwise merge records plus regression fits.

Exit codes: 0 success, 1 on a `DataError` or `OSError`, 2 on a `UsageError`.
Input files are read as UTF-8 with `errors="surrogateescape"`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from mvsum import analytics, multimerge, summary_io
from mvsum.errors import DataError, UsageError
from mvsum.graph import build_graph
from mvsum.merge import check_compatible, merge
from mvsum.ntriples import RDF_TYPE, parse_ntriples, triple_line
from mvsum.summary import Model, summarize


def _read_graph(path: Path, skip_malformed: bool):
    skipped = []
    handler = skipped.append if skip_malformed else None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        try:
            g = build_graph(parse_ntriples(fh, on_error=handler))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    if skipped:
        print(f"{path}: skipped {len(skipped)} malformed line(s)", file=sys.stderr)
    return g


def _summary_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise UsageError(f"not a directory: {directory}")
    files = sorted(p for p in directory.iterdir() if p.suffix == ".nt" and p.is_file())
    if not files:
        raise UsageError(f"no .nt files in {directory}")
    return files


def cmd_summarize(args) -> int:
    g = _read_graph(Path(args.graph), args.skip_malformed)
    s = summarize(g, Model(args.model))
    summary_io.save_summary(s, args.output)
    return 0


def cmd_merge(args) -> int:
    s1 = summary_io.load_summary(args.left)
    s2 = summary_io.load_summary(args.right)
    check_compatible("cannot merge", [(args.left, s1), (args.right, s2)])
    merged, record = merge(s1, s2)
    summary_io.save_summary(merged, args.output)
    if args.stats:
        rows = [analytics.PairResult(str(args.left), str(args.right), record)]
        analytics.write_records_csv(rows, args.stats)
    return 0


def cmd_merge_all(args) -> int:
    kind = args.strategy.replace("-", "_")
    strategy = multimerge.Strategy(kind, seed=args.seed if kind == "random" else None,
                                   workers=args.workers if kind == "greedy_parallel" else None)
    files = _summary_files(Path(args.directory))
    summaries = [summary_io.load_summary(p) for p in files]
    final, schedule = multimerge.merge_all(summaries, strategy, names=[p.name for p in files])
    summary_io.save_summary(final, args.output)
    if args.schedule:
        analytics.write_records_csv(schedule.steps, args.schedule, index="step")
    return 0


def cmd_gen(args) -> int:
    params = analytics.GenParams(
        views=args.views,
        vertices_per_view=args.vertices,
        edges_per_view=args.edges,
        predicate_alphabet=args.predicates,
        class_alphabet=args.classes,
        overlap=args.overlap,
        type_prob=args.type_prob,
        seed=args.seed,
    )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"params": dataclasses.asdict(params), "views": []}
    for i in range(params.views):
        view_id = analytics.view_id(i)
        path = outdir / f"{view_id}.nt"
        triples = set(analytics.view_triples(params, i))
        lines = sorted(map(triple_line, triples))
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8", newline="\n")
        types = sum(t.predicate == RDF_TYPE for t in triples)
        manifest["views"].append({
            "file": path.name,
            "view_id": view_id,
            "seed": analytics.view_seed(params, i),
            "vertices": len(build_graph(triples).vertices),
            "edges": len(triples) - types,
            "type_assertions": types,
        })
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def _bench_inputs(args) -> list[tuple[str, object]]:
    model = Model(args.model)
    paths = _summary_files(Path(args.directory))
    summaries = []
    for path in paths:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            first = fh.readline()
        if summary_io.is_summary_header(first):
            summaries.append(summary_io.load_summary(path))
        else:
            g = _read_graph(path, args.skip_malformed)
            summaries.append(summarize(g, model))
    check_compatible("bench inputs must share one model", zip(paths, summaries))
    named = [(path.name, s) for path, s in zip(paths, summaries)]
    if len(named) < 2:
        raise UsageError("bench needs at least two summaries")
    return named


def cmd_bench(args) -> int:
    named = _bench_inputs(args)
    # Two inputs make one pair, merged both ways, so every fit would have one x.
    if args.fits and (len(named) < 3 or len({s.edge_count() for _, s in named}) < 2):
        raise UsageError("--fits needs at least three inputs, of at least two different sizes")
    rows = analytics.bench_pairwise(named, repeats=args.repeats)
    analytics.write_records_csv(rows, args.output)
    if args.fits:
        model = named[0][1].model
        records = [row.record for row in rows]
        fits = [(model, function, measure, analytics.correlate_times(records, function, measure))
                for function in analytics.FIT_FUNCTIONS for measure in analytics.EDGE_MEASURES]
        analytics.write_fits_csv(fits, args.fits)
    return 0


def _positive_int(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvsum", description="Multi-view structural graph summaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="summarize an N-Triples graph")
    p.add_argument("graph", help="input graph (N-Triples)")
    p.add_argument("--model", choices=[m.value for m in Model], default=Model.ACC.value)
    p.add_argument("-o", "--output", required=True, help="summary file to write")
    p.add_argument("--skip-malformed", action="store_true", help="skip and count malformed lines instead of failing")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("merge", help="merge two summary files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stats", help="write a one-row merge stats CSV here")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("merge-all", help="merge a directory of summaries into one")
    p.add_argument("directory")
    p.add_argument("--strategy", choices=["smallest-first", "largest-first", "random", "greedy-parallel"],
                   default="smallest-first")
    p.add_argument("--workers", type=_positive_int, default=2, help="workers for greedy-parallel")
    p.add_argument("--seed", type=int, help="seed for the random strategy")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--schedule", help="write the merge schedule CSV here")
    p.set_defaults(func=cmd_merge_all)

    p = sub.add_parser("bench", help="pairwise merge benchmark and regression fits")
    p.add_argument("directory", help="directory of views or summaries (.nt)")
    p.add_argument("--model", choices=[m.value for m in Model], default=Model.ACC.value)
    p.add_argument("--repeats", type=_positive_int, default=3, help="merges per pair; wall time is the median")
    p.add_argument("--skip-malformed", action="store_true")
    p.add_argument("-o", "--output", required=True, help="pairwise records CSV")
    p.add_argument("--fits", help="regression fits CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write synthetic multi-view N-Triples files")
    p.add_argument("--views", type=int, default=3, help="number of views")
    p.add_argument("--vertices", type=int, default=100, help="vertices per view")
    p.add_argument("--edges", type=int, default=300, help="edges per view (upper bound, drawn with replacement)")
    p.add_argument("--predicates", type=int, default=8, help="predicate alphabet size")
    p.add_argument("--classes", type=int, default=4, help="class alphabet size")
    p.add_argument("--overlap", type=float, default=0.3, help="fraction of the vertex pool shared across views")
    p.add_argument("--type-prob", type=float, default=0.5, help="probability that a vertex gets a type")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
