"""Command-line interface.

Subcommands mirror the experiment workflow: `gen` writes synthetic views,
`summarize` turns a graph into a summary file, `merge` merges two summary
files, `merge-all` folds a directory of summaries under a strategy, and
`bench` produces pairwise merge records plus regression fits.

Exit codes: 0 success, 1 input data error, 2 usage/configuration error.
The default digest can be overridden with the MVSUM_DIGEST environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from mvsum import analytics, multimerge, summary_io
from mvsum.graph import build_graph, graph_triples
from mvsum.merge import CorruptSummaryError, MergeConfigError, merge
from mvsum.ntriples import ParseError, parse_ntriples, triple_line
from mvsum.summary import DEFAULT_DIGEST, Model, check_digest, summarize


class UsageError(Exception):
    """Configuration problem detected after argument parsing (exit 2)."""


def _default_digest() -> str:
    return os.environ.get("MVSUM_DIGEST", DEFAULT_DIGEST)


def _read_graph(path: Path, skip_malformed: bool):
    skipped = []
    handler = skipped.append if skip_malformed else None
    # Binary lines: the parser decodes each one, so invalid UTF-8 is a
    # ParseError with a position that --skip-malformed can skip. splitlines
    # ends lines at a lone CR too, as N-Triples and text mode do.
    with open(path, "rb") as fh:
        lines = (part for line in fh for part in line.splitlines())
        g = build_graph(parse_ntriples(lines, on_error=handler))
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
    s = summarize(g, Model(args.model), digest=args.digest)
    summary_io.save_summary(s, args.output)
    return 0


def cmd_merge(args) -> int:
    s1 = summary_io.load_summary(args.left)
    s2 = summary_io.load_summary(args.right)
    if s1.model != s2.model or s1.digest != s2.digest:
        raise UsageError(
            f"cannot merge: {args.left} is model={s1.model.value} digest={s1.digest}, "
            f"{args.right} is model={s2.model.value} digest={s2.digest}"
        )
    merged, record = merge(s1, s2)
    summary_io.save_summary(merged, args.output)
    if args.stats:
        rows = [analytics.PairResult(str(args.left), str(args.right), record)]
        analytics.write_pair_records_csv(rows, args.stats)
    return 0


def _strategy_from_args(args) -> multimerge.Strategy:
    kind = args.strategy.replace("-", "_")
    if kind == "random":
        if args.seed is None:
            raise UsageError("--strategy random requires --seed")
        return multimerge.Strategy.random(args.seed)
    if kind == "greedy_parallel":
        return multimerge.Strategy.greedy_parallel(args.workers)
    return multimerge.Strategy(kind)


def cmd_merge_all(args) -> int:
    files = _summary_files(Path(args.directory))
    summaries = [summary_io.load_summary(p) for p in files]
    strategy = _strategy_from_args(args)
    try:
        final, schedule = multimerge.merge_all(summaries, strategy, names=[p.name for p in files])
    except MergeConfigError as exc:
        raise UsageError(str(exc)) from None
    summary_io.save_summary(final, args.output)
    if args.schedule:
        multimerge.write_schedule_csv(schedule, args.schedule)
    return 0


def _gen_params(args) -> analytics.GenParams:
    try:
        return analytics.GenParams(
            views=args.views,
            vertices_per_view=args.vertices,
            edges_per_view=args.edges,
            predicate_alphabet=args.predicates,
            class_alphabet=args.classes,
            overlap=args.overlap,
            type_prob=args.type_prob,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_gen(args) -> int:
    params = _gen_params(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    views = analytics.generate_views(params)
    manifest = {"params": dataclasses.asdict(params), "views": []}
    for i, (view_id, g) in enumerate(views):
        path = outdir / f"{view_id}.nt"
        lines = sorted(triple_line(t) for t in graph_triples(g))
        path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8", newline="\n")
        manifest["views"].append({
            "file": path.name,
            "view_id": view_id,
            "seed": analytics.view_seed(params, i),
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "type_assertions": sum(len(v) for v in g.vertex_labels.values()),
        })
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def _bench_inputs(args) -> list[tuple[str, object]]:
    model = Model(args.model)
    digest = args.digest
    named = []
    if args.directory:
        for path in _summary_files(Path(args.directory)):
            with open(path, "rb") as fh:
                first = fh.readline()
            if summary_io.is_summary_header(first):
                named.append((path.name, summary_io.load_summary(path)))
            else:
                g = _read_graph(path, args.skip_malformed)
                named.append((path.name, summarize(g, model, digest=digest)))
    else:
        params = _gen_params(args)
        for view_id, g in analytics.generate_views(params):
            named.append((view_id, summarize(g, model, digest=digest)))
    if len(named) < 2:
        raise UsageError("bench needs at least two summaries")
    models = {s.model for _, s in named}
    digests = {s.digest for _, s in named}
    if len(models) > 1 or len(digests) > 1:
        raise UsageError("bench inputs must share one model and digest")
    return named


def cmd_bench(args) -> int:
    named = _bench_inputs(args)
    rows = analytics.bench_pairwise(named, repeats=args.repeats)
    analytics.write_pair_records_csv(rows, args.output)
    if args.fits:
        model = named[0][1].model
        records = [row.record for row in rows]
        fits = []
        for function in analytics.FIT_FUNCTIONS:
            for measure in analytics.EDGE_MEASURES:
                fits.append((model, function, measure, analytics.correlate_times(records, function, measure)))
        analytics.write_fits_csv(fits, args.fits)
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--views", type=int, default=3, help="number of views")
    p.add_argument("--vertices", type=int, default=100, help="vertices per view")
    p.add_argument("--edges", type=int, default=300, help="edges per view (upper bound, drawn with replacement)")
    p.add_argument("--predicates", type=int, default=8, help="predicate alphabet size")
    p.add_argument("--classes", type=int, default=4, help="class alphabet size")
    p.add_argument("--overlap", type=float, default=0.3, help="fraction of the vertex pool shared across views")
    p.add_argument("--type-prob", type=float, default=0.5, help="probability that a vertex gets a type")
    p.add_argument("--seed", type=int, default=0, help="generator seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvsum", description="Multi-view structural graph summaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="summarize an N-Triples graph")
    p.add_argument("graph", help="input graph (N-Triples)")
    p.add_argument("--model", choices=[m.value for m in Model], default=Model.ACC.value)
    p.add_argument("--digest", default=_default_digest())
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
    p.add_argument("directory", nargs="?", help="directory of views or summaries (.nt); omit to use --gen")
    p.add_argument("--gen", action="store_true", help="generate synthetic views instead of reading a directory")
    p.add_argument("--model", choices=[m.value for m in Model], default=Model.ACC.value)
    p.add_argument("--digest", default=_default_digest())
    p.add_argument("--repeats", type=_positive_int, default=3, help="merges per pair; wall time is the median")
    p.add_argument("--skip-malformed", action="store_true")
    p.add_argument("-o", "--output", required=True, help="pairwise records CSV")
    p.add_argument("--fits", help="regression fits CSV")
    _add_gen_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write synthetic multi-view N-Triples files")
    _add_gen_flags(p)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and bool(args.directory) == bool(args.gen):
        print("error: bench needs either a directory or --gen", file=sys.stderr)
        return 2
    if args.command in ("summarize", "bench"):
        try:
            check_digest(args.digest)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ParseError, summary_io.SummaryFormatError, CorruptSummaryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, MergeConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
