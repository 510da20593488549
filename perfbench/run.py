"""Pipeline benchmark for mvsum: `ingest`, `merge-files` and `fold`.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Each workload generates its inputs from the seed (perfbench/gen.py), computes
the expected output bytes with an oracle that imports nothing from mvsum
(perfbench/oracle.py), sets up, and then runs ops for `--seconds` seconds,
checking every op's output against the oracle. Reported times are scaled to
a reference host speed by a loop timed between the calls into mvsum
(perfbench/refclock.py). With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it runs traced and untraced ops in turn and prints the
per-layer metrics. The last stdout line is one JSON
object; a run record (and the spans of a traced run) is written under
`.perfbench/`. The exit code is non-zero if any op failed.

mvsum is imported from `src/` of the checkout this file sits in; no install
step is needed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import gen
import oracle
import refclock
from refclock import StageClock
from spans import GcMonitor, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN_GRAPH = ROOT / "tests" / "data" / "tiny_graph.nt"
GOLDEN_SUMMARY = ROOT / "tests" / "data" / "tiny_graph_acc.golden.nt"
SPEC = ROOT / "BENCHMARK.json"

IMPORT_REPEATS = 5
SETUP_REPEATS = 3
MB = 1e6

# Fine-grained schemas: 320 predicates over ~3 out-edges per vertex give
# about 1.2 members per EQC, so the summary file is ~2.2x the graph.
INGEST = gen.Shape(edges=64000, vertices=21333, overlap=0.5, predicates=320, classes=6, type_prob=0.4, literal_share=0.25)
PAIR = gen.Shape(edges=32000, vertices=10667, overlap=0.5, predicates=320, classes=6, type_prob=0.4, literal_share=0.25)
# Coarse schemas: 6 predicates and 3 classes give ~256 EQCs of ~40 members,
# and with overlap 0.7 most shared members conflict (merge case 3).
FOLD = gen.Shape(edges=32000, vertices=10667, overlap=0.7, predicates=6, classes=3, type_prob=0.4, literal_share=0.25)
FOLD_VIEWS = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dur(span: dict) -> float:
    return span["end"] - span["start"]


def named(spans: list[dict], name: str) -> list[dict]:
    return [s for s in spans if s["name"] == name]


def read_layers(spans: list[dict]) -> dict[str, float]:
    """ntriples, graph and summary metrics summed over the graph reads in `spans`."""
    builds = named(spans, "graph.build_graph")
    sums = named(spans, "summary.summarize")
    if not builds or not sums:
        return {}
    parse = sum(b["attrs"]["parse_s"] for b in builds)
    lines = sum(b["attrs"]["lines"] for b in builds)
    eqcs = sum(s["attrs"]["eqcs"] for s in sums)
    return {
        "ntriples.parse_s": parse,
        "ntriples.us_per_line": parse / lines * 1e6,
        "ntriples.lines": lines,
        "graph.build_s": sum(map(dur, builds)) - parse,
        "graph.vertices": sum(b["attrs"]["vertices"] for b in builds),
        "summary.summarize_s": sum(map(dur, sums)),
        "summary.eqcs": eqcs,
        "summary.members_per_eqc": sum(s["attrs"]["members"] for s in sums) / eqcs,
    }


def merge_layers(merge_spans: list[dict]) -> dict[str, float]:
    """merge metrics over sequentially run merges (threaded ones contend for the GIL)."""
    if not merge_spans:
        return {}
    call = sum(map(dur, merge_spans))
    steps = sum(s["attrs"]["wall_ms"] for s in merge_spans) / 1e3
    return {
        "merge.call_s": call,
        "merge.steps_s": steps,
        "merge.accounting_s": call - steps,
        "merge.ns_per_edge": call / sum(s["attrs"]["edges_sum"] for s in merge_spans) * 1e9,
        "merge.case3_share": sum(s["attrs"]["case3"] for s in merge_spans)
        / sum(s["attrs"]["members_s1"] for s in merge_spans),
    }


def traced_build(api, tr, path: Path):
    """open -> parse_ntriples -> build_graph, parse time split off by timing next()."""
    with open(path, encoding="utf-8") as fh:
        triples = tr.timed_iter(api.parse_ntriples(fh))
        with tr.span("graph.build_graph") as sp:
            g = api.build_graph(triples)
        if tr.enabled:
            sp["attrs"].update(parse_s=triples.seconds, lines=triples.count, vertices=len(g.vertices))
    return g


def traced_summarize(api, tr, g):
    with tr.span("summary.summarize") as sp:
        s = api.summarize(g, api.Model.ACC)
    sp["attrs"].update(eqcs=len(s.eqcs), members=len(s.member_index))
    return s


def traced_save(api, tr, s, path: Path, bytes_in: int) -> None:
    with tr.span("summary_io.save_summary") as sp:
        api.save_summary(s, path)
    sp["attrs"].update(bytes_out=path.stat().st_size, bytes_in=bytes_in)


def merge_attrs(record) -> dict:
    st = record.stats
    return {
        "edges_s1": record.edges_s1, "edges_s2": record.edges_s2, "edges_sum": record.edges_sum,
        "edges_union": record.edges_union, "wall_ms": record.wall_ms,
        "case1": st.case1, "case2": st.case2, "case3": st.case3, "members_s1": st.members_s1,
    }


class Workload:
    """Set-up and per-op hooks; a workload overrides those it needs."""

    # Whether `prepare` makes mvsum calls, which set-up then times.
    prepares = False

    def prepare(self, api, tr) -> None:
        """mvsum calls that build the op inputs; timed as set-up, not as an op."""

    def check_prepared(self, api) -> None:
        """Raise if the set-up outputs differ from the oracle."""

    def before_op(self) -> None:
        """Untimed preparation before each op."""


class Ingest(Workload):
    """One graph file -> one summary file, as `mvsum summarize` does it."""

    name = "ingest"

    def __init__(self, seed: int, work: Path):
        view = gen.make_view(INGEST, seed, self.name, 0)
        self.graph = work / "graph.nt"
        self.graph.write_text(view.text, encoding="utf-8")
        self.expected = oracle.summary_bytes(view.schema)
        self.out = work / "summary.nt"
        self.stmts = view.lines
        self.bytes_in = self.graph.stat().st_size
        self.inputs = {"graph.nt": sha256(view.text.encode("utf-8"))}
        self.expected_sha = {"summary.nt": sha256(self.expected)}

    def before_op(self) -> None:
        self.out.unlink(missing_ok=True)

    def op(self, api, tr):
        g = traced_build(api, tr, self.graph)
        s = traced_summarize(api, tr, g)
        traced_save(api, tr, s, self.out, self.bytes_in)

    def check(self, api, result) -> bool:
        return self.out.read_bytes() == self.expected

    def layers(self, op_spans: list[dict], setup_spans: list[dict]) -> dict[str, float]:
        save = named(op_spans, "summary_io.save_summary")[0]
        m = read_layers(op_spans)
        m["summary_io.save_s"] = dur(save)
        m["summary_io.bytes_out_per_in"] = save["attrs"]["bytes_out"] / save["attrs"]["bytes_in"]
        return m


class MergeFiles(Workload):
    """Two summary files -> one merged file, as `mvsum merge` does it."""

    name = "merge-files"

    def __init__(self, seed: int, work: Path):
        views = [gen.make_view(PAIR, seed, self.name, i) for i in range(2)]
        self.paths = [work / f"summary{i}.nt" for i in range(2)]
        self.inputs = {}
        for path, view in zip(self.paths, views):
            data = oracle.summary_bytes(view.schema)
            path.write_bytes(data)
            self.inputs[path.name] = sha256(data)
        self.expected = oracle.summary_bytes(gen.union_schema(views))
        self.out = work / "merged.nt"
        self.bytes_in = sum(p.stat().st_size for p in self.paths)
        # Summary lines read: every line but the two headers.
        self.stmts = sum(p.read_bytes().count(b"\n") - 1 for p in self.paths)
        self.expected_sha = {"merged.nt": sha256(self.expected)}

    def before_op(self) -> None:
        self.out.unlink(missing_ok=True)

    def op(self, api, tr):
        loaded = []
        for path in self.paths:
            with tr.span("summary_io.load_summary") as sp:
                loaded.append(api.load_summary(path, verify=True))
            sp["attrs"]["bytes"] = path.stat().st_size
        with tr.span("merge.merge") as sp:
            merged, record = api.merge(*loaded)
        sp["attrs"].update(merge_attrs(record))
        traced_save(api, tr, merged, self.out, self.bytes_in)

    def check(self, api, result) -> bool:
        return self.out.read_bytes() == self.expected

    def layers(self, op_spans: list[dict], setup_spans: list[dict]) -> dict[str, float]:
        loads = named(op_spans, "summary_io.load_summary")
        save = named(op_spans, "summary_io.save_summary")[0]
        load_s = sum(map(dur, loads))
        m = merge_layers(named(op_spans, "merge.merge"))
        m["summary_io.load_s"] = load_s
        m["summary_io.load_mb_per_s"] = sum(s["attrs"]["bytes"] for s in loads) / MB / load_s
        m["summary_io.save_s"] = dur(save)
        m["summary_io.bytes_out_per_in"] = save["attrs"]["bytes_out"] / save["attrs"]["bytes_in"]
        return m


@contextmanager
def traced_merges(api, tr, parent: int):
    """Span every merge that merge_all makes, in whichever thread makes it."""
    if not tr.enabled:
        yield
        return
    module = api.multimerge
    inner = module.merge

    def merge(a, b):
        with tr.span("merge.merge", parent=parent) as sp:
            out, record = inner(a, b)
        sp["attrs"].update(merge_attrs(record))
        return out, record

    module.merge = merge
    try:
        yield
    finally:
        module.merge = inner


class Fold(Workload):
    """Eight in-memory summaries -> one, smallest-first then greedy_parallel(2)."""

    name = "fold"
    prepares = True

    def __init__(self, seed: int, work: Path):
        views = [gen.make_view(FOLD, seed, self.name, i) for i in range(FOLD_VIEWS)]
        self.paths = [work / f"view{i}.nt" for i in range(FOLD_VIEWS)]
        self.inputs = {}
        self.view_expected = []
        for path, view in zip(self.paths, views):
            path.write_text(view.text, encoding="utf-8")
            self.inputs[path.name] = sha256(view.text.encode("utf-8"))
            self.view_expected.append(oracle.summary_bytes(view.schema))
        self.expected = oracle.summary_bytes(gen.union_schema(views))
        # The inputs' summed edge_count(): one per statement of each summary.
        self.stmts = sum(data.count(b"\n") - 1 for data in self.view_expected)
        self.expected_sha = {f"summary{i}.nt": sha256(d) for i, d in enumerate(self.view_expected)}
        self.expected_sha["folded.nt"] = sha256(self.expected)
        self.summaries = []
        self.steps: list[dict] = []

    def prepare(self, api, tr) -> None:
        # Drop the previous set-up's summaries first, so every repeat starts
        # from the same heap.
        self.summaries = []
        self.summaries = [traced_summarize(api, tr, traced_build(api, tr, p)) for p in self.paths]

    def check_prepared(self, api) -> None:
        for s, want in zip(self.summaries, self.view_expected):
            if api.format_summary(s).encode("utf-8") != want:
                raise RuntimeError("set-up summary differs from the oracle")

    def op(self, api, tr):
        results = []
        for strategy in (api.Strategy.smallest_first(), api.Strategy.greedy_parallel(2)):
            with tr.span("multimerge.merge_all") as sp:
                with traced_merges(api, tr, sp.get("id")):
                    final, schedule = api.merge_all(self.summaries, strategy)
            sp["attrs"].update(strategy=strategy.kind, work_edges=schedule.total_work)
            results.append((strategy.kind, final, schedule))
        return results

    def check(self, api, results) -> bool:
        ok = True
        for kind, final, schedule in results:
            ok &= api.format_summary(final).encode("utf-8") == self.expected
            ok &= len(schedule.steps) == FOLD_VIEWS - 1
            for i, step in enumerate(schedule.steps):
                self.steps.append({"strategy": kind, "step": i, **merge_attrs(step.record)})
        return ok

    def layers(self, op_spans: list[dict], setup_spans: list[dict]) -> dict[str, float]:
        folds = {s["attrs"]["strategy"]: s for s in named(op_spans, "multimerge.merge_all")}
        sf, gp = folds["smallest_first"], folds["greedy_parallel"]
        sf_merges = [s for s in named(op_spans, "merge.merge") if s["parent"] == sf["id"]]
        gp_merges = [s for s in named(op_spans, "merge.merge") if s["parent"] == gp["id"]]
        m = merge_layers(sf_merges)
        m["multimerge.smallest_first_s"] = dur(sf)
        m["multimerge.greedy_parallel_s"] = dur(gp)
        m["multimerge.outside_steps_s"] = dur(sf) - sum(s["attrs"]["wall_ms"] for s in sf_merges) / 1e3
        m["multimerge.step_overlap"] = sum(s["attrs"]["wall_ms"] for s in gp_merges) / 1e3 / dur(gp)
        m["multimerge.work_edges"] = sf["attrs"]["work_edges"]
        # On fold, parsing, building and summarizing happen only in set-up.
        m.update(read_layers(setup_spans))
        return m


WORKLOADS = {w.name: w for w in (Ingest, MergeFiles, Fold)}


def load_api():
    """Import mvsum from this checkout's src/ and expose the public calls used."""
    sys.path.insert(0, str(SRC))
    import mvsum
    from mvsum import multimerge
    from mvsum.summary_io import format_summary

    if Path(mvsum.__file__).resolve().parent != SRC / "mvsum":
        raise RuntimeError(f"imported mvsum from {mvsum.__file__}, not from {SRC}")
    return SimpleNamespace(
        parse_ntriples=mvsum.parse_ntriples, build_graph=mvsum.build_graph, summarize=mvsum.summarize,
        Model=mvsum.Model, save_summary=mvsum.save_summary, format_summary=format_summary,
        load_summary=mvsum.load_summary, merge=mvsum.merge, merge_all=mvsum.merge_all,
        Strategy=mvsum.Strategy, multimerge=multimerge,
        kernel_backend=getattr(mvsum, "kernel_backend", None),
    )


def time_imports(repeats: int) -> list[dict]:
    """`import mvsum` in fresh interpreters, after one warm-up, each bracketed by the reference loop."""
    code = ("import time, refclock; b = refclock.sample()[0]; t = time.perf_counter(); import mvsum; "
            "d = time.perf_counter() - t; print(d, b, refclock.sample()[0])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(repeats + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        raw, before, after = map(float, proc.stdout.split())
        times.append({"raw_s": raw, "ref_s": (before + after) / 2, "s": refclock.scaled(raw, before, after)})
    return times[1:]


def time_prepares(wl, api, repeats: int) -> list[dict]:
    """Untraced set-ups, collected garbage first, each bracketed by the reference loop."""
    times = []
    ref = refclock.sample()[0]
    for _ in range(repeats):
        gc.collect()
        t = time.perf_counter()
        wl.prepare(api, NullTracer())
        raw = time.perf_counter() - t
        nxt = refclock.sample()[0]
        times.append({"raw_s": raw, "ref_s": (ref + nxt) / 2, "s": refclock.scaled(raw, ref, nxt)})
        ref = nxt
    return times


def run_op(wl, api, tr, gcm: GcMonitor, kind: str, ops: list[dict]) -> dict:
    """One op: collect garbage untimed, time the op, check its output untimed.

    With a StageClock the op's times are the sums over its calls into mvsum,
    raw and scaled to the reference speed; otherwise the op is timed whole.
    """
    wl.before_op()
    gc.collect()
    gcm.reset()
    rec = {"n": len(ops), "kind": kind, "ok": False}
    tr.op = rec["n"]
    try:
        c0 = time.process_time()
        w0 = time.perf_counter()
        with tr.span("op"):
            result = wl.op(api, tr)
        rec["wall_s"] = time.perf_counter() - w0
        rec["cpu_s"] = time.process_time() - c0
        if isinstance(tr, StageClock):
            rec.update(tr.times())
        rec.update(gc_pause_s=gcm.pause_s, gc_collections=gcm.collections, gc_gen2=gcm.gen2)
        rec["ok"] = wl.check(api, result)
        if not rec["ok"]:
            rec["error"] = "output differs from the oracle"
    except Exception:
        rec["error"] = traceback.format_exc()
    ops.append(rec)
    return rec


def peak_pass(wl, api, gcm, ops) -> float:
    """Peak traced heap of one op above the pre-op level, in MB (untimed)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rec = run_op(wl, api, NullTracer(), gcm, "peak_heap", ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MB if rec["ok"] else 0.0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(wl, api, seconds: int, traced: bool, per_layer: list[str], gcm: GcMonitor, record: dict) -> dict:
    ops: list[dict] = record["ops"]
    metrics: dict[str, float] = {}
    tracer = Tracer() if traced else None
    if traced:
        tracer.op = "setup"
        wl.prepare(api, tracer)
    else:
        imports = time_imports(IMPORT_REPEATS)
        prep = time_prepares(wl, api, SETUP_REPEATS) if wl.prepares else []
        record["setup"] = {"import": imports, "prepare": prep}
        metrics["setup_s"] = statistics.median(r["s"] for r in imports)
        if prep:
            metrics["setup_s"] += statistics.median(r["s"] for r in prep)
    wl.check_prepared(api)
    # The untimed first op warms the program's code paths and allocator.
    if traced:
        run_op(wl, api, NullTracer(), gcm, "warmup", ops)
    else:
        metrics["peak_heap_mb"] = peak_pass(wl, api, gcm, ops)

    # Untraced timed ops are timed call by call against the reference loop
    # (see refclock.py); a traced run alternates untraced and traced ops and
    # compares their raw times.
    start = time.perf_counter()
    timed: list[dict] = []
    while time.perf_counter() - start < seconds or len(timed) < (2 if traced else 1):
        use_trace = traced and len(timed) % 2 == 1
        kind = "traced" if use_trace else "timed"
        clock = tracer if use_trace else NullTracer() if traced else StageClock()
        timed.append(run_op(wl, api, clock, gcm, kind, ops))

    good = [r for r in timed if r["ok"]]
    plain = [r for r in good if r["kind"] == "timed"]
    record["raw_p50"] = {
        "op_wall_s": median_or_zero([r["wall_s"] for r in plain]),
        "op_cpu_s": median_or_zero([r["cpu_s"] for r in plain]),
    }
    if not traced:
        record["raw_p50"]["ref_wall_s"] = median_or_zero([r["ref_wall_s"] for r in plain])
        metrics["op_s_p50"] = median_or_zero([r["wall_ref_s"] for r in plain])
        metrics["op_cpu_s_p50"] = median_or_zero([r["cpu_ref_s"] for r in plain])
        metrics["stmt_per_s"] = median_or_zero([wl.stmts / r["wall_ref_s"] for r in plain])
        return metrics

    traced_ops = [r for r in good if r["kind"] == "traced"]
    setup_spans = [s for s in tracer.spans if s["op"] == "setup"]
    per_op = []
    for r in traced_ops:
        op_spans = [s for s in tracer.spans if s["op"] == r["n"]]
        values = wl.layers(op_spans, setup_spans)
        op_span = named(op_spans, "op")[0]
        covered = sum(dur(s) for s in op_spans if s["parent"] == op_span["id"])
        values["gc.pause_s"] = r["gc_pause_s"]
        values["gc.gen2_collections"] = r["gc_gen2"]
        r["remainder_s"] = r["wall_s"] - covered
        per_op.append(values)
    # A layer the workload never calls reads 0, so every run reports every name.
    record["layers_used"] = sorted({name for v in per_op for name in v})
    for name in per_layer:
        metrics[name] = median_or_zero([v[name] for v in per_op if name in v])
    untraced_p50 = median_or_zero([r["wall_s"] for r in plain])
    traced_p50 = median_or_zero([r["wall_s"] for r in traced_ops])
    metrics["trace.overhead_share"] = traced_p50 / untraced_p50 - 1 if untraced_p50 and traced_p50 else 0.0
    record["remainder_s"] = median_or_zero([r["remainder_s"] for r in traced_ops])
    record["traced_op_s_p50"] = traced_p50
    record["spans"] = tracer.spans
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    env_unset = {k: os.environ.pop(k, None) for k in ("MVSUM_PURE", "MVSUM_DIGEST")}
    oracle.check_golden(GOLDEN_GRAPH, GOLDEN_SUMMARY)
    api = load_api()

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "kernel_backend": api.kernel_backend() if api.kernel_backend else None,
            "unset_env": {k: v for k, v in env_unset.items() if v is not None},
        },
        "oracle_golden_check": "passed",
        "notes": [
            f"end-to-end times are scaled to seconds at the reference speed, a {refclock.NOMINAL_S} s pass of "
            "refclock.py's loop; an op's time is the sum over its calls into mvsum; raw times are kept beside them",
            "merge's three steps are not timed apart: that needs spans inside mvsum",
            "merge.* on fold covers the smallest-first merges; greedy_parallel's contend for the GIL",
        ],
        "ops": [],
    }
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        record["inputs_sha256"] = wl.inputs
        record["expected_sha256"] = wl.expected_sha
        record["statements_per_op"] = wl.stmts
        with GcMonitor() as gcm:
            metrics = measure(wl, api, args.seconds, bool(args.trace), per_layer, gcm, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = per_layer if args.trace else [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {SPEC.name}: {sorted(wanted)}")
    ops = record["ops"]
    failed = sum(not r["ok"] for r in ops)
    record["metrics"] = metrics
    record["attempted"], record["failed"] = len(ops), failed
    if isinstance(wl, Fold):
        record["merge_steps"] = wl.steps
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    timed = [r for r in ops if r["kind"] in ("timed", "traced")]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops, {failed} failed, "
          f"fail_ratio {failed / len(ops)}; timed ops: {len(timed)}")
    for r in ops:
        if not r["ok"]:
            print(f"  op {r['n']} ({r['kind']}) failed: {r.get('error', '').strip().splitlines()[-1]}")
    for name, value in metrics.items():
        if args.trace and name not in record["layers_used"] and name != "trace.overhead_share":
            continue
        note = f"  (n={sum(r['kind'] == 'timed' for r in timed)})" if name == "op_s_p50" else ""
        print(f"  {name:30s} {value:.6g} {units[name]}{note}")
    raw = record["raw_p50"]
    if not args.trace:
        print(f"  raw p50 per op: {raw['op_wall_s']:.6g} s wall, {raw['op_cpu_s']:.6g} s CPU; reference loop "
              f"p50 {raw['ref_wall_s']:.6g} s (times above are scaled to a {refclock.NOMINAL_S} s loop)")
    if args.trace and record["traced_op_s_p50"]:
        p50 = record["traced_op_s_p50"]
        rem = record["remainder_s"]
        print(f"  traced op p50 {p50:.6g} s; outside layer spans: {rem:.6g} s ({rem / p50:.1%}); "
              "layers not listed are not called by this workload and read 0")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
