"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import dataclasses
import gc
import math
import random
import statistics
import time
from pathlib import Path

import pytest

from helpers import canonical_bytes, classify_cases, generate_view, generate_views, naive_partition, oracle_merged, partition_of, random_triples
from mvsum.analytics import GenParams, correlate_times, linfit, pearson
from mvsum.cli import main as cli_main
from mvsum.graph import build_graph
from mvsum.merge import merge
from mvsum.multimerge import Strategy, merge_all
from mvsum.ntriples import Triple, parse_ntriples, triple_line
from mvsum.summary import Model, summarize
from mvsum.summary_io import format_summary, read_summary

DATA = Path(__file__).parent / "data"
MODELS = [Model.AC, Model.CC, Model.ACC]
OVERLAPS = [0.0, 0.3, 0.6, 0.9]


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _pair_graphs(k: int):
    """Seeded view pair #k: <= 500 vertices and <= 2000 edges per view."""
    rng = random.Random(1000 + k)
    params = GenParams(
        views=2,
        vertices_per_view=rng.randint(20, 500),
        edges_per_view=rng.randint(40, 2000),
        predicate_alphabet=rng.randint(3, 20),
        class_alphabet=rng.randint(2, 6),
        overlap=OVERLAPS[k % 4],
        type_prob=0.4,
        seed=k,
    )
    (_, g1), (_, g2) = generate_views(params)
    return g1, g2


def test_criterion_1_merge_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for k in range(200):
        g1, g2 = _pair_graphs(k)
        for model in MODELS:
            merged, _ = merge(summarize(g1, model), summarize(g2, model))
            if canonical_bytes(merged) != canonical_bytes(oracle_merged(g1, g2, model)):
                report(1, False, f"pair {k} model {model.value} diverges from the union oracle")
            checked += 1
    elapsed = time.perf_counter() - started
    report(1, elapsed < 60.0, f"({checked} merges byte-identical to the union oracle in {elapsed:.1f}s)")


def test_criterion_2_summarizer_oracle_equivalence():
    rng = random.Random(424242)
    for i in range(100):
        triples = random_triples(rng, max_vertices=50, max_edges=120)
        g = build_graph(triples)
        for model in MODELS:
            if partition_of(summarize(g, model)) != naive_partition(triples, model):
                report(2, False, f"graph {i} model {model.value} disagrees with the naive partitioner")
    report(2, True, "(100 graphs x 3 models match the naive pairwise partitioner)")


def test_criterion_3_case_accounting():
    for k in range(200):
        g1, g2 = _pair_graphs(k)
        for model in MODELS:
            s1, s2 = summarize(g1, model), summarize(g2, model)
            fwd, bwd = classify_cases(s1, s2), classify_cases(s2, s1)
            if fwd.case1 + fwd.case2 + fwd.case3 != len(s1.member_index):
                report(3, False, f"pair {k} model {model.value}: cases do not partition members(S1)")
            if bwd.case1 + bwd.case2 + bwd.case3 != len(s2.member_index):
                report(3, False, f"pair {k} model {model.value}: cases do not partition members(S2)")
            if fwd.case3 != bwd.case3:
                report(3, False, f"pair {k} model {model.value}: case3 not symmetric")
    report(3, True, "(case partition and case-3 symmetry hold on all 200 pairs x 3 models)")


def test_criterion_4_strategy_invariance():
    started = time.perf_counter()
    params = GenParams(views=8, vertices_per_view=150, edges_per_view=350,
                       predicate_alphabet=8, class_alphabet=4, overlap=0.5,
                       type_prob=0.4, seed=2024)
    views = generate_views(params)
    strategies = [
        Strategy.smallest_first(),
        Strategy.largest_first(),
        Strategy.random(7),
        Strategy.greedy_parallel(2),
        Strategy.greedy_parallel(4),
    ]
    for model in MODELS:
        summaries = [summarize(g, model) for _, g in views]
        outputs = set()
        for strategy in strategies:
            final, _ = merge_all(summaries, strategy)
            outputs.add(canonical_bytes(final))
        if len(outputs) != 1:
            report(4, False, f"model {model.value}: strategies disagree")
    elapsed = time.perf_counter() - started
    report(4, elapsed < 30.0, f"(8 views, 5 strategy configs, 3 models byte-identical in {elapsed:.1f}s)")


def _power_law_summaries():
    sizes = [16, 16, 16, 32, 32, 64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024, 1024]
    summaries = []
    for i, edges in enumerate(sizes):
        params = GenParams(views=16, vertices_per_view=max(8, edges // 2),
                           edges_per_view=edges, predicate_alphabet=6,
                           class_alphabet=3, overlap=0.25, type_prob=0.3, seed=909)
        summaries.append(summarize(generate_view(params, i), Model.ACC))
    return summaries


def test_criterion_5_strategy_work_ordering():
    summaries = _power_law_summaries()
    work_sf = merge_all(summaries, Strategy.smallest_first())[1].total_work
    work_lf = merge_all(summaries, Strategy.largest_first())[1].total_work
    if not work_sf < work_lf:
        report(5, False, f"total_work smallest={work_sf} not < largest={work_lf}")

    # One warm-up each, then the two strategies alternate, so a burst of load
    # on the host slows both about equally instead of one block of runs.
    strategies = (Strategy.smallest_first(), Strategy.largest_first())
    for strategy in strategies:
        merge_all(summaries, strategy)
    runs = ([], [])
    for _ in range(5):
        for strategy, walls in zip(strategies, runs):
            walls.append(merge_all(summaries, strategy)[1].total_wall_ms)
    wall_sf, wall_lf = (statistics.median(walls) for walls in runs)
    ok = wall_sf < wall_lf
    report(5, ok, f"(work {work_sf} < {work_lf}; median wall {wall_sf:.1f}ms < {wall_lf:.1f}ms over 5 runs)")


def _scaling_pair(target_edges: int):
    """Two summaries of ~target_edges serialized triples.

    Most members are private to one view (cases 1 and 2); one in 64 is
    shared and changes schema on merge (case 3), echoing the sparse sharing
    of real multi-view data.
    """
    k = max(4, (target_edges - 8) // 4)
    shared = max(1, k // 64)
    sink = "<urn:scale:sink>"
    p, q = "urn:scale:p", "urn:scale:q"
    t1 = [Triple(f"<urn:scale:s{i}>", p, sink) for i in range(shared)]
    t1 += [Triple(f"<urn:scale:a{i}>", p, sink) for i in range(k - shared)]
    t2 = [Triple(f"<urn:scale:s{i}>", q, sink) for i in range(shared)]
    t2 += [Triple(f"<urn:scale:b{i}>", q, sink) for i in range(k - shared)]
    return summarize(build_graph(t1), Model.ACC), summarize(build_graph(t2), Model.ACC)


def _scaling_records():
    records = []
    for exp in range(10, 18):
        s1, s2 = _scaling_pair(2 ** exp)
        gc.collect()
        merge(s1, s2)  # warm-up, untimed
        runs = [merge(s1, s2)[1] for _ in range(3)]
        wall = statistics.median(r.wall_ms for r in runs)
        records.append(dataclasses.replace(runs[-1], wall_ms=wall))
    return records


def test_criterion_6_scaling_correlation():
    # On sizes that double, Pearson r is decided by the largest point: an
    # exactly linear series still gives r(E2) of about 0.97, so comparing
    # r(E) with r(E2) flips whenever that one point runs slow (cache misses
    # at 64k edges do it). The least-squares slope of log(wall) on log(E)
    # weighs every point: about 1 for linear time, 2 for quadratic. Its bound
    # is halfway between.
    started = time.perf_counter()
    records = _scaling_records()
    r_e = correlate_times(records, "E", "sum").r
    slope = linfit([math.log(r.edges_sum) for r in records], [math.log(r.wall_ms) for r in records]).slope
    elapsed = time.perf_counter() - started
    ok = r_e >= 0.9 and slope <= 1.5 and elapsed < 300.0
    report(6, ok, f"(r(E)={r_e:.4f}, need >= 0.9; log-log slope={slope:.3f}, need <= 1.5; {elapsed:.1f}s)")


def test_criterion_7_statistics_unit_checks():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [3 * x + 7 for x in xs]
    ok = abs(pearson(xs, ys) - 1.0) <= 1e-12
    fit = linfit(xs, ys)
    ok &= abs(fit.slope - 3.0) <= 1e-9 and abs(fit.intercept - 7.0) <= 1e-9
    # Hand least-squares for xs=[1,2,3], ys=[2,2,5]: slope Sxy/Sxx = 3/2,
    # line through the mean point (2, 3) gives intercept 0, r2 = 1 - 1.5/6.
    fit = linfit([1, 2, 3], [2, 2, 5])
    ok &= abs(fit.slope - 1.5) <= 1e-9
    ok &= abs(fit.intercept - 0.0) <= 1e-9
    ok &= abs(fit.r2 - 0.75) <= 1e-9
    # Same data shifted down by one: identical slope and r2, intercept -1.
    fit = linfit([1, 2, 3], [1, 1, 4])
    ok &= abs(fit.slope - 1.5) <= 1e-9
    ok &= abs(fit.intercept + 1.0) <= 1e-9
    ok &= abs(fit.r2 - 0.75) <= 1e-9
    report(7, ok, "(pearson and linfit match the hand-derived values)")


def test_criterion_8_serialization(tmp_path):
    # parse/serialize round trip over the escape-heavy fixture corpus
    with open(DATA / "escapes.nt", encoding="utf-8") as fh:
        triples = list(parse_ntriples(fh))
    if list(parse_ntriples(triple_line(t) for t in triples)) != triples:
        report(8, False, "fixture corpus does not round-trip")

    # summaries reload with identical EqcIds
    g = build_graph(triples)
    for model in MODELS:
        s = summarize(g, model)
        loaded = read_summary(format_summary(s).splitlines())
        if set(loaded.eqcs) != set(s.eqcs) or format_summary(loaded) != format_summary(s):
            report(8, False, f"summary reload changed ids under {model.value}")

    # golden files byte-stable across runs
    out1, out2 = tmp_path / "a.nt", tmp_path / "b.nt"
    for out in (out1, out2):
        code = cli_main(["summarize", str(DATA / "tiny_graph.nt"), "--model", "ACC", "-o", str(out)])
        if code != 0:
            report(8, False, "summarize CLI failed")
    golden = (DATA / "tiny_graph_acc.golden.nt").read_bytes()
    ok = out1.read_bytes() == out2.read_bytes() == golden
    report(8, ok, "(round trip, id-stable reload, and byte-stable goldens)")


# Criterion 10's families, shaped like the paper's three domains: (view edge
# counts, vertex overlap). Views are ACC summaries over 8 predicates and 4
# classes, each with half as many vertices as edges.
_STRATEGY_FAMILIES = {
    # Many power-law-sized views with low overlap, like pay-level domains.
    "pay-level domains": ([24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024], 0.2),
    # Views of one code base that share almost every vertex, like control and data flow.
    "control and data flow": ([600, 700, 800, 900, 1000, 1100], 0.95),
    # A handful of views with moderate overlap, like broadcasters.
    "broadcasters": ([500, 700, 900, 1200, 1500], 0.6),
}


def _family_summaries(sizes, overlap, seed):
    summaries = []
    for i, edges in enumerate(sizes):
        params = GenParams(views=len(sizes), vertices_per_view=edges // 2, edges_per_view=edges,
                           predicate_alphabet=8, class_alphabet=4, overlap=overlap, type_prob=0.3, seed=seed)
        summaries.append(summarize(generate_view(params, i), Model.ACC))
    return summaries


def test_criterion_10_smallest_first_on_real_merges():
    # Real total work, the sum of `edges_sum` over a tree's merges: no
    # timing decides it. On real merges an output is |E1 ∪ E2| <= a + b, so
    # Huffman's optimality does not carry over, and smallest-first is only
    # asked to come within 1% of the best of 20 random trees.
    details = []
    for name, (sizes, overlap) in _STRATEGY_FAMILIES.items():
        worst = 0.0
        for seed in range(3):
            summaries = _family_summaries(sizes, overlap, seed)
            edges = [s.edge_count() for s in summaries]
            if len(set(edges)) != len(edges):
                report(10, False, f"{name} seed {seed}: view sizes {edges} are not distinct")
            work_sf = merge_all(summaries, Strategy.smallest_first())[1].total_work
            work_lf = merge_all(summaries, Strategy.largest_first())[1].total_work
            work_random = min(merge_all(summaries, Strategy.random(k))[1].total_work for k in range(20))
            if not work_sf < work_lf:
                report(10, False, f"{name} seed {seed}: smallest-first {work_sf} not < largest-first {work_lf}")
            if not work_sf <= 1.01 * work_random:
                report(10, False, f"{name} seed {seed}: smallest-first {work_sf} > 1.01 x best random {work_random}")
            worst = max(worst, work_sf / work_random)
        details.append(f"{name} {len(sizes)} views: at most {worst:.4f}x the best random tree")
    report(10, True, f"({'; '.join(details)})")
