"""Benchmark harness, synthetic multi-view generator, and fit statistics.

The generator produces seeded random views that share a configurable
fraction of their vertex pool, which is what creates case-2/3 material when
their summaries are merged. The harness merges every ordered pair of
distinct summaries, times each merge on a monotonic clock (median of k
repeats, since desk-scale merges are OS-noise-sensitive), and the fit
helpers regress wall time against |E|, |E| log|E|, and |E|^2.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from mvsum.graph import Graph, MultiViewSet, build_graph
from mvsum.merge import MergeRecord, merge
from mvsum.ntriples import RDF_TYPE, Term, Triple
from mvsum.summary import Model, Summary

FIT_FUNCTIONS = ("E", "ElogE", "E2")
EDGE_MEASURES = ("sum", "union")


@dataclass(frozen=True)
class GenParams:
    views: int
    vertices_per_view: int
    edges_per_view: int
    predicate_alphabet: int
    class_alphabet: int
    overlap: float
    type_prob: float
    seed: int

    def __post_init__(self):
        for name in ("views", "vertices_per_view", "edges_per_view", "predicate_alphabet", "class_alphabet"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("overlap", "type_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def view_seed(params: GenParams, index: int) -> str:
    """The per-view generator seed; equal (seed, index) means equal views."""
    return f"{params.seed}:{index}"


def generate_view(params: GenParams, index: int) -> Graph:
    rng = random.Random(view_seed(params, index))
    n_shared = round(params.overlap * params.vertices_per_view)
    vertices = [Term.iri(f"urn:mvs:gen:shared:{k}") for k in range(n_shared)]
    vertices += [Term.iri(f"urn:mvs:gen:v{index}:{k}") for k in range(params.vertices_per_view - n_shared)]
    predicates = [Term.iri(f"urn:mvs:gen:p{k}") for k in range(params.predicate_alphabet)]
    classes = [Term.iri(f"urn:mvs:gen:c{k}") for k in range(params.class_alphabet)]
    rdf_type = Term.iri(RDF_TYPE)
    triples = []
    for _ in range(params.edges_per_view):
        triples.append(Triple(rng.choice(vertices), rng.choice(predicates), rng.choice(vertices)))
    for v in vertices:
        if rng.random() < params.type_prob:
            triples.append(Triple(v, rdf_type, rng.choice(classes)))
    return build_graph(triples)


def generate_views(params: GenParams) -> MultiViewSet:
    """Seeded random views over a partially shared vertex pool.

    Deterministic in (params, seed): view i is a pure function of the
    per-view seed, so regenerating with the same parameters reproduces every
    view byte for byte. Edges are drawn with replacement and dedup into the
    graph's edge set, so the requested edge count is an upper bound.
    """
    return MultiViewSet([(f"view{i}", generate_view(params, i)) for i in range(params.views)])


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r: float
    r2: float
    n: int


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    if len(xs) != len(ys):
        raise ValueError("samples must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise ValueError("correlation is undefined for zero-variance samples")
    return statistics.correlation(xs, ys)


def linfit(xs: Sequence[float], ys: Sequence[float]) -> RegressionFit:
    """Least-squares line with r and the coefficient of determination."""
    r = pearson(xs, ys)
    slope, intercept = statistics.linear_regression(xs, ys)
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    mean_y = math.fsum(ys) / len(ys)
    ss_tot = math.fsum((y - mean_y) ** 2 for y in ys)
    return RegressionFit(slope=slope, intercept=intercept, r=r, r2=1.0 - ss_res / ss_tot, n=len(xs))


@dataclass(frozen=True)
class PairResult:
    left: str
    right: str
    record: MergeRecord


def _timed_merge(left: Summary, right: Summary, repeats: int) -> MergeRecord:
    records = [merge(left, right)[1] for _ in range(repeats)]
    wall = statistics.median(r.wall_ms for r in records)
    return replace(records[-1], wall_ms=wall)


def bench_pairwise(
    summaries: Sequence[tuple[str, Summary]],
    repeats: int = 3,
) -> list[PairResult]:
    """One MergeRecord per ordered pair of distinct summaries (n(n-1) rows).

    Wall time per pair is the median over `repeats` merges. Merges run one
    at a time, so no timing includes another merge's work.
    """
    if len(summaries) < 2:
        raise ValueError("bench_pairwise needs at least two summaries")
    return [
        PairResult(ln, rn, _timed_merge(ls, rs, repeats))
        for i, (ln, ls) in enumerate(summaries)
        for j, (rn, rs) in enumerate(summaries)
        if i != j
    ]


def _fit_input(record: MergeRecord, against: str, edge_measure: str) -> float:
    if edge_measure == "sum":
        e = record.edges_sum
    elif edge_measure == "union":
        e = record.edges_union
    else:
        raise ValueError(f"unknown edge measure {edge_measure!r}")
    if against == "E":
        return float(e)
    if against == "ElogE":
        return e * math.log(e) if e > 0 else 0.0
    if against == "E2":
        return float(e) * e
    raise ValueError(f"unknown function {against!r} (expected one of {FIT_FUNCTIONS})")


def correlate_times(
    records: Sequence[MergeRecord],
    against: str = "E",
    edge_measure: str = "sum",
) -> RegressionFit:
    """Fit merge wall time against a function of the summaries' edge count."""
    if len(records) < 2:
        raise ValueError("need at least two records")
    xs = [_fit_input(r, against, edge_measure) for r in records]
    ys = [r.wall_ms for r in records]
    return linfit(xs, ys)


def write_pair_records_csv(rows: Sequence[PairResult], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "pair_id", "left", "right", "edges_left", "edges_right",
            "edges_sum", "edges_union", "wall_ms", "case1", "case2", "case3",
        ])
        for i, row in enumerate(rows):
            r = row.record
            stats = r.stats
            w.writerow([
                i, row.left, row.right, r.edges_s1, r.edges_s2,
                r.edges_sum, r.edges_union, f"{r.wall_ms:.3f}",
                stats.case1, stats.case2, stats.case3,
            ])


def write_fits_csv(rows: Sequence[tuple[Model, str, str, RegressionFit]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["model", "function", "edge_measure", "slope", "intercept", "r", "r2", "n"])
        for model, function, measure, fit in rows:
            w.writerow([
                model.value, function, measure,
                repr(fit.slope), repr(fit.intercept), repr(fit.r), repr(fit.r2), fit.n,
            ])
