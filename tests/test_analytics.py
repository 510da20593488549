import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import canonical_bytes, oracle_merged
from mvsum.analytics import (
    GenParams,
    RegressionFit,
    bench_pairwise,
    correlate_times,
    generate_views,
    linfit,
    pearson,
    write_fits_csv,
    write_pair_records_csv,
)
from mvsum.merge import CaseStats, MergeRecord, merge
from mvsum.summary import Model, summarize


def _params(**kw):
    base = dict(views=3, vertices_per_view=40, edges_per_view=80,
                predicate_alphabet=5, class_alphabet=3, overlap=0.4,
                type_prob=0.5, seed=17)
    base.update(kw)
    return GenParams(**base)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(views=0)
    with pytest.raises(ValueError):
        _params(overlap=1.5)
    with pytest.raises(ValueError):
        _params(type_prob=-0.1)


def test_generator_deterministic():
    a = generate_views(_params())
    b = generate_views(_params())
    assert [vid for vid, _ in a] == ["view0", "view1", "view2"]
    for (_, ga), (_, gb) in zip(a, b):
        assert ga == gb
    c = generate_views(_params(seed=18))
    assert any(ga != gc for (_, ga), (_, gc) in zip(a, c))


def test_zero_overlap_means_no_case3():
    views = generate_views(_params(overlap=0.0))
    summaries = [summarize(g, Model.ACC) for _, g in views]
    for i, s1 in enumerate(summaries):
        for j, s2 in enumerate(summaries):
            if i != j:
                _, record = merge(s1, s2)
                assert record.stats.case3 == 0


def test_full_overlap_same_view_seed_merge_is_identity():
    # Two runs with the same seed produce the same view; with overlap=1 the
    # vertex pools coincide, so merging the summaries changes nothing.
    a = list(generate_views(_params(views=1, overlap=1.0)))
    b = list(generate_views(_params(views=1, overlap=1.0)))
    g1, g2 = a[0][1], b[0][1]
    assert g1 == g2
    s1, s2 = summarize(g1, Model.ACC), summarize(g2, Model.ACC)
    merged, _ = merge(s1, s2)
    assert canonical_bytes(merged) == canonical_bytes(s1)
    assert canonical_bytes(merged) == canonical_bytes(oracle_merged(g1, g2, Model.ACC))


def test_pearson_perfect_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [3 * x + 7 for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1, 2], [3])
    with pytest.raises(ValueError):
        pearson([2, 2, 2], [1, 2, 3])


@given(st.integers(1, 1000), st.integers(-500, 500))
@settings(max_examples=100)
def test_pearson_scale_shift_invariant(a, b):
    xs = [1.0, 2.0, 4.0, 8.0, 9.0]
    ys = [2.0, 1.0, 5.0, 4.0, 9.0]
    base = pearson(xs, ys)
    assert pearson([a * x + b for x in xs], ys) == pytest.approx(base, abs=1e-12)
    assert pearson([-a * x + b for x in xs], ys) == pytest.approx(-base, abs=1e-12)


def test_linfit_recovers_exact_line():
    xs = [0.0, 1.0, 2.0, 5.0, 9.0]
    fit = linfit(xs, [3 * x + 7 for x in xs])
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(7.0, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)
    assert fit.n == 5


def test_linfit_hand_least_squares():
    # By hand for xs=[1,2,3], ys=[2,2,5]: x̄=2, ȳ=3, Sxy=3, Sxx=2 so the
    # slope is 1.5 and the line passes through the mean point: intercept
    # 3 - 1.5*2 = 0. Residuals (0.5, -1, 0.5) give SSres=1.5 over SStot=6,
    # so r2 = 0.75.
    fit = linfit([1, 2, 3], [2, 2, 5])
    assert fit.slope == pytest.approx(1.5, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r2 == pytest.approx(0.75, abs=1e-9)
    # The same data shifted down by 1 moves only the intercept.
    fit = linfit([1, 2, 3], [1, 1, 4])
    assert fit.slope == pytest.approx(1.5, abs=1e-9)
    assert fit.intercept == pytest.approx(-1.0, abs=1e-9)
    assert fit.r2 == pytest.approx(0.75, abs=1e-9)


def test_r2_equals_r_squared():
    xs = [1.0, 2.0, 4.0, 8.0, 9.0, 11.0]
    ys = [2.0, 1.0, 5.0, 4.0, 9.0, 8.5]
    fit = linfit(xs, ys)
    assert fit.r2 == pytest.approx(fit.r ** 2, abs=1e-12)
    assert -1.0 <= fit.r <= 1.0


def test_linfit_errors_on_constant_x():
    with pytest.raises(ValueError):
        linfit([2, 2, 2], [1, 2, 3])


def _named_summaries(n=3, **kw):
    views = generate_views(_params(views=n, **kw))
    return [(vid, summarize(g, Model.ACC)) for vid, g in views]


def test_bench_pairwise_row_count():
    rows = bench_pairwise(_named_summaries(2), repeats=1)
    assert len(rows) == 2
    rows = bench_pairwise(_named_summaries(4), repeats=1)
    assert len(rows) == 12  # n(n-1)
    with pytest.raises(ValueError):
        bench_pairwise(_named_summaries(4)[:1])


def test_bench_pairwise_case3_symmetric_per_unordered_pair():
    rows = bench_pairwise(_named_summaries(3), repeats=1)
    case3 = {(r.left, r.right): r.record.stats.case3 for r in rows}
    for (l, r), v in case3.items():
        assert case3[(r, l)] == v


def _fake_record(e_sum, e_union, wall):
    return MergeRecord(edges_s1=e_sum // 2, edges_s2=e_sum - e_sum // 2,
                       edges_sum=e_sum, edges_union=e_union, wall_ms=wall,
                       stats=CaseStats(1, 0, 0, 1))


def test_correlate_times_linear_family():
    records = [_fake_record(e, e, 0.25 * e) for e in (100, 200, 400, 800, 1600)]
    fit = correlate_times(records, "E", "sum")
    assert fit.r >= 0.999
    assert fit.slope == pytest.approx(0.25, rel=1e-9)
    assert correlate_times(records, "E", "sum").r >= correlate_times(records, "E2", "sum").r
    union_fit = correlate_times(records, "E", "union")
    assert union_fit.r >= 0.999


def test_correlate_times_elog_and_errors():
    records = [_fake_record(e, e, e * math.log(e)) for e in (64, 128, 256, 512)]
    assert correlate_times(records, "ElogE", "sum").r >= 0.999
    with pytest.raises(ValueError):
        correlate_times(records[:1], "E", "sum")
    with pytest.raises(ValueError):
        correlate_times(records, "E3", "sum")
    with pytest.raises(ValueError):
        correlate_times(records, "E", "max")


def test_csv_outputs(tmp_path):
    rows = bench_pairwise(_named_summaries(3), repeats=1)
    records_path = tmp_path / "records.csv"
    write_pair_records_csv(rows, records_path)
    with open(records_path, newline="") as fh:
        out = list(csv.DictReader(fh))
    assert len(out) == 6
    assert set(out[0]) == {"pair_id", "left", "right", "edges_left", "edges_right",
                           "edges_sum", "edges_union", "wall_ms", "case1", "case2", "case3"}
    fits_path = tmp_path / "fits.csv"
    fit = RegressionFit(1.0, 0.0, 0.9, 0.81, 6)
    write_fits_csv([(Model.ACC, "E", "sum", fit)], fits_path)
    with open(fits_path, newline="") as fh:
        out = list(csv.DictReader(fh))
    assert out[0]["model"] == "ACC" and out[0]["function"] == "E"
    assert float(out[0]["r"]) == 0.9
