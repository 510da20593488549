import csv
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import canonical_bytes, generate_views, graph_of, iri, p, validate
from mvsum.analytics import GenParams
from mvsum.merge import MergeConfigError
from mvsum.multimerge import Strategy, merge_all, schedule_work, write_schedule_csv
from mvsum.summary import Model, summarize


def _sized_summary(tag: str, n_attrs: int):
    """A summary whose serialized edge count grows with n_attrs."""
    triples = [(iri(f"{tag}"), p(f"{tag}:{k}"), iri(f"{tag}:o")) for k in range(n_attrs)]
    return summarize(graph_of(*triples), Model.AC)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("random")
    with pytest.raises(ValueError):
        Strategy("greedy_parallel", workers=0)
    with pytest.raises(ValueError):
        Strategy("nope")
    assert Strategy.random(7).seed == 7
    assert Strategy.greedy_parallel(4).workers == 4
    assert "seed=7" in Strategy.random(7).describe()


def test_single_input_returned_unchanged():
    s = _sized_summary("a", 3)
    final, schedule = merge_all([s], Strategy.smallest_first())
    assert final is s
    assert schedule.steps == [] and schedule.total_work == 0


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        merge_all([], Strategy.smallest_first())


def test_model_mix_rejected():
    a = summarize(graph_of((iri("x"), p("p"), iri("y"))), Model.AC)
    b = summarize(graph_of((iri("x"), p("p"), iri("y"))), Model.CC)
    with pytest.raises(MergeConfigError):
        merge_all([a, b], Strategy.smallest_first())


def test_smallest_first_merges_two_smallest():
    small = _sized_summary("s", 1)
    mid = _sized_summary("m", 3)
    big = _sized_summary("b", 30)
    _, schedule = merge_all([mid, big, small], Strategy.smallest_first(),
                            names=["mid", "big", "small"])
    assert len(schedule.steps) == 2
    assert {schedule.steps[0].left, schedule.steps[0].right} == {"small", "mid"}
    assert {schedule.steps[1].left, schedule.steps[1].right} == {"m1", "big"}
    assert schedule.steps[1].output == "m2"


def test_largest_first_merges_two_largest():
    small = _sized_summary("s", 1)
    mid = _sized_summary("m", 3)
    big = _sized_summary("b", 30)
    _, schedule = merge_all([mid, big, small], Strategy.largest_first(),
                            names=["mid", "big", "small"])
    assert {schedule.steps[0].left, schedule.steps[0].right} == {"big", "mid"}
    assert {schedule.steps[1].left, schedule.steps[1].right} == {"m1", "small"}


def test_schedule_is_a_merge_tree():
    views = generate_views(GenParams(6, 40, 80, 5, 3, 0.4, 0.5, 11))
    summaries = [summarize(g, Model.ACC) for _, g in views]
    for strategy in (Strategy.smallest_first(), Strategy.random(3), Strategy.greedy_parallel(3)):
        final, schedule = merge_all(summaries, strategy)
        assert len(schedule.steps) == len(summaries) - 1
        consumed = [s.left for s in schedule.steps] + [s.right for s in schedule.steps]
        assert len(consumed) == len(set(consumed))
        produced = {s.output for s in schedule.steps}
        inputs = {f"in{i}" for i in range(len(summaries))}
        root = schedule.steps[-1].output
        assert set(consumed) == inputs | (produced - {root})
        assert schedule.total_work == sum(s.record.edges_sum for s in schedule.steps)


def test_all_strategies_same_result():
    views = generate_views(GenParams(5, 50, 120, 6, 3, 0.5, 0.4, 23))
    summaries = [summarize(g, Model.ACC) for _, g in views]
    finals = {}
    for strategy in (Strategy.smallest_first(), Strategy.largest_first(),
                     Strategy.random(99), Strategy.greedy_parallel(2)):
        final, _ = merge_all(summaries, strategy)
        validate(final)
        finals[strategy.describe()] = canonical_bytes(final)
    assert len(set(finals.values())) == 1


def test_deterministic_schedules():
    views = generate_views(GenParams(5, 30, 60, 4, 2, 0.3, 0.4, 5))
    summaries = [summarize(g, Model.AC) for _, g in views]
    for strategy in (Strategy.smallest_first(), Strategy.largest_first(), Strategy.random(42),
                     Strategy.greedy_parallel(2)):
        a = merge_all(summaries, strategy)[1]
        b = merge_all(summaries, strategy)[1]
        assert [(s.left, s.right, s.output) for s in a.steps] == [(s.left, s.right, s.output) for s in b.steps]


def test_greedy_single_worker_builds_the_smallest_first_tree():
    views = generate_views(GenParams(7, 30, 90, 5, 3, 0.5, 0.4, 13))
    summaries = [summarize(g, Model.ACC) for _, g in views]
    greedy = merge_all(summaries, Strategy.greedy_parallel(1))[1]
    smallest = merge_all(summaries, Strategy.smallest_first())[1]
    assert [(s.left, s.right, s.output) for s in greedy.steps] == [
        (s.left, s.right, s.output) for s in smallest.steps
    ]


# --- simulated schedules --------------------------------------------------------

def test_schedule_work_smallest_first_hand_sum():
    schedule = schedule_work([1, 2, 4, 8], Strategy.smallest_first())
    assert schedule.total_work == (1 + 2) + (3 + 4) + (7 + 8) == 25
    assert schedule.total_wall_ms == 25.0


def test_schedule_work_largest_first_hand_sum():
    schedule = schedule_work([1, 2, 4, 8], Strategy.largest_first())
    assert schedule.total_work == (8 + 4) + (12 + 2) + (14 + 1) == 41


def test_schedule_work_greedy_parallel_makespan():
    schedule = schedule_work([1, 1, 1, 1], Strategy.greedy_parallel(2))
    assert schedule.total_wall_ms == 6.0  # two leaf merges in parallel, then 2+2
    assert schedule.total_work == 2 + 2 + 4


def test_schedule_work_greedy_worker_blocks_until_pair_available():
    # Two workers, sizes [1,1,100]: one worker merges (1,1) while the other
    # blocks; the (2,100) merge starts at t=2 and finishes at 104.
    schedule = schedule_work([1, 1, 100], Strategy.greedy_parallel(2))
    assert schedule.total_wall_ms == 104.0
    assert [(s.left, s.right) for s in schedule.steps] == [("in0", "in1"), ("m1", "in2")]


def test_schedule_work_greedy_single_worker_equals_smallest_first():
    sizes = [3, 1, 4, 1, 5, 9, 2, 6]
    greedy = schedule_work(sizes, Strategy.greedy_parallel(1))
    smallest = schedule_work(sizes, Strategy.smallest_first())
    assert greedy.total_work == smallest.total_work
    assert greedy.total_wall_ms == float(smallest.total_work)


def test_schedule_work_output_is_input_sum():
    # A simulated merge of sizes a and b yields a + b edges, also when the views are equal.
    schedule = schedule_work([4, 4, 4], Strategy.smallest_first())
    assert [(s.record.edges_sum, s.record.edges_union) for s in schedule.steps] == [(8, 8), (12, 12)]
    assert schedule.total_work == (4 + 4) + (8 + 4) == 20


def test_schedule_work_single_size():
    schedule = schedule_work([10], Strategy.smallest_first())
    assert schedule.steps == []


@given(st.lists(st.integers(1, 50), min_size=2, max_size=9, unique=True).map(sorted),
       st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_work_ordering_on_skewed_inputs(base, extra):
    # strictly increasing sizes whose largest is at least the sum of the rest
    sizes = base + [sum(base) + extra]
    smallest = schedule_work(sizes, Strategy.smallest_first()).total_work
    largest = schedule_work(sizes, Strategy.largest_first()).total_work
    assert smallest < largest


def _naive_extremes_steps(sizes, largest):
    """(left, right) steps of repeatedly merging the two extremes of a sorted list."""
    pool = [(size, order, f"in{order}") for order, size in enumerate(sizes)]
    steps = []
    for k in range(1, len(sizes)):
        pool.sort(key=lambda e: (-e[0] if largest else e[0], e[1]))
        (a, _, left), (b, _, right) = pool[0], pool[1]
        del pool[:2]
        steps.append((left, right))
        pool.append((a + b, len(sizes) + k, f"m{k}"))
    return steps


@given(st.lists(st.integers(1, 6), min_size=1, max_size=12))
@example([1, 1, 2, 2])  # m1 = 2 ties with in2 and in3
@settings(max_examples=150, deadline=None)
def test_size_ordered_schedules_match_naive_reference(sizes):
    # small sizes drawn from a narrow range, so ties are common
    for strategy, largest in ((Strategy.smallest_first(), False), (Strategy.largest_first(), True)):
        schedule = schedule_work(sizes, strategy)
        assert [(s.left, s.right) for s in schedule.steps] == _naive_extremes_steps(sizes, largest)


def test_schedule_csv(tmp_path):
    views = generate_views(GenParams(3, 20, 40, 4, 2, 0.3, 0.4, 7))
    summaries = [summarize(g, Model.AC) for _, g in views]
    _, schedule = merge_all(summaries, Strategy.smallest_first())
    path = tmp_path / "sched.csv"
    write_schedule_csv(schedule, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {"step", "left_id", "right_id", "edges_left", "edges_right",
                            "wall_ms", "case1", "case2", "case3"}
    assert rows[0]["step"] == "0"
    assert int(rows[0]["case1"]) >= 0


def test_greedy_parallel_with_more_workers_than_pairs():
    views = generate_views(GenParams(4, 20, 30, 4, 2, 0.2, 0.3, 9))
    summaries = [summarize(g, Model.CC) for _, g in views]
    final, schedule = merge_all(summaries, Strategy.greedy_parallel(16))
    assert len(schedule.steps) == 3
    validate(final)
