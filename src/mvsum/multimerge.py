"""Merging n summaries into one under four scheduling strategies.

The final summary is the same whatever the order (merging is associative and
symmetric); the strategies only change how much intermediate work is done.
Sizes are serialized edge counts. smallest_first and largest_first keep a
size-ordered pool and repeatedly merge the two extremes; random picks pairs
with a seeded generator; greedy_parallel builds the tree that `workers`
workers would build under the cost model cost(a, b) = a + b, each taking the
two smallest summaries ready when it is free. That tree is deterministic,
and its merges run one at a time in simulated start order. `schedule_work`
dry-runs any strategy under the same cost model without touching real
summaries.
"""

from __future__ import annotations

import csv
import heapq
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from mvsum.merge import MergeConfigError, MergeRecord, merge
from mvsum.summary import Model, Summary

_KINDS = ("smallest_first", "largest_first", "random", "greedy_parallel")
_RNG_NAME = "mt19937"


@dataclass(frozen=True)
class Strategy:
    kind: str
    seed: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random strategy requires an explicit seed")
        if self.kind == "greedy_parallel" and (self.workers is None or self.workers < 1):
            raise ValueError("greedy_parallel strategy requires workers >= 1")

    @staticmethod
    def smallest_first() -> "Strategy":
        return Strategy("smallest_first")

    @staticmethod
    def largest_first() -> "Strategy":
        return Strategy("largest_first")

    @staticmethod
    def random(seed: int) -> "Strategy":
        return Strategy("random", seed=seed)

    @staticmethod
    def greedy_parallel(workers: int) -> "Strategy":
        return Strategy("greedy_parallel", workers=workers)

    def describe(self) -> str:
        if self.kind == "random":
            return f"random(seed={self.seed}, rng={_RNG_NAME})"
        if self.kind == "greedy_parallel":
            return f"greedy_parallel(workers={self.workers})"
        return self.kind


@dataclass(frozen=True)
class Step:
    left: str
    right: str
    output: str
    record: MergeRecord


@dataclass
class MergeSchedule:
    """The ordered record of an n-way merge: a binary merge tree over the inputs."""

    strategy: str
    steps: list[Step] = field(default_factory=list)
    total_wall_ms: float = 0.0
    total_work: int = 0

    def finalize_work(self) -> None:
        self.total_work = sum(step.record.edges_sum for step in self.steps)


class _Pool:
    """Size-ordered pool of (size, name, item) with insertion-order tie breaks."""

    def __init__(self, largest: bool = False):
        self._sign = -1 if largest else 1
        self._heap: list[tuple[int, int, str, object]] = []
        self._seq = itertools.count()

    def push(self, size: int, name: str, item) -> None:
        heapq.heappush(self._heap, (self._sign * size, next(self._seq), name, item))

    def pop(self) -> tuple[int, str, object]:
        size, _, name, item = heapq.heappop(self._heap)
        return self._sign * size, name, item

    def __len__(self) -> int:
        return len(self._heap)


def _run_sequential(items, strategy: Strategy, do_merge, out_names):
    steps: list[Step] = []
    if strategy.kind == "random":
        rng = random.Random(strategy.seed)
        pool = list(items)
        while len(pool) > 1:
            _, left_name, left = pool.pop(rng.randrange(len(pool)))
            _, right_name, right = pool.pop(rng.randrange(len(pool)))
            item, size, record = do_merge(left, right)
            name = next(out_names)
            steps.append(Step(left_name, right_name, name, record))
            pool.append((size, name, item))
        return pool[0][2], steps
    pool = _Pool(largest=(strategy.kind == "largest_first"))
    for size, name, item in items:
        pool.push(size, name, item)
    while len(pool) > 1:
        _, left_name, left = pool.pop()
        _, right_name, right = pool.pop()
        item, size, record = do_merge(left, right)
        name = next(out_names)
        steps.append(Step(left_name, right_name, name, record))
        pool.push(size, name, item)
    return pool.pop()[2], steps


def _run_greedy_parallel(items, workers: int, do_merge, out_names):
    """Build the greedy-parallel merge tree by simulating `workers` workers.

    Under the cost model a merge of sizes a and b takes a + b time units.
    The earliest-free worker takes the two smallest ready items; with fewer
    than two ready it waits for the next merge to finish. Merges run one at
    a time, in simulated start order, and an output becomes ready at its
    merge's start plus a + b. Returns the final item, the steps in start
    order and the simulated makespan.
    """
    ready = [(size, seq, name, item) for seq, (size, name, item) in enumerate(items)]
    heapq.heapify(ready)
    running: list[tuple[float, int, int, str, object]] = []  # (finish, size, seq, name, item)
    free_at = [0.0] * workers  # a heap of the times the workers become free
    seq = itertools.count(len(items))
    steps: list[Step] = []
    while len(steps) < len(items) - 1:
        t = free_at[0]
        while running and running[0][0] <= t:
            _, size, s, name, item = heapq.heappop(running)
            heapq.heappush(ready, (size, s, name, item))
        if len(ready) < 2:
            heapq.heapreplace(free_at, max(t, running[0][0]))
            continue
        a, _, left_name, left = heapq.heappop(ready)
        b, _, right_name, right = heapq.heappop(ready)
        item, size, record = do_merge(left, right)
        name = next(out_names)
        steps.append(Step(left_name, right_name, name, record))
        finish = t + (a + b)
        heapq.heapreplace(free_at, finish)
        heapq.heappush(running, (finish, size, next(seq), name, item))
    # The root merge starts after every other merge has finished, so the
    # one item left is the final summary and its finish is the makespan.
    makespan, _, _, _, final = running[0]
    return final, steps, makespan


def merge_all(
    summaries: Sequence[Summary],
    strategy: Strategy,
    model: Model | None = None,
    names: Sequence[str] | None = None,
) -> tuple[Summary, MergeSchedule]:
    """Merge n summaries into one; returns the result and the schedule taken."""
    if not summaries:
        raise ValueError("merge_all needs at least one summary")
    first = summaries[0]
    for s in summaries[1:]:
        if s.model != first.model or s.digest != first.digest:
            raise MergeConfigError("all summaries must share one model and digest")
    if model is not None and model != first.model:
        raise MergeConfigError(f"requested model {model.value} but summaries use {first.model.value}")
    if names is None:
        names = [f"in{i}" for i in range(len(summaries))]
    elif len(names) != len(summaries):
        raise ValueError("names must match summaries one-to-one")

    schedule = MergeSchedule(strategy=strategy.describe())
    if len(summaries) == 1:
        return first, schedule

    started = time.perf_counter()
    items = [(s.edge_count(), name, s) for name, s in zip(names, summaries)]
    out_names = (f"m{k}" for k in itertools.count(1))

    def do_merge(a: Summary, b: Summary):
        merged, record = merge(a, b)
        return merged, merged.edge_count(), record

    if strategy.kind == "greedy_parallel":
        final, steps, _ = _run_greedy_parallel(items, strategy.workers, do_merge, out_names)
    else:
        final, steps = _run_sequential(items, strategy, do_merge, out_names)
    schedule.steps = steps
    schedule.total_wall_ms = (time.perf_counter() - started) * 1e3
    schedule.finalize_work()
    return final, schedule


def schedule_work(
    sizes: Sequence[int],
    strategy: Strategy,
    output_size: Callable[[int, int], int] | None = None,
) -> MergeSchedule:
    """Simulate an n-way merge under the cost model cost(a, b) = a + b.

    No real merging happens: merging sizes a and b takes a + b time units
    and yields a summary of size `output_size(a, b)` (default: the a + b
    upper bound). For greedy_parallel, `total_wall_ms` is the makespan --
    a merge finishes at cost(pair) plus the time its later input was ready,
    and a worker blocks while fewer than two summaries are available. For
    the sequential strategies the makespan is simply the total work.
    """
    if not sizes:
        raise ValueError("schedule_work needs at least one size")
    size_of = output_size if output_size is not None else (lambda a, b: a + b)
    schedule = MergeSchedule(strategy=strategy.describe())
    if len(sizes) == 1:
        return schedule
    items = [(size, f"in{i}", size) for i, size in enumerate(sizes)]
    out_names = (f"m{k}" for k in itertools.count(1))

    def fake_record(a: int, b: int) -> MergeRecord:
        return MergeRecord(
            edges_s1=a, edges_s2=b, edges_sum=a + b, edges_union=size_of(a, b),
            wall_ms=float(a + b), stats=None,
        )

    def do_merge(a: int, b: int):
        out = size_of(a, b)
        return out, out, fake_record(a, b)

    makespan = None
    if strategy.kind == "greedy_parallel":
        _, schedule.steps, makespan = _run_greedy_parallel(items, strategy.workers, do_merge, out_names)
    else:
        _, schedule.steps = _run_sequential(items, strategy, do_merge, out_names)
    schedule.finalize_work()
    schedule.total_wall_ms = float(schedule.total_work) if makespan is None else makespan
    return schedule


def write_schedule_csv(schedule: MergeSchedule, path: str | Path) -> None:
    """Schedule rows as CSV: one line per merge step."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "left_id", "right_id", "edges_left", "edges_right", "wall_ms", "case1", "case2", "case3"])
        for i, step in enumerate(schedule.steps):
            r = step.record
            stats = r.stats
            w.writerow([
                i,
                step.left,
                step.right,
                r.edges_s1,
                r.edges_s2,
                f"{r.wall_ms:.3f}",
                stats.case1 if stats else "",
                stats.case2 if stats else "",
                stats.case3 if stats else "",
            ])
