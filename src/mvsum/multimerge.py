"""Merging n summaries into one under four scheduling strategies.

The final summary is the same whatever the order (merging is associative and
symmetric); the strategies only change how much intermediate work is done.
Sizes are serialized edge counts. greedy_parallel builds the tree that
`workers` workers would build under the cost model cost(a, b) = a + b, each
taking the two smallest summaries ready when it is free. That tree is
deterministic, and its merges run one at a time in simulated start order.
smallest_first is the tree of one such worker, which always merges the two
smallest summaries left; largest_first is one worker that takes the two
largest. random picks pairs with a seeded generator. `schedule_work`
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
from typing import Sequence

from mvsum.errors import UsageError
from mvsum.merge import MergeRecord, check_compatible, merge
from mvsum.summary import Summary

_KINDS = ("smallest_first", "largest_first", "random", "greedy_parallel")
_RNG_NAME = "mt19937"


@dataclass(frozen=True)
class Strategy:
    kind: str
    seed: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UsageError(f"unknown strategy {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise UsageError("random strategy requires an explicit seed")
        if self.kind == "greedy_parallel" and (self.workers is None or self.workers < 1):
            raise UsageError("greedy_parallel strategy requires workers >= 1")

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

    @property
    def total_work(self) -> int:
        """The steps' summed `edges_sum`: the work under cost(a, b) = a + b."""
        return sum(step.record.edges_sum for step in self.steps)


def _run_random(items, seed: int, do_merge, out_names):
    """Merge pairs drawn by a seeded generator, one at a time.

    Returns the final item, the steps and the makespan, which for one
    merge at a time is the total work.
    """
    rng = random.Random(seed)
    pool = list(items)
    steps: list[Step] = []
    makespan = 0
    while len(pool) > 1:
        a, left_name, left = pool.pop(rng.randrange(len(pool)))
        b, right_name, right = pool.pop(rng.randrange(len(pool)))
        item, size, record = do_merge(left, right)
        name = next(out_names)
        steps.append(Step(left_name, right_name, name, record))
        pool.append((size, name, item))
        makespan += a + b
    return pool[0][2], steps, makespan


def _run_greedy(items, workers: int, largest: bool, do_merge, out_names):
    """Build the greedy merge tree by simulating `workers` workers.

    Under the cost model a merge of sizes a and b takes a + b time units.
    The earliest-free worker takes the two smallest ready items (the two
    largest if `largest`), ties going to inputs in their order, then to the
    outputs of earlier merges; with fewer than two ready it waits for the
    next merge to finish. Merges run one at a time, in simulated start
    order, and an output becomes ready at its merge's start plus a + b. One
    worker always finds its last output ready, so it builds the
    smallest-first (or largest-first) tree. Returns the final item, the
    steps in start order and the simulated makespan.
    """
    sign = -1 if largest else 1
    ready = [(sign * size, seq, name, item) for seq, (size, name, item) in enumerate(items)]
    heapq.heapify(ready)
    running: list[tuple[float, int, int, str, object]] = []  # (finish, key, seq, name, item)
    free_at = [0.0] * workers  # a heap of the times the workers become free
    seq = itertools.count(len(items))
    steps: list[Step] = []
    while len(steps) < len(items) - 1:
        t = free_at[0]
        while running and running[0][0] <= t:
            _, key, s, name, item = heapq.heappop(running)
            heapq.heappush(ready, (key, s, name, item))
        if len(ready) < 2:
            heapq.heapreplace(free_at, max(t, running[0][0]))
            continue
        a, _, left_name, left = heapq.heappop(ready)
        b, _, right_name, right = heapq.heappop(ready)
        item, size, record = do_merge(left, right)
        name = next(out_names)
        steps.append(Step(left_name, right_name, name, record))
        finish = t + sign * (a + b)
        heapq.heapreplace(free_at, finish)
        heapq.heappush(running, (finish, sign * size, next(seq), name, item))
    # The root merge starts after every other merge has finished, so the
    # one item left is the final summary and its finish is the makespan.
    makespan, _, _, _, final = running[0]
    return final, steps, makespan


def _run(items, strategy: Strategy, do_merge, out_names):
    """The final item, the steps and the makespan of `strategy` over `items`."""
    if strategy.kind == "random":
        return _run_random(items, strategy.seed, do_merge, out_names)
    workers = strategy.workers if strategy.kind == "greedy_parallel" else 1
    return _run_greedy(items, workers, strategy.kind == "largest_first", do_merge, out_names)


def merge_all(
    summaries: Sequence[Summary],
    strategy: Strategy,
    names: Sequence[str] | None = None,
) -> tuple[Summary, MergeSchedule]:
    """Merge n summaries into one; returns the result and the schedule taken."""
    if not summaries:
        raise ValueError("merge_all needs at least one summary")
    if names is None:
        names = [f"in{i}" for i in range(len(summaries))]
    elif len(names) != len(summaries):
        raise ValueError("names must match summaries one-to-one")
    check_compatible("all summaries must share one model", zip(names, summaries))

    schedule = MergeSchedule(strategy=strategy.describe())
    if len(summaries) == 1:
        return summaries[0], schedule

    started = time.perf_counter()
    items = [(s.edge_count(), name, s) for name, s in zip(names, summaries)]
    out_names = (f"m{k}" for k in itertools.count(1))

    def do_merge(a: Summary, b: Summary):
        merged, record = merge(a, b)
        return merged, merged.edge_count(), record

    final, schedule.steps, _ = _run(items, strategy, do_merge, out_names)
    schedule.total_wall_ms = (time.perf_counter() - started) * 1e3
    return final, schedule


def schedule_work(sizes: Sequence[int], strategy: Strategy) -> MergeSchedule:
    """Simulate an n-way merge under the cost model cost(a, b) = a + b.

    No real merging happens: merging sizes a and b takes a + b time units
    and yields a summary of a + b edges, the upper bound, which is also its
    `edges_union`. For greedy_parallel, `total_wall_ms` is the makespan --
    a merge finishes at cost(pair) plus the time its later input was ready,
    and a worker blocks while fewer than two summaries are available. For
    the sequential strategies the makespan is simply the total work.
    """
    if not sizes:
        raise ValueError("schedule_work needs at least one size")
    schedule = MergeSchedule(strategy=strategy.describe())
    if len(sizes) == 1:
        return schedule
    items = [(size, f"in{i}", size) for i, size in enumerate(sizes)]
    out_names = (f"m{k}" for k in itertools.count(1))

    def do_merge(a: int, b: int):
        record = MergeRecord(edges_s1=a, edges_s2=b, edges_sum=a + b, edges_union=a + b, wall_ms=float(a + b), stats=None)
        return a + b, a + b, record

    _, schedule.steps, makespan = _run(items, strategy, do_merge, out_names)
    schedule.total_wall_ms = float(makespan)
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
