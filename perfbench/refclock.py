"""Host-speed reference: a fixed pure-Python loop timed next to every measurement.

On a shared host the speed of one core drifts by 20-40% over seconds, tens of
seconds and minutes; a shared 2-core, 2.1 GHz virtual machine showed this in op
times and in this loop alike (correlation 0.6-0.9 between an op and the loop
passes either side of it). So every timed interval is bracketed by passes of the loop, and
the benchmark reports the raw time scaled by NOMINAL_S over the mean of the
two adjacent loop times: seconds on a host that runs the loop in NOMINAL_S.
A change to mvsum moves the calls and not the loop, so it shows in full; the
raw times stay in the run record.

An op is timed call by call (`StageClock`), because the host speed changes
within one op: on that machine, scaling each call instead of the whole op cut
the coefficient of variation of scaled op times from 0.08-0.11 to 0.07 on
`ingest` and from 0.09 to 0.04-0.05 on `merge-files`.

The loop allocates no object the collector tracks, so neither collector
pauses nor collector settings reach it.

    python3 perfbench/refclock.py

prints the wall and CPU seconds of one pass on this host.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter, process_time

ITERS = 1_000_000
NOMINAL_S = 0.1


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one pass of the loop."""
    w0 = perf_counter()
    c0 = process_time()
    x = 0
    for i in range(ITERS):
        x += i * i % 7
    return perf_counter() - w0, process_time() - c0


def scaled(raw_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """`raw_s` in seconds at the reference speed, from the loop times either side."""
    return raw_s * NOMINAL_S * 2 / (ref_before_s + ref_after_s)


class StageClock:
    """The untraced path, timed call by call against the reference loop.

    Used where the benchmark passes a tracer: the outermost span is the op,
    and each span directly inside it is one call into mvsum, a stage. The loop
    runs when the op starts and after every stage, and each stage's wall and
    CPU time is scaled by the loop times either side of it. The op's time is
    the sum over its stages; the loop passes are not part of it.
    """

    enabled = False
    op = None

    def __init__(self):
        self.depth = 0
        self.wall_s = self.cpu_s = self.wall_ref_s = self.cpu_ref_s = 0.0
        self.refs: list[float] = []
        self._ref = (0.0, 0.0)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        self.depth += 1
        try:
            if self.depth == 1:
                self._ref = sample()
                self.refs.append(self._ref[0])
                yield {"attrs": {}}
            elif self.depth == 2:
                w0 = perf_counter()
                c0 = process_time()
                yield {"attrs": {}}
                wall = perf_counter() - w0
                cpu = process_time() - c0
                nxt = sample()
                self.wall_s += wall
                self.cpu_s += cpu
                self.wall_ref_s += scaled(wall, self._ref[0], nxt[0])
                self.cpu_ref_s += scaled(cpu, self._ref[1], nxt[1])
                self.refs.append(nxt[0])
                self._ref = nxt
            else:
                yield {"attrs": {}}
        finally:
            self.depth -= 1

    def timed_iter(self, it):
        return it

    def times(self) -> dict[str, float]:
        """Raw and scaled op times, and the mean loop time, for the op record."""
        return {
            "wall_s": self.wall_s, "cpu_s": self.cpu_s,
            "wall_ref_s": self.wall_ref_s, "cpu_ref_s": self.cpu_ref_s,
            "ref_wall_s": sum(self.refs) / len(self.refs),
        }


if __name__ == "__main__":
    wall, cpu = sample()
    print(f"reference loop: {wall:.4f} s wall, {cpu:.4f} s CPU (nominal {NOMINAL_S} s)")
