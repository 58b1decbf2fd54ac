"""A fixed reference workload, timed next to every measured command.

The shared machine the benchmark runs on changes speed by a fifth or more
within minutes, because other tenants load the same cores, caches and memory.
The median wall time of a run's commands divided by the median wall time of
this fixed workload, timed in the benchmark's own process between the
commands, keeps much of that drift out of the figure: a run in a slow stretch
has slow commands and a slow yardstick alike. One pass varies by a tenth or
more from the next, so the yardstick is timed for several passes after each
command.

The work mixes what the pipeline does: a pure-Python loop, parsing floats
from text into sorted tuples, many numpy calls on a tiny array, and numpy
prefix sums, products and sorts on an array of a few MB. Host contention
slows each of these by a different amount; the mix tracked the `run` commands
of two workloads more evenly than any one part. Its inputs come from a fixed
seed, not from ``--seed``. It belongs to the benchmark and never changes with
the program under test, so a faster program shows as a smaller ratio.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

SEED = 20240626
LOOP = 400_000  # pure-Python integer loop
VALUES = 30_000  # floats parsed from text into a sorted tuple list
SMALL_STEPS = 6_000  # numpy calls on a 15 x 3 array, as the trigger fits make them
ROWS, COLUMNS = 600, 2_000  # prefix sums, products and sorts on a 9.6 MB array


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.text = ",".join(f"{v:.6f}" for v in rng.normal(size=VALUES))
        self.small = rng.random((15, 3))
        self.matrix = rng.normal(size=(ROWS, COLUMNS))
        self.weights = rng.normal(size=(COLUMNS, 3))
        self.work()  # first-touch allocations are not part of any timing

    def work(self) -> float:
        """One pass: four parts of about equal time on the machine it was built on."""
        total = 0.0
        for i in range(LOOP):
            total += (i * 7) % 13
        values = tuple(float(v) for v in self.text.split(","))
        total += sorted((round(v, 3), i) for i, v in enumerate(values))[0][0]
        for i in range(SMALL_STEPS):
            prefix = np.cumsum(self.small, axis=0)
            total += float(prefix[i % 15].min()) + float(np.argmax(prefix[:, 1]))
        for _ in range(2):
            total += float((np.cumsum(self.matrix, axis=1) @ self.weights).sum())
            total += float(np.sort(self.matrix, axis=1)[:, 100].sum())
        return total

    def seconds(self) -> float:
        """Wall time of one pass of the work."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def passes(self, budget: float, least: int = 2) -> List[float]:
        """Times of passes run until ``budget`` seconds and ``least`` passes are spent."""
        times: List[float] = []
        while len(times) < least or sum(times) < budget:
            times.append(self.seconds())
        return times
