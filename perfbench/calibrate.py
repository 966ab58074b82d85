"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared host the speed of one CPU drifts by up to ~1.6x over minutes
and jitters by up to 2x within a second, alike for every kind of work, so
no statistic over a run's own timings can remove it.  The benchmark
therefore brackets every timed piece of work (a set-up, an operation) with
a fixed calibration task -- a mix of the kinds of work qcsim does (Python
dict/tuple algebra, dispatch-bound numpy calls on tiny arrays, gate-sized
tensor contractions) written without qcsim code -- run for about
CALIBRATION_SHARE of the work's duration, and reports the work in
reference seconds:

    wall time x REFERENCE_S / (mean task time just before and just after)

Raw wall times and task times stay in the run's full record.  The task is
part of the benchmark's definition: changing it changes every reported time.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# the task's wall time at the reference machine speed
REFERENCE_S = 0.2
# calibration time per piece of work, as a share of that work's wall time
CALIBRATION_SHARE = 0.25

_GATE = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)


def task_seconds(repeats: int = 1) -> float:
    """Mean wall time of the calibration task over ``repeats`` back-to-back runs."""
    gc.collect()
    rng = np.random.default_rng(0)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    start = time.perf_counter()
    for _ in range(repeats):
        # Python dict/tuple work, as in the Pauli algebra and the IR
        table: dict = {}
        for i in range(100_000):
            key = ((i % 7, "X"), (i % 5, "Z"))
            table[key] = table.get(key, 0.0) + i * 0.5
        # dispatch-bound numpy calls on tiny arrays, as in sampled 2-qubit runs
        small = np.eye(2, dtype=complex)
        for k in range(2000):
            small = np.moveaxis(np.tensordot(_GATE, small, axes=([1], [k % 2])), 0, k % 2)
            if k % 10 == 0:
                np.unique(rng.choice(4, size=400, p=weights), return_counts=True)
        # gate-sized contractions on a 10-qubit state
        state = np.zeros((2,) * 10, dtype=complex)
        state[(0,) * 10] = 1.0
        for k in range(1000):
            q = k % 10
            state = np.moveaxis(np.tensordot(_GATE, state, axes=([1], [q])), 0, q)
    return (time.perf_counter() - start) / repeats


class Timer:
    """Times pieces of work, each bracketed by calibration tasks."""

    def __init__(self):
        self.walls: list[float] = []
        self.tasks: list[float] = [task_seconds()]

    def time(self, work):
        gc.collect()
        start = time.perf_counter()
        try:
            return work()
        finally:
            wall = time.perf_counter() - start
            self.walls.append(wall)
            repeats = max(1, round(CALIBRATION_SHARE * wall / self.tasks[-1]))
            self.tasks.append(task_seconds(repeats))

    def step_seconds(self) -> float:
        """Wall time one more piece of work and its calibration will take."""
        return statistics.median(self.walls) * (1 + CALIBRATION_SHARE) + self.tasks[-1]

    def record(self) -> dict:
        """Raw and scaled timings, for the run's record."""
        return {
            "wall_s": self.walls,
            "calibration_s": self.tasks,
            "reference_s": self.reference_seconds(),
        }

    def reference_seconds(self) -> list[float]:
        """Each piece of work in reference seconds."""
        return [
            wall * REFERENCE_S / ((before + after) / 2)
            for wall, before, after in zip(self.walls, self.tasks, self.tasks[1:])
        ]
