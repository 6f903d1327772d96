"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of one process drifts by up to a factor of two
over minutes, with CPU time tracking wall time, so the drift is contention
for the hardware, not waiting. No statistic of the raw pass times removes
it well: in records of 5 to 10 minutes of back-to-back passes, the spread
(quartile distance over median) of 30- and 40-second run medians was
0.19 to 0.27, and of run minima 0.06 to 0.19, with no gain from runs of
60 seconds.

A fixed pure-Python job timed before every pass tracks the drift that is
left. Its runs' fastest time moves with the workload's fastest pass: the
ratio of the two had a spread of 0.04 to 0.10 on report-ospB-2111 and
relations-large over the same records. The job is sparse products of
dict-of-Fraction matrices, the kind of work the program does, but it
shares no code with gradedosp, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.12
"""Normalized timings are stated at the machine speed where `calibrate()`
takes this long, about its fastest time on a 2-vCPU cloud VM."""


def _matrix(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        (rng.randrange(24), rng.randrange(24)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(120)
    }


_A, _B = _matrix(1), _matrix(2)


def _matmul(a: dict, b: dict) -> dict:
    rows: dict = {}
    for (k, l), w in b.items():
        rows.setdefault(k, []).append((l, w))
    acc: dict = {}
    for (i, j), v in a.items():
        for l, w in rows.get(j, ()):
            s = acc.get((i, l), 0) + v * w
            if s:
                acc[(i, l)] = s
            else:
                acc.pop((i, l), None)
    return acc


def calibrate() -> float:
    """Seconds taken by the fixed reference job."""
    start = perf_counter()
    for _ in range(50):
        _matmul(_A, _B)
        _matmul(_B, _A)
    return perf_counter() - start
