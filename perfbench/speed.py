"""Host speed reference: steadies times measured on a shared host.

On a shared 2-vCPU VM the speed of unchanged code drifts by a third or
more over minutes: ten back-to-back ``tsvc-checked`` runs gave median
repetition walls from 2.9 to 5.0 s, and a fixed plain-Python loop ran
up to half again as long in one 5-second window as in another.  Raw
times therefore cannot repeat within the benchmark's bounds from one
run to the next.

Each run times a fixed reference task -- plain Python that calls no
code of the program, so no change to the program moves it -- right
before every timed repetition, and multiplies the times it reports by
``REFERENCE_SECONDS / median(reference times)``.  Every reported time
is thus in seconds of a host that runs the reference task in
``REFERENCE_SECONDS``.  The raw times and the factor go to the detail
line.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: The reference task's usual time on a quiet 2-vCPU VM.  It sets the
#: scale of every reported time, so reported and raw times are close.
REFERENCE_SECONDS = 0.03

#: Reference timings taken before each repetition.
SAMPLES_PER_REPETITION = 5


def _reference_task() -> int:
    """Object-heavy plain Python: formatting, dicts, tuples, sorting.

    The working set stays small (a few thousand entries at a time), so
    the task does not raise the peak memory the benchmark reports.
    """
    total = 0
    for _round in range(12):
        table = {}
        for i in range(2500):
            key = f"v{i % 97}.{i}"
            table[key] = (i, key.upper(), [i & 7, i >> 3])
        ordered = sorted(table.items(), key=lambda item: item[1][0] % 101)
        total += sum(len(key) for key, _value in ordered[:100])
    return total


class HostSpeed:
    """The reference timings of one run."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        for _ in range(SAMPLES_PER_REPETITION):
            start = perf_counter()
            _reference_task()
            self.samples.append(perf_counter() - start)

    @property
    def factor(self) -> float:
        """Measured seconds times this factor give reference seconds."""
        return REFERENCE_SECONDS / statistics.median(self.samples)
