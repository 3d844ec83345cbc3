"""Paired timing: the one rule behind every timed exhibit ratio.

A ratio of two runs made one after the other measures the host as
much as the code: on a shared machine, speed drifts between runs by
more than most bars.  So sides A and B run in :data:`PAIRS`
back-to-back pairs, A first in even pairs and B first in odd ones;
each pair gives one ratio, and the reading is their median, so drift
slows both halves of a pair alike and a slow spell moves one pair,
not the reading.  Stdlib only: ``import repro.bench`` stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional

#: Pairs behind every paired ratio; odd, so the median is one pair's.
PAIRS = 7


class Run(NamedTuple):
    """One timed call of one side: what it returned and how long."""

    result: Any
    seconds: float


def speedup(a: Run, b: Run) -> float:
    """Reference (A) time over candidate (B) time."""
    return a.seconds / b.seconds


def overhead(a: Run, b: Run) -> float:
    """B's extra time as a fraction of A's (0.05 is 5% slower)."""
    return (b.seconds - a.seconds) / a.seconds


@dataclass
class PairedTiming:
    """Every pair of one :func:`time_pairs` call."""

    a: List[Run] = field(default_factory=list)
    b: List[Run] = field(default_factory=list)
    ratios: List[float] = field(default_factory=list)

    @property
    def ratio(self) -> float:
        """The median of the per-pair ratios."""
        return median(self.ratios)

    def seconds(self, side: str) -> float:
        """The median time of side ``"a"`` or ``"b"``."""
        return median(run.seconds for run in getattr(self, side))

    def to_json(self) -> Dict[str, object]:
        return {
            "pairs": len(self.ratios),
            "ratio": self.ratio,
            "pair_ratios": self.ratios,
            "a_seconds": [run.seconds for run in self.a],
            "b_seconds": [run.seconds for run in self.b],
            "a_first": [index % 2 == 0 for index in range(len(self.a))],
        }


def describe_pairs(timing: Dict[str, object], fmt: str = "{:.2f}x") -> str:
    """``median 2.61x of 7 pairs [2.58x, ...]`` for one
    :meth:`PairedTiming.to_json` payload, each ratio through ``fmt``."""
    per_pair = ", ".join(fmt.format(r) for r in timing["pair_ratios"])
    return (
        f"median {fmt.format(timing['ratio'])} of {timing['pairs']} "
        f"pairs [{per_pair}]"
    )


def time_pairs(
    side_a: Callable[[], Any],
    side_b: Callable[[], Any],
    ratio: Callable[[Run, Run], float] = speedup,
    pairs: int = PAIRS,
    setup: Optional[Callable[[], None]] = None,
    clock: Callable[[], float] = perf_counter,
) -> PairedTiming:
    """Time ``side_a`` against ``side_b`` in ``pairs`` alternating pairs.

    ``ratio`` reads one pair's two runs.  ``setup`` runs untimed
    before each pair, for a side that needs fresh state in every pair
    (a cache just filled).  An exception in any call propagates.
    """
    timing = PairedTiming()
    for index in range(pairs):
        if setup is not None:
            setup()
        runs = {}
        order = (("a", side_a), ("b", side_b))
        for side, call in order if index % 2 == 0 else order[::-1]:
            start = clock()
            result = call()
            runs[side] = Run(result, clock() - start)
        timing.a.append(runs["a"])
        timing.b.append(runs["b"])
        timing.ratios.append(ratio(runs["a"], runs["b"]))
    return timing
