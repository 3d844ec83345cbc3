"""Tests for the paired-timing rule."""

import pytest

from repro.bench.paired import (
    describe_pairs,
    overhead,
    speedup,
    time_pairs,
)


class FakeHost:
    """Sides that log their calls and a clock that advances only by the
    duration scripted for each call, so every pair's times are known."""

    def __init__(self, durations):
        self.durations = {side: list(d) for side, d in durations.items()}
        self.now = 0.0
        self.calls = []

    def clock(self):
        return self.now

    def side(self, name):
        def call():
            index = sum(1 for side in self.calls if side == name)
            self.calls.append(name)
            self.now += self.durations[name][index]
            return f"{name}{index}"

        return call


def _paired(durations, pairs, **kwargs):
    host = FakeHost(durations)
    timing = time_pairs(
        host.side("a"), host.side("b"), pairs=pairs, clock=host.clock,
        **kwargs
    )
    return host, timing


def test_first_side_swaps_every_pair():
    host, timing = _paired({"a": [1.0] * 4, "b": [1.0] * 4}, pairs=4)
    assert host.calls == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert timing.to_json()["a_first"] == [True, False, True, False]


def test_odd_pair_count_reads_the_median_pair_ratio():
    _, timing = _paired(
        {"a": [4.0, 9.0, 2.0], "b": [2.0, 1.0, 2.0]}, pairs=3
    )
    assert timing.ratios == [2.0, 9.0, 1.0]
    assert timing.ratio == 2.0


def test_even_pair_count_averages_the_middle_ratios():
    _, timing = _paired(
        {"a": [4.0, 9.0, 2.0, 3.0], "b": [2.0, 1.0, 2.0, 1.0]}, pairs=4
    )
    assert timing.ratios == [2.0, 9.0, 1.0, 3.0]
    assert timing.ratio == 2.5


def test_every_pair_is_recorded():
    _, timing = _paired(
        {"a": [4.0, 6.0], "b": [2.0, 3.0]}, pairs=2, ratio=overhead
    )
    assert timing.to_json() == {
        "pairs": 2,
        "ratio": -0.5,
        "pair_ratios": [-0.5, -0.5],
        "a_seconds": [4.0, 6.0],
        "b_seconds": [2.0, 3.0],
        "a_first": [True, False],
    }
    assert timing.seconds("a") == 5.0
    assert timing.seconds("b") == 2.5
    assert describe_pairs(timing.to_json(), "{:+.0%}") == (
        "median -50% of 2 pairs [-50%, -50%]"
    )


def test_each_call_returns_its_result():
    _, timing = _paired({"a": [1.0] * 3, "b": [1.0] * 3}, pairs=3)
    assert [run.result for run in timing.a] == ["a0", "a1", "a2"]
    assert [run.result for run in timing.b] == ["b0", "b1", "b2"]


def test_setup_runs_before_each_pair_untimed():
    host = FakeHost({"a": [1.0] * 2, "b": [1.0] * 2})

    def setup():
        host.calls.append("setup")
        host.now += 100.0

    timing = time_pairs(
        host.side("a"), host.side("b"), pairs=2, setup=setup,
        clock=host.clock,
    )
    assert host.calls == ["setup", "a", "b", "setup", "b", "a"]
    assert timing.ratios == [1.0, 1.0]


def test_an_exception_in_a_side_propagates():
    def broken():
        raise RuntimeError("side failed")

    with pytest.raises(RuntimeError, match="side failed"):
        time_pairs(lambda: None, broken, pairs=3)


def test_a_zero_time_candidate_raises_instead_of_reading_zero():
    with pytest.raises(ZeroDivisionError):
        _paired({"a": [1.0], "b": [0.0]}, pairs=1, ratio=speedup)
