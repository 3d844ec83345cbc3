"""Tests for profile-guided rolling (paper Sec. V-D suggestion)."""

import pytest

from repro.bench.objsize import function_size
from repro.frontend import compile_c
from repro.ir import Machine, verify_module
from repro.rolag import RolagConfig, roll_loops_in_module

pytestmark = pytest.mark.usefixtures("stamp_checker")

#: A module with a hot rollable block (inside a 200-trip loop) and a
#: cold rollable function that runs once.
SOURCE = """
int sink[8];
int out[8];

void hot(int n) {
  for (int iter = 0; iter < n; iter++) {
    sink[0] = iter; sink[1] = iter; sink[2] = iter; sink[3] = iter;
    sink[4] = iter; sink[5] = iter; sink[6] = iter; sink[7] = iter;
  }
}

void cold(void) {
  out[0] = 1; out[1] = 2; out[2] = 3; out[3] = 4;
  out[4] = 5; out[5] = 6; out[6] = 7; out[7] = 8;
}

void main_like(void) {
  hot(200);
  cold();
}
"""


def profile_module(module):
    machine = Machine(module, step_limit=50_000_000)
    machine.call(module.get_function("main_like"), [])
    return dict(machine.block_counts), machine.steps


class TestBlockCounts:
    def test_interpreter_counts_blocks(self):
        module = compile_c(SOURCE)
        counts, _ = profile_module(module)
        hot_counts = [v for (fn, _), v in counts.items() if fn == "hot"]
        assert max(hot_counts) >= 200
        cold_counts = [v for (fn, _), v in counts.items() if fn == "cold"]
        assert max(cold_counts) == 1


class TestProfileGuidedRolling:
    def test_hot_block_skipped_cold_rolled(self):
        module = compile_c(SOURCE)
        profile, _ = profile_module(module)
        config = RolagConfig(profile=profile, hot_block_threshold=100)
        rolled = roll_loops_in_module(module, config=config)
        verify_module(module)
        assert rolled == 1  # only the cold function
        # hot() keeps its straight-line body: one block loop, 8 stores.
        from repro.ir import Store

        hot_fn = module.get_function("hot")
        stores = [i for i in hot_fn.instructions() if isinstance(i, Store)]
        assert len(stores) == 8

    def test_without_profile_both_roll(self):
        module = compile_c(SOURCE)
        rolled = roll_loops_in_module(module)
        assert rolled == 2

    def test_profile_preserves_cold_size_win(self):
        unguided = compile_c(SOURCE)
        roll_loops_in_module(unguided)

        guided = compile_c(SOURCE)
        profile, _ = profile_module(guided)
        roll_loops_in_module(
            guided, config=RolagConfig(profile=profile, hot_block_threshold=100)
        )
        # The cold function shrinks identically under both policies.
        assert function_size(guided.get_function("cold")) == function_size(
            unguided.get_function("cold")
        )

    def test_profile_eliminates_dynamic_overhead(self):
        unguided = compile_c(SOURCE)
        roll_loops_in_module(unguided)
        _, steps_unguided = profile_module(unguided)

        guided = compile_c(SOURCE)
        profile, steps_baseline = profile_module(guided)
        roll_loops_in_module(
            guided, config=RolagConfig(profile=profile, hot_block_threshold=100)
        )
        _, steps_guided = profile_module(guided)

        # Rolling the hot block costs many dynamic instructions; the
        # profile-guided build stays within a whisker of the baseline.
        assert steps_unguided > steps_baseline * 1.5
        assert steps_guided < steps_baseline * 1.05

    def test_threshold_respected(self):
        module = compile_c(SOURCE)
        profile, _ = profile_module(module)
        # A sky-high threshold disables the guard entirely.
        config = RolagConfig(profile=profile, hot_block_threshold=10**9)
        assert roll_loops_in_module(module, config=config) == 2
