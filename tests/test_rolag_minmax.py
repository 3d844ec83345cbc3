"""Tests for min/max compare+select reduction rolling (Fig. 20b ext)."""

import pytest

from tests.helpers import execute, ints_to_bytes

from repro.frontend import compile_c
from repro.ir import I32, Machine, parse_module, verify_module
from repro.rolag import RolagConfig, RolagStats, roll_loops_in_module
from repro.rolag.seeds import collect_minmax_seeds, collect_seed_groups

pytestmark = pytest.mark.usefixtures("stamp_checker")


def straight_line_max(lanes, pred="sgt", cmp_leaf_first=True,
                      select_leaf_first=True):
    """Build IR text for an unrolled max over `lanes` loaded values."""
    lines = ["define i32 @f(i32* %p, i32 %seed) {", "entry:"]
    acc = "%seed"
    for i in range(lanes):
        lines.append(f"  %g{i} = getelementptr i32, i32* %p, i64 {i}")
        lines.append(f"  %v{i} = load i32, i32* %g{i}")
        leaf = f"%v{i}"
        a, b = (leaf, acc) if cmp_leaf_first else (acc, leaf)
        lines.append(f"  %c{i} = icmp {pred} i32 {a}, {b}")
        x, y = (leaf, acc) if select_leaf_first else (acc, leaf)
        lines.append(f"  %m{i} = select i1 %c{i}, i32 {x}, i32 {y}")
        acc = f"%m{i}"
    lines.append(f"  ret i32 {acc}")
    lines.append("}")
    return "\n".join(lines)


class TestChainDetection:
    def test_detects_canonical_chain(self):
        m = parse_module(straight_line_max(5))
        block = m.get_function("f").entry
        groups = collect_minmax_seeds(block, RolagConfig())
        assert len(groups) == 1
        group = groups[0]
        assert group.size == 5
        assert group.minmax_predicate == "sgt"
        assert group.minmax_init is m.get_function("f").arguments[1]

    @pytest.mark.parametrize("pred", ["sgt", "slt", "sge", "ule"])
    def test_all_predicates(self, pred):
        m = parse_module(straight_line_max(4, pred=pred))
        block = m.get_function("f").entry
        groups = collect_minmax_seeds(block, RolagConfig())
        assert len(groups) == 1
        assert groups[0].minmax_predicate == pred

    @pytest.mark.parametrize("cmp_first", [True, False])
    @pytest.mark.parametrize("sel_first", [True, False])
    def test_all_orientations(self, cmp_first, sel_first):
        m = parse_module(
            straight_line_max(
                4, cmp_leaf_first=cmp_first, select_leaf_first=sel_first
            )
        )
        block = m.get_function("f").entry
        groups = collect_minmax_seeds(block, RolagConfig())
        assert len(groups) == 1
        assert groups[0].minmax_cmp_leaf_first == cmp_first
        assert groups[0].minmax_select_leaf_first == sel_first

    def test_mixed_predicates_break_chain(self):
        src = """
define i32 @f(i32 %a, i32 %b, i32 %c, i32 %s) {
entry:
  %c0 = icmp sgt i32 %a, %s
  %m0 = select i1 %c0, i32 %a, i32 %s
  %c1 = icmp slt i32 %b, %m0
  %m1 = select i1 %c1, i32 %b, i32 %m0
  %c2 = icmp sgt i32 %c, %m1
  %m2 = select i1 %c2, i32 %c, i32 %m1
  ret i32 %m2
}
"""
        m = parse_module(src)
        block = m.get_function("f").entry
        groups = collect_minmax_seeds(block, RolagConfig())
        # A maximal consistent suffix may be found, but never the full
        # mixed chain.
        assert all(g.size < 3 for g in groups)

    def test_short_chain_ignored(self):
        m = parse_module(straight_line_max(2))
        block = m.get_function("f").entry
        assert collect_minmax_seeds(block, RolagConfig()) == []

    def test_disabled_by_config(self):
        m = parse_module(straight_line_max(6))
        block = m.get_function("f").entry
        config = RolagConfig(enable_minmax=False)
        groups = collect_seed_groups(block, config)
        assert all(g.kind != "minmax" for g in groups)


class TestRolling:
    @pytest.mark.parametrize("pred,reference", [
        ("sgt", max),
        ("slt", min),
        ("sge", max),
    ])
    def test_semantics(self, pred, reference):
        m = parse_module(straight_line_max(8, pred=pred))
        values = [3, -7, 22, 0, 15, 22, -100, 9]
        machine = Machine(m)
        buf = machine.alloc(32)
        for i, v in enumerate(values):
            machine.write_value(buf + 4 * i, I32, v)
        seed = 4
        expected = machine.call(m.get_function("f"), [buf, seed])
        assert expected == reference(values + [seed])

        stats = RolagStats()
        rolled = roll_loops_in_module(m, stats=stats)
        verify_module(m)
        assert rolled == 1
        assert stats.node_counts["minmax"] == 1

        machine2 = Machine(m)
        buf2 = machine2.alloc(32)
        for i, v in enumerate(values):
            machine2.write_value(buf2 + 4 * i, I32, v)
        assert machine2.call(m.get_function("f"), [buf2, seed]) == expected

    @pytest.mark.parametrize("cmp_first", [True, False])
    @pytest.mark.parametrize("sel_first", [True, False])
    def test_orientation_semantics(self, cmp_first, sel_first):
        src = straight_line_max(
            6, cmp_leaf_first=cmp_first, select_leaf_first=sel_first
        )
        m = parse_module(src)
        values = [5, 1, 9, -2, 9, 3]

        def run(module):
            machine = Machine(module)
            buf = machine.alloc(24)
            for i, v in enumerate(values):
                machine.write_value(buf + 4 * i, I32, v)
            return machine.call(module.get_function("f"), [buf, 0])

        expected = run(m)
        rolled = roll_loops_in_module(m)
        verify_module(m)
        assert rolled == 1
        assert run(m) == expected

    def test_float_max_from_c(self):
        source = """
float mx8(float *v) {
  float m = v[0];
  if (v[1] > m) m = v[1];
  if (v[2] > m) m = v[2];
  if (v[3] > m) m = v[3];
  if (v[4] > m) m = v[4];
  if (v[5] > m) m = v[5];
  if (v[6] > m) m = v[6];
  if (v[7] > m) m = v[7];
  return m;
}
"""
        module = compile_c(source)  # if-conversion produces the selects
        verify_module(module)
        from repro.ir import F32

        def run(mod):
            machine = Machine(mod)
            buf = machine.alloc(32)
            data = [1.5, -2.0, 8.25, 0.0, 8.25, 3.5, -9.0, 2.0]
            for i, v in enumerate(data):
                machine.write_value(buf + 4 * i, F32, v)
            return machine.call(mod.get_function("mx8"), [buf])

        expected = run(module)
        assert expected == 8.25
        stats = RolagStats()
        rolled = roll_loops_in_module(module, stats=stats)
        verify_module(module)
        assert rolled == 1
        assert stats.node_counts["minmax"] == 1
        assert run(module) == expected

    def test_external_init_stays_outside(self):
        # The init is an argument: must become the phi's entry value.
        m = parse_module(straight_line_max(6))
        roll_loops_in_module(m)
        verify_module(m)
        fn = m.get_function("f")
        loop_blocks = [b for b in fn.blocks if "loop" in b.name]
        assert len(loop_blocks) == 1
        phis = loop_blocks[0].phis()
        assert len(phis) == 2  # iv + accumulator
