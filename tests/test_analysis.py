"""Tests for dominators, alias analysis, dependences, loops, cost model."""

import random

import pytest

from repro.analysis import (
    AliasAnalysis,
    AliasResult,
    CodeSizeCostModel,
    DependenceGraph,
    DominatorTree,
    constant_offset,
    find_loops,
    match_counted_loop,
    reverse_postorder,
    underlying_object,
)
from repro.ir import parse_module, parse_function


DIAMOND = """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %left, label %right

left:
  br label %merge

right:
  br label %merge

merge:
  %x = phi i32 [ 1, %left ], [ 2, %right ]
  ret i32 %x
}
"""


class TestDominators:
    def test_diamond(self):
        fn = parse_function(DIAMOND)
        dom = DominatorTree(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert dom.idom[blocks["merge"]] is blocks["entry"]
        assert dom.idom[blocks["left"]] is blocks["entry"]
        assert dom.dominates_block(blocks["entry"], blocks["merge"])
        assert not dom.dominates_block(blocks["left"], blocks["merge"])
        assert dom.dominates_block(blocks["merge"], blocks["merge"])

    def test_loop_idoms(self):
        fn = parse_function(
            """
define void @f(i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %in, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %body, label %exit

body:
  br label %latch

latch:
  %in = add i32 %i, 1
  br label %header

exit:
  ret void
}
"""
        )
        dom = DominatorTree(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert dom.idom[blocks["latch"]] is blocks["body"]
        assert dom.idom[blocks["exit"]] is blocks["header"]
        frontiers = dom.dominance_frontiers()
        assert blocks["header"] in frontiers[blocks["latch"]]
        assert blocks["header"] in frontiers[blocks["header"]]

    def test_unreachable_block(self):
        fn = parse_function(
            """
define void @f() {
entry:
  ret void

island:
  br label %island
}
"""
        )
        dom = DominatorTree(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert not dom.is_reachable(blocks["island"])
        assert dom.is_reachable(blocks["entry"])

    def test_instruction_dominance_same_block(self):
        fn = parse_function(
            """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %a, 2
  ret i32 %b
}
"""
        )
        dom = DominatorTree(fn)
        a, b, ret = fn.entry.instructions
        assert dom.dominates(a, b)
        assert not dom.dominates(b, a)

    def test_reverse_postorder_starts_at_entry(self):
        fn = parse_function(DIAMOND)
        order = reverse_postorder(fn)
        assert order[0] is fn.entry
        assert len(order) == 4


class TestAliasAnalysis:
    def test_distinct_globals_no_alias(self):
        m = parse_module(
            """
@A = global [4 x i32] zeroinitializer
@B = global [4 x i32] zeroinitializer

define void @f() {
entry:
  %pa = getelementptr [4 x i32], [4 x i32]* @A, i64 0, i64 0
  %pb = getelementptr [4 x i32], [4 x i32]* @B, i64 0, i64 0
  store i32 1, i32* %pa
  store i32 2, i32* %pb
  ret void
}
"""
        )
        fn = m.get_function("f")
        aa = AliasAnalysis(fn)
        pa, pb = fn.entry.instructions[0], fn.entry.instructions[1]
        assert aa.alias(pa, 4, pb, 4) is AliasResult.NO

    def test_same_base_disjoint_offsets(self):
        fn = parse_function(
            """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p0
  store i32 2, i32* %p1
  ret void
}
"""
        )
        aa = AliasAnalysis(fn)
        p0, p1 = fn.entry.instructions[0], fn.entry.instructions[1]
        assert aa.alias(p0, 4, p1, 4) is AliasResult.NO
        assert aa.alias(p0, 8, p1, 4) is AliasResult.MAY  # overlapping ranges
        assert aa.alias(p0, 4, p0, 4) is AliasResult.MUST

    def test_two_arguments_may_alias(self):
        fn = parse_function(
            """
define void @f(i32* %p, i32* %q) {
entry:
  store i32 1, i32* %p
  store i32 2, i32* %q
  ret void
}
"""
        )
        aa = AliasAnalysis(fn)
        p, q = fn.arguments
        assert aa.alias(p, 4, q, 4) is AliasResult.MAY

    def test_nonescaped_alloca_vs_argument(self):
        fn = parse_function(
            """
define void @f(i32* %p) {
entry:
  %a = alloca i32
  store i32 1, i32* %a
  store i32 2, i32* %p
  ret void
}
"""
        )
        aa = AliasAnalysis(fn)
        alloca = fn.entry.instructions[0]
        assert aa.alias(alloca, 4, fn.arguments[0], 4) is AliasResult.NO

    def test_escaped_alloca_may_alias_loads(self):
        m = parse_module(
            """
declare void @sink(i32*)

define void @f(i32** %pp) {
entry:
  %a = alloca i32
  call void @sink(i32* %a)
  %loaded = load i32*, i32** %pp
  store i32 1, i32* %a
  store i32 2, i32* %loaded
  ret void
}
"""
        )
        fn = m.get_function("f")
        aa = AliasAnalysis(fn)
        alloca = fn.entry.instructions[0]
        loaded = fn.entry.instructions[2]
        assert aa.alias(alloca, 4, loaded, 4) is AliasResult.MAY

    def test_underlying_object_strips_gep_chain(self):
        fn = parse_function(
            """
define void @f(i8* %p) {
entry:
  %g1 = getelementptr i8, i8* %p, i64 4
  %g2 = getelementptr i8, i8* %g1, i64 4
  store i8 0, i8* %g2
  ret void
}
"""
        )
        g2 = fn.entry.instructions[1]
        assert underlying_object(g2) is fn.arguments[0]
        assert constant_offset(g2) == 8

    def test_constant_offset_through_struct(self):
        m = parse_module(
            """
%struct.s = type { i32, i64, i32 }

define void @f(%struct.s* %p) {
entry:
  %g = getelementptr %struct.s, %struct.s* %p, i64 0, i64 2
  store i32 0, i32* %g
  ret void
}
"""
        )
        fn = m.get_function("f")
        g = fn.entry.instructions[0]
        assert constant_offset(g) == 16

    def test_variable_offset_unknown(self):
        fn = parse_function(
            """
define void @f(i32* %p, i64 %i) {
entry:
  %g = getelementptr i32, i32* %p, i64 %i
  store i32 0, i32* %g
  ret void
}
"""
        )
        g = fn.entry.instructions[0]
        assert constant_offset(g) is None
        aa = AliasAnalysis(fn)
        assert aa.alias(g, 4, fn.arguments[0], 4) is AliasResult.MAY


class TestDependenceGraph:
    def test_def_use_edges(self):
        fn = parse_function(
            """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  ret i32 %b
}
"""
        )
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        a, b, ret = fn.entry.instructions
        assert dg.must_precede(a, b)
        assert dg.must_precede(b, ret)

    def test_store_store_same_location_ordered(self):
        fn = parse_function(
            """
define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  store i32 2, i32* %p
  ret void
}
"""
        )
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        s1, s2, _ = fn.entry.instructions
        assert dg.must_precede(s1, s2)

    def test_disjoint_stores_unordered(self):
        fn = parse_function(
            """
define void @f(i32* %p) {
entry:
  %p0 = getelementptr i32, i32* %p, i64 0
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 1, i32* %p0
  store i32 2, i32* %p1
  ret void
}
"""
        )
        insts = fn.entry.instructions
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        assert not dg.must_precede(insts[2], insts[3])

    def test_call_orders_with_everything(self):
        m = parse_module(
            """
declare void @opaque()

define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  call void @opaque()
  %v = load i32, i32* %p
  ret void
}
"""
        )
        fn = m.get_function("f")
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        store, call, load, _ = fn.entry.instructions
        assert dg.must_precede(store, call)
        assert dg.must_precede(call, load)

    def test_readnone_call_floats(self):
        m = parse_module(
            """
declare i32 @pure(i32) readnone

define void @f(i32* %p) {
entry:
  store i32 1, i32* %p
  %v = call i32 @pure(i32 0)
  ret void
}
"""
        )
        fn = m.get_function("f")
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        store, call, _ = fn.entry.instructions
        assert not dg.must_precede(store, call)

    def test_respects(self):
        fn = parse_function(
            """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  ret i32 %b
}
"""
        )
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        a, b, ret = fn.entry.instructions
        assert dg.respects([a, b, ret])
        assert not dg.respects([b, a, ret])

    def test_transitive_predecessors(self):
        fn = parse_function(
            """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = add i32 %b, 3
  ret i32 %c
}
"""
        )
        dg = DependenceGraph(fn.entry, AliasAnalysis(fn))
        a, b, c, ret = fn.entry.instructions
        preds = dg.transitive_predecessors([c])
        assert preds == {0, 1}


def _respects_brute_force(dg, order):
    """Replay every edge by scanning ``order`` for each endpoint."""

    def where(inst):
        for p, other in enumerate(order):
            if other is inst:
                return p
        return None

    for j, preds in enumerate(dg.edges):
        pj = where(dg.instructions[j])
        if pj is None:
            continue
        for i in preds:
            pi = where(dg.instructions[i])
            if pi is not None and pi >= pj:
                return False
    return True


@pytest.fixture(scope="module")
def corpus_blocks():
    """(function, block) pairs of real Angha and TSVC blocks."""
    from repro.bench import angha, tsvc

    modules = [cf.module for cf in angha.generate_corpus(count=20, seed=7)]
    modules += [
        tsvc.build_unrolled_kernel(name, factor=4)
        for name in ("s000", "vdotr", "s121", "s1281", "s452", "s2102")
    ]
    return [
        (fn, block)
        for module in modules
        for fn in module.functions
        if not fn.is_declaration
        for block in fn.blocks
        if len(block.instructions) >= 3
    ]


def _random_topological(dg, rng):
    """A random order of the whole block that keeps every edge."""
    placed = set()
    order = []
    while len(order) < len(dg.instructions):
        ready = [
            j for j, preds in enumerate(dg.edges)
            if j not in placed and preds <= placed
        ]
        j = rng.choice(ready)
        placed.add(j)
        order.append(dg.instructions[j])
    return order


class TestRespectsAgainstBruteForce:
    """``respects`` must agree with a plain edge replay on real blocks,
    for full orders and for partial ones that omit instructions."""

    def test_random_orders(self, corpus_blocks):
        rng = random.Random(1505)
        assert len(corpus_blocks) > 20
        verdicts = {True: 0, False: 0}
        for fn, block in corpus_blocks:
            dg = DependenceGraph(block, AliasAnalysis(fn))
            insts = list(block.instructions)
            topological = _random_topological(dg, rng)
            assert dg.respects(insts) and dg.respects(topological)
            orders = [insts, topological]
            for _ in range(4):
                shuffled = list(insts)
                rng.shuffle(shuffled)
                orders.append(shuffled)
                kept = rng.sample(insts, rng.randint(1, len(insts) - 1))
                orders.append(kept)
                partial = [
                    inst for inst in _random_topological(dg, rng)
                    if rng.random() < 0.7
                ]
                orders.append(partial)
            for order in orders:
                expected = _respects_brute_force(dg, order)
                assert dg.respects(order) == expected, (fn.name, block.name)
                verdicts[expected] += 1
        # Both answers must actually be exercised.
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_foreign_instructions_are_ignored(self, corpus_blocks):
        (fn_a, block_a), (_, block_b) = corpus_blocks[0], corpus_blocks[1]
        dg = DependenceGraph(block_a, AliasAnalysis(fn_a))
        order = list(block_b.instructions) + list(block_a.instructions)
        assert dg.respects(order) == _respects_brute_force(dg, order)
        assert dg.respects(order)


class TestLoopInfo:
    SINGLE = """
define void @f(i32 %n) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %in, %loop ]
  %in = add i32 %i, 1
  %c = icmp slt i32 %in, %n
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""

    def test_find_single_block_loop(self):
        fn = parse_function(self.SINGLE)
        loops = find_loops(fn)
        assert len(loops) == 1
        assert loops[0].is_single_block

    def test_counted_loop_matching(self):
        fn = parse_function(self.SINGLE)
        counted = match_counted_loop(find_loops(fn)[0])
        assert counted is not None
        assert counted.step == 1
        assert counted.iv.name == "i"
        assert counted.exit.name == "exit"
        assert counted.trip_count() is None  # bound is an argument

    def test_static_trip_count(self):
        src = self.SINGLE.replace("%n", "24").replace("define void @f(i32 24)",
                                                      "define void @f()")
        fn = parse_function(src)
        counted = match_counted_loop(find_loops(fn)[0])
        assert counted is not None
        assert counted.trip_count() == 24

    def test_step_and_decrement(self):
        fn = parse_function(
            """
define void @f() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 20, %entry ], [ %in, %loop ]
  %in = sub i32 %i, 2
  %c = icmp sgt i32 %in, 0
  br i1 %c, label %loop, label %exit

exit:
  ret void
}
"""
        )
        counted = match_counted_loop(find_loops(fn)[0])
        assert counted is not None
        assert counted.step == -2
        assert counted.trip_count() == 10

    def test_multi_block_loop_not_counted(self):
        fn = parse_function(
            """
define void @f(i32 %n) {
entry:
  br label %header

header:
  %i = phi i32 [ 0, %entry ], [ %in, %latch ]
  %c = icmp slt i32 %i, %n
  br i1 %c, label %latch, label %exit

latch:
  %in = add i32 %i, 1
  br label %header

exit:
  ret void
}
"""
        )
        loops = find_loops(fn)
        assert len(loops) == 1
        assert not loops[0].is_single_block
        assert match_counted_loop(loops[0]) is None


class TestCostModel:
    def test_basic_costs_positive(self):
        fn = parse_function(
            """
define i32 @f(i32 %x, i32* %p) {
entry:
  %a = add i32 %x, 1
  store i32 %a, i32* %p
  %v = load i32, i32* %p
  ret i32 %v
}
"""
        )
        cm = CodeSizeCostModel()
        total = cm.function_cost(fn)
        assert total > 0
        costs = [cm.instruction_cost(i) for i in fn.entry.instructions]
        assert all(c >= 0 for c in costs)

    def test_gep_folding(self):
        fn = parse_function(
            """
define i32 @f(i32* %p) {
entry:
  %g = getelementptr i32, i32* %p, i64 1
  %v = load i32, i32* %g
  ret i32 %v
}
"""
        )
        cm = CodeSizeCostModel()
        gep = fn.entry.instructions[0]
        assert cm.instruction_cost(gep) == 0  # folds into the load

    def test_gep_with_value_use_not_folded(self):
        fn = parse_function(
            """
define i32* @f(i32* %p) {
entry:
  %g = getelementptr i32, i32* %p, i64 1
  ret i32* %g
}
"""
        )
        cm = CodeSizeCostModel()
        gep = fn.entry.instructions[0]
        assert cm.instruction_cost(gep) > 0

    def test_declaration_costs_nothing(self):
        m = parse_module("declare void @x()")
        cm = CodeSizeCostModel()
        assert cm.function_cost(m.get_function("x")) == 0
        assert cm.module_text_size(m) == 0

    def test_global_data_size(self):
        m = parse_module("@A = global [10 x i32] zeroinitializer\n")
        cm = CodeSizeCostModel()
        assert cm.module_data_size(m) == 40

    def test_table_is_perturbable(self):
        fn = parse_function(
            """
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  ret i32 %a
}
"""
        )
        cm = CodeSizeCostModel()
        base = cm.function_cost(fn)
        cm.table["add"] += 10
        assert cm.function_cost(fn) == base + 10
