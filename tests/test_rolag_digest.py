"""Pinned RoLAG output over the campaign corpus, and claimed-set order.

The digests are sha256 over every job's ``optimized_ir`` and
``savings``, in draw order, of the Angha draw (seed 2022) optimized by
``optimize_one`` with ``validate=off``: the Fig. 15 campaign's
per-job pipeline (frontend, reroll baseline, RoLAG).  Speed work on
alignment, profitability or scheduling must not move them: a rejected
candidate has to be rejected, and a rolled one rolled, exactly as
before.
"""

import hashlib

import pytest

from repro.analysis.alias import AliasAnalysis
from repro.analysis.deps import DependenceGraph
from repro.bench import angha
from repro.driver import FunctionJob, optimize_one
from repro.ir import Store, parse_module
from repro.rolag import AlignmentGraph, RolagConfig

pytestmark = pytest.mark.usefixtures("stamp_checker")

ANGHA_40 = "fa5eaff1f9c5a322855e4f119995be54026c89f88bbc45f4d94f86490966bd27"
ANGHA_400 = "fb181db7cfe707f2a98dccb5dee6d33bde20e390e85876f53e610e918f74cb77"


def campaign_digest(count):
    digest = hashlib.sha256()
    config = RolagConfig(validate="off")
    for cs in angha.generate_sources(count=count, seed=2022):
        result = optimize_one(FunctionJob(name=cs.name, c_source=cs.source), config)
        digest.update(result.optimized_ir.encode())
        digest.update(repr(result.savings).encode())
    return digest.hexdigest()


def test_campaign_draw_of_40_rolls_to_pinned_ir():
    assert campaign_digest(40) == ANGHA_40


@pytest.mark.slow
def test_angha_draw_of_400_rolls_to_pinned_ir():
    assert campaign_digest(400) == ANGHA_400


STORES = """
define void @f(i32* %p, i32 %x) {
entry:
  %v0 = add i32 %x, 1
  %p0 = getelementptr i32, i32* %p, i64 0
  store i32 %v0, i32* %p0
  %v1 = add i32 %x, 2
  %p1 = getelementptr i32, i32* %p, i64 1
  store i32 %v1, i32* %p1
  %v2 = add i32 %x, 3
  %p2 = getelementptr i32, i32* %p, i64 2
  store i32 %v2, i32* %p2
  %v3 = add i32 %x, 4
  %p3 = getelementptr i32, i32* %p, i64 3
  store i32 %v3, i32* %p3
  ret void
}
"""


class TestClaimedInstructions:
    @staticmethod
    def _graph(index_from_deps):
        fn = parse_module(STORES).get_function("f")
        block = fn.blocks[0]
        index = None
        if index_from_deps:
            index = DependenceGraph(block, AliasAnalysis(fn)).index
        ag = AlignmentGraph(block, RolagConfig(), index=index)
        stores = [i for i in block.instructions if isinstance(i, Store)]
        # Lanes in reverse: the last store is lane 0, so the graph
        # claims instructions far from block order.
        assert ag.build_from_seeds(stores[::-1]) is not None
        return block, ag

    @pytest.mark.parametrize("index_from_deps", [False, True])
    def test_block_order_when_lanes_were_claimed_out_of_order(
        self, index_from_deps
    ):
        block, ag = self._graph(index_from_deps)
        position = {id(inst): p for p, inst in enumerate(block.instructions)}
        claim_order = [position[inst_id] for inst_id in ag.claimed]
        assert claim_order != sorted(claim_order)
        expected = [i for i in block.instructions if id(i) in ag.claimed]
        assert len(expected) == 12
        assert ag.claimed_instructions() == expected

    def test_claimed_ids_outside_the_block_are_skipped(self):
        block, ag = self._graph(True)
        before = ag.claimed_instructions()
        stranger = parse_module(STORES).get_function("f").blocks[0].instructions[0]
        ag.claimed[id(stranger)] = next(iter(ag.claimed.values()))
        assert ag.claimed_instructions() == before
