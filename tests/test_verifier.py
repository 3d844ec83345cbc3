"""Negative tests: the verifier must catch corrupted IR."""

import pytest

from repro.ir import (
    BinaryOp,
    Br,
    ConstantInt,
    F32,
    FunctionType,
    I32,
    I64,
    IRBuilder,
    Load,
    Module,
    Phi,
    Ret,
    Store,
    VOID,
    VerificationError,
    parse_module,
    ptr,
    verify_blocks,
    verify_function,
    verify_module,
)


def make_fn(ret=VOID, params=()):
    module = Module()
    fn = module.add_function("f", FunctionType(ret, list(params)))
    block = fn.add_block("entry")
    return module, fn, block


class TestStructural:
    def test_missing_terminator(self):
        module, fn, block = make_fn()
        builder = IRBuilder(block)
        builder.add(builder.i32(1), builder.i32(2))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(fn)

    def test_terminator_mid_block(self):
        module, fn, block = make_fn(ret=I32)
        block.append(Ret(ConstantInt(I32, 1)))
        builder = IRBuilder(block)
        block.append(BinaryOp("add", ConstantInt(I32, 1), ConstantInt(I32, 2)))
        block.append(Ret(ConstantInt(I32, 3)))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_phi_not_at_start(self):
        module, fn, block = make_fn()
        builder = IRBuilder(block)
        x = builder.add(builder.i32(1), builder.i32(2))
        phi = Phi(I32)
        phi.add_incoming(x, block)
        block.append(phi)
        builder.ret()
        with pytest.raises(VerificationError, match="phi"):
            verify_function(fn)

    def test_wrong_parent(self):
        module, fn, block = make_fn()
        builder = IRBuilder(block)
        x = builder.add(builder.i32(1), builder.i32(2))
        builder.ret()
        x.parent = None  # corrupt
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestSSADominance:
    def test_use_before_def_same_block(self):
        module, fn, block = make_fn(ret=I32)
        a = BinaryOp("add", ConstantInt(I32, 1), ConstantInt(I32, 2))
        b = BinaryOp("add", a, ConstantInt(I32, 3))
        block.append(b)  # user first!
        block.append(a)
        block.append(Ret(b))
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(fn)

    def test_use_across_non_dominating_blocks(self):
        module, fn, entry = make_fn(ret=I32, params=[I32])
        left = fn.add_block("left")
        right = fn.add_block("right")
        merge = fn.add_block("merge")
        b = IRBuilder(entry)
        cond = b.icmp("sgt", fn.arguments[0], b.i32(0))
        b.cond_br(cond, left, right)
        bl = IRBuilder(left)
        x = bl.add(fn.arguments[0], bl.i32(1))
        bl.br(merge)
        br_ = IRBuilder(right)
        br_.br(merge)
        bm = IRBuilder(merge)
        bm.ret(x)  # x does not dominate merge
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(fn)

    def test_phi_fixes_the_above(self):
        module, fn, entry = make_fn(ret=I32, params=[I32])
        left = fn.add_block("left")
        right = fn.add_block("right")
        merge = fn.add_block("merge")
        b = IRBuilder(entry)
        cond = b.icmp("sgt", fn.arguments[0], b.i32(0))
        b.cond_br(cond, left, right)
        bl = IRBuilder(left)
        x = bl.add(fn.arguments[0], bl.i32(1))
        bl.br(merge)
        br_ = IRBuilder(right)
        br_.br(merge)
        phi = Phi(I32)
        phi.add_incoming(x, left)
        phi.add_incoming(ConstantInt(I32, 0), right)
        merge.insert(0, phi)
        IRBuilder(merge).ret(phi)
        verify_function(fn)  # must not raise

    def test_phi_missing_incoming(self):
        module, fn, entry = make_fn()
        loop = fn.add_block("loop")
        IRBuilder(entry).br(loop)
        phi = Phi(I32)
        phi.add_incoming(ConstantInt(I32, 0), entry)
        loop.append(phi)
        builder = IRBuilder(loop)
        builder.br(loop)  # loop is its own pred but phi lacks that edge
        with pytest.raises(VerificationError, match="missing incoming"):
            verify_function(fn)

    def test_phi_duplicate_incoming(self):
        module, fn, entry = make_fn(ret=I32)
        exit_block = fn.add_block("exit")
        IRBuilder(entry).br(exit_block)
        phi = Phi(I32)
        phi.add_incoming(ConstantInt(I32, 1), entry)
        phi.add_incoming(ConstantInt(I32, 2), entry)  # same edge twice
        exit_block.append(phi)
        IRBuilder(exit_block).ret(phi)
        with pytest.raises(VerificationError, match="expected exactly one"):
            verify_function(fn)

    def test_detached_operand(self):
        module, fn, block = make_fn(ret=I32)
        builder = IRBuilder(block)
        a = builder.add(builder.i32(1), builder.i32(2))
        b = builder.add(a, builder.i32(3))
        builder.ret(b)
        # Detach a from the block but leave b's reference dangling.
        block.instructions.remove(a)
        a.parent = None
        with pytest.raises(VerificationError, match="detached"):
            verify_function(fn)

    def test_operand_parent_names_block_not_holding_it(self):
        module, fn, block = make_fn(ret=I32)
        builder = IRBuilder(block)
        a = builder.add(builder.i32(1), builder.i32(2))
        b = builder.add(a, builder.i32(3))
        builder.ret(b)
        # Move a out of the block while its parent pointer still lies
        # that the block holds it; b keeps using it.
        block.instructions.remove(a)
        assert a.parent is block
        with pytest.raises(VerificationError, match="dominance query failed"):
            verify_function(fn)


class TestTypeChecks:
    def test_store_type_mismatch(self):
        module, fn, block = make_fn(params=[ptr(I32)])
        store = Store(ConstantInt(I64, 1), fn.arguments[0])
        block.append(store)
        IRBuilder(block).ret()
        with pytest.raises(VerificationError, match="store type"):
            verify_function(fn)

    def test_binary_type_mismatch(self):
        module, fn, block = make_fn(ret=I32)
        bad = BinaryOp.__new__(BinaryOp)
        from repro.ir.instructions import Instruction

        Instruction.__init__(bad, I32)
        bad.opcode = "add"
        bad.add_operand(ConstantInt(I32, 1))
        bad.add_operand(ConstantInt(I64, 2))
        block.append(bad)
        block.append(Ret(bad))
        with pytest.raises(VerificationError, match="type mismatch"):
            verify_function(fn)

    def test_return_type_mismatch(self):
        module, fn, block = make_fn(ret=I32)
        block.append(Ret(ConstantInt(I64, 1)))
        with pytest.raises(VerificationError, match="ret type"):
            verify_function(fn)

    def test_void_function_returning_value(self):
        module, fn, block = make_fn(ret=VOID)
        block.append(Ret(ConstantInt(I32, 1)))
        with pytest.raises(VerificationError, match="ret with value"):
            verify_function(fn)

    def test_call_arity_mismatch(self):
        module = Module()
        callee = module.add_function("g", FunctionType(VOID, [I32, I32]))
        fn = module.add_function("f", FunctionType(VOID, []))
        block = fn.add_block("entry")
        from repro.ir import Call

        call = Call.__new__(Call)
        from repro.ir.instructions import Instruction

        Instruction.__init__(call, VOID)
        call.function_type = callee.function_type
        call.add_operand(callee)
        call.add_operand(ConstantInt(I32, 1))  # only one arg
        block.append(call)
        IRBuilder(block).ret()
        with pytest.raises(VerificationError, match="arity"):
            verify_function(fn)


class TestIncrementalVerify:
    """`verify_blocks` backs the transactional `fast` gate: it must
    see every error inside the touched set, and nothing else."""

    def _two_block_fn(self):
        module, fn, entry = make_fn(ret=I32, params=[I32])
        exit_block = fn.add_block("exit")
        IRBuilder(entry).br(exit_block)
        builder = IRBuilder(exit_block)
        x = builder.add(fn.arguments[0], builder.i32(1))
        builder.ret(x)
        return fn, entry, exit_block

    def test_catches_corruption_in_touched_block(self):
        fn, entry, exit_block = self._two_block_fn()
        insts = exit_block.instructions
        insts[0], insts[1] = insts[1], insts[0]  # use before def
        with pytest.raises(VerificationError):
            verify_blocks(fn, [exit_block])

    def test_untouched_blocks_are_not_rechecked(self):
        fn, entry, exit_block = self._two_block_fn()
        insts = exit_block.instructions
        insts[0], insts[1] = insts[1], insts[0]
        # Incremental contract: trusting the untouched set means a
        # corruption outside it goes unseen -- that is the `fast`
        # level's documented blind spot, not a bug.
        verify_blocks(fn, [entry])

    def test_foreign_blocks_are_skipped(self):
        fn, entry, exit_block = self._two_block_fn()
        module, other_fn, other_block = make_fn()
        verify_blocks(fn, [other_block])  # not ours: no-op, no crash

    def test_empty_selection_is_a_noop(self):
        fn, entry, exit_block = self._two_block_fn()
        verify_blocks(fn, [])


class TestUseListIntegrity:
    def test_broken_use_list_detected(self):
        module, fn, block = make_fn(ret=I32)
        builder = IRBuilder(block)
        a = builder.add(builder.i32(1), builder.i32(2))
        b = builder.add(a, builder.i32(3))
        builder.ret(b)
        # Corrupt: remove the use record without clearing the operand.
        a.uses = []
        with pytest.raises(VerificationError, match="use list"):
            verify_function(fn)


class TestUseListPaths:
    """The use-def check scans a short use list in place and folds a
    long one into a memoized set; both must catch the same corruption."""

    def _chain(self, length):
        """``length`` adds that all use one shared constant, then ret."""
        from repro.ir import verifier

        module, fn, block = make_fn(ret=I32, params=[I32])
        shared = ConstantInt(I32, 7)
        builder = IRBuilder(block)
        value = fn.arguments[0]
        for _ in range(length):
            value = builder.add(value, shared)
        builder.ret(value)
        long_list = len(shared.uses) > verifier._SCANNED_USE_LIST
        return fn, block, shared, long_list

    @pytest.mark.parametrize("length,long_list", [(3, False), (40, True)])
    def test_missing_use_record(self, length, long_list):
        fn, block, shared, is_long = self._chain(length)
        assert is_long is long_list
        verify_function(fn)
        victim = block.instructions[length // 2]
        shared.uses = [u for u in shared.uses if u.user is not victim]
        with pytest.raises(VerificationError, match="operand 1 .* use list"):
            verify_function(fn)

    @pytest.mark.parametrize("length,long_list", [(3, False), (40, True)])
    def test_use_naming_right_user_with_wrong_index(self, length, long_list):
        from repro.ir.values import Use

        fn, block, shared, is_long = self._chain(length)
        assert is_long is long_list
        victim = block.instructions[length // 2]
        shared.uses = [
            Use(victim, 0) if u.user is victim else u for u in shared.uses
        ]
        with pytest.raises(VerificationError, match="operand 1 .* use list"):
            verify_function(fn)


class TestSameBlockDominance:
    def _self_loop(self):
        """entry -> loop (a self-loop) -> exit; returns the pieces."""
        module, fn, entry = make_fn(ret=I32, params=[I32])
        loop = fn.add_block("loop")
        exit_block = fn.add_block("exit")
        IRBuilder(entry).br(loop)
        return fn, entry, loop, exit_block

    def test_phi_using_a_later_instruction_of_its_own_block_is_valid(self):
        fn, entry, loop, exit_block = self._self_loop()
        phi = Phi(I32)
        loop.append(phi)
        builder = IRBuilder(loop)
        step = builder.add(phi, builder.i32(1))
        done = builder.icmp("sge", step, fn.arguments[0])
        builder.cond_br(done, exit_block, loop)
        phi.add_incoming(ConstantInt(I32, 0), entry)
        phi.add_incoming(step, loop)
        IRBuilder(exit_block).ret(step)
        verify_function(fn)  # must not raise

    def test_non_phi_use_of_a_later_instruction_of_its_block_is_invalid(self):
        fn, entry, loop, exit_block = self._self_loop()
        phi = Phi(I32)
        loop.append(phi)
        builder = IRBuilder(loop)
        early = builder.add(phi, builder.i32(1))
        late = builder.add(phi, builder.i32(2))
        early.set_operand(0, late)  # the block dominates itself; order does not
        done = builder.icmp("sge", early, fn.arguments[0])
        builder.cond_br(done, exit_block, loop)
        phi.add_incoming(ConstantInt(I32, 0), entry)
        phi.add_incoming(early, loop)
        IRBuilder(exit_block).ret(early)
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_function(fn)

    def test_phi_naming_an_earlier_phi_of_its_block_off_a_back_edge(self):
        fn, entry, loop, exit_block = self._self_loop()
        first = Phi(I32)
        second = Phi(I32)
        loop.append(first)
        loop.append(second)
        builder = IRBuilder(loop)
        step = builder.add(second, builder.i32(1))
        done = builder.icmp("sge", step, fn.arguments[0])
        builder.cond_br(done, exit_block, loop)
        first.add_incoming(ConstantInt(I32, 0), entry)
        first.add_incoming(step, loop)
        second.add_incoming(first, loop)  # valid: loop dominates itself
        second.add_incoming(ConstantInt(I32, 0), entry)
        IRBuilder(exit_block).ret(step)
        verify_function(fn)
        second.set_incoming_value(1, first)  # invalid: loop does not dominate entry
        with pytest.raises(VerificationError, match="does not dominate"):
            verify_function(fn)

    def test_instruction_listed_twice_is_ordered_by_its_first_copy(self):
        module, fn, block = make_fn(ret=I32, params=[I32])
        a = BinaryOp("add", fn.arguments[0], ConstantInt(I32, 1))
        b = BinaryOp("add", a, ConstantInt(I32, 2))
        for inst in (b, a, b):  # corrupt: b appears before and after a
            block.append(inst)
        block.append(Ret(b))
        with pytest.raises(VerificationError) as caught:
            verify_function(fn)
        # Both copies sit at b's first position, before a.
        assert str(caught.value).count("does not dominate") == 2
