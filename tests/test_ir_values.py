"""Unit tests for values, use-def chains, and instructions."""

import pytest

from repro.ir import (
    Alloca,
    BasicBlock,
    BinaryOp,
    Br,
    Call,
    ConstantFloat,
    ConstantInt,
    F32,
    Function,
    FunctionType,
    GetElementPtr,
    I1,
    I32,
    I64,
    ICmp,
    IRBuilder,
    Load,
    Module,
    Phi,
    Ret,
    Store,
    UndefValue,
    VOID,
    const_int,
    neutral_element,
    ptr,
)


def make_fn(ret=VOID, params=(), name="f"):
    m = Module()
    fn = m.add_function(name, FunctionType(ret, list(params)))
    block = fn.add_block("entry")
    return m, fn, block


class TestConstants:
    def test_int_wrapping(self):
        assert ConstantInt(I32, 2**31).value == -(2**31)
        assert ConstantInt(I32, -1).value == -1
        assert ConstantInt(I32, 2**32 - 1).value == -1

    def test_i1(self):
        assert ConstantInt(I1, 1).value == 1
        assert ConstantInt(I1, 2).value == 0

    def test_equality(self):
        assert ConstantInt(I32, 7) == ConstantInt(I32, 7)
        assert ConstantInt(I32, 7) != ConstantInt(I64, 7)
        assert ConstantFloat(F32, 1.5) == ConstantFloat(F32, 1.5)
        assert hash(ConstantInt(I32, 7)) == hash(ConstantInt(I32, 7))

    def test_nan_equality(self):
        nan = float("nan")
        assert ConstantFloat(F32, nan) == ConstantFloat(F32, nan)
        # Two distinct NaN objects are still one constant.
        a, b = ConstantFloat(F32, float("nan")), ConstantFloat(F32, -nan)
        assert a == b and hash(a) == hash(b)

    def test_signed_zeros_differ(self):
        assert ConstantFloat(F32, -0.0) != ConstantFloat(F32, 0.0)
        assert ConstantFloat(F32, -0.0) == ConstantFloat(F32, -0.0)
        assert hash(ConstantFloat(F32, -0.0)) == hash(ConstantFloat(F32, -0.0))
        assert len({ConstantFloat(F32, -0.0), ConstantFloat(F32, 0.0)}) == 2

    def test_neutral_elements(self):
        assert neutral_element("add", I32).value == 0
        assert neutral_element("mul", I32).value == 1
        assert neutral_element("and", I32).value == -1
        assert neutral_element("or", I32).value == 0
        assert neutral_element("xor", I32).value == 0
        assert neutral_element("fadd", F32).value == 0.0
        assert neutral_element("fmul", F32).value == 1.0
        assert neutral_element("icmp", I32) is None


class TestUseDefChains:
    def test_operand_use_tracking(self):
        a = ConstantInt(I32, 1)
        b = ConstantInt(I32, 2)
        add = BinaryOp("add", a, b)
        assert len(a.uses) == 1
        assert a.uses[0].user is add
        assert a.uses[0].index == 0
        assert b.uses[0].index == 1

    def test_same_value_in_two_slots(self):
        a = ConstantInt(I32, 1)
        add = BinaryOp("add", a, a)
        assert len(a.uses) == 2
        assert {u.index for u in a.uses} == {0, 1}

    def test_set_operand_updates_uses(self):
        a = ConstantInt(I32, 1)
        b = ConstantInt(I32, 2)
        c = ConstantInt(I32, 3)
        add = BinaryOp("add", a, b)
        add.set_operand(0, c)
        assert not a.uses
        assert c.uses[0].user is add
        assert add.operands[0] is c

    def test_replace_all_uses_with(self):
        a = ConstantInt(I32, 1)
        b = ConstantInt(I32, 2)
        add1 = BinaryOp("add", a, a)
        add2 = BinaryOp("add", a, b)
        a.replace_all_uses_with(b)
        assert not a.uses
        assert add1.operands == [b, b]
        assert add2.operands == [b, b]

    def test_drop_all_references(self):
        a = ConstantInt(I32, 1)
        add = BinaryOp("add", a, a)
        add.drop_all_references()
        assert not a.uses
        assert add.operands == []

    def test_users_deduplicated(self):
        a = ConstantInt(I32, 1)
        add = BinaryOp("add", a, a)
        assert a.users == [add]


class TestInstructions:
    def test_invalid_opcode_rejected(self):
        a = ConstantInt(I32, 1)
        with pytest.raises(ValueError):
            BinaryOp("bogus", a, a)
        with pytest.raises(ValueError):
            ICmp("bogus", a, a)

    def test_commutativity_classification(self):
        a = ConstantInt(I32, 1)
        assert BinaryOp("add", a, a).is_commutative
        assert BinaryOp("mul", a, a).is_commutative
        assert not BinaryOp("sub", a, a).is_commutative
        assert BinaryOp("add", a, a).is_associative
        assert not BinaryOp("shl", a, a).is_associative

    def test_gep_result_types(self):
        from repro.ir import ArrayType, StructType

        m, fn, block = make_fn(params=[ptr(ArrayType(I32, 8))])
        arr_ptr = fn.arguments[0]
        gep = GetElementPtr(
            ArrayType(I32, 8),
            arr_ptr,
            [ConstantInt(I64, 0), ConstantInt(I64, 3)],
        )
        assert gep.type is ptr(I32)

        s = StructType([I32, F32], "tv_gep_struct")
        gep2 = GetElementPtr(
            s, UndefValue(ptr(s)), [ConstantInt(I64, 0), ConstantInt(I64, 1)]
        )
        assert gep2.type is ptr(F32)

    def test_gep_struct_index_must_be_constant(self):
        from repro.ir import StructType

        s = StructType([I32, F32], "tv_gep_struct2")
        m, fn, block = make_fn(params=[ptr(s), I64])
        with pytest.raises(ValueError):
            GetElementPtr(s, fn.arguments[0], [ConstantInt(I64, 0), fn.arguments[1]])

    def test_phi_incoming(self):
        m, fn, entry = make_fn()
        other = fn.add_block("other")
        phi = Phi(I32)
        phi.add_incoming(ConstantInt(I32, 1), entry)
        phi.add_incoming(ConstantInt(I32, 2), other)
        assert phi.incoming_for(entry).value == 1
        assert phi.incoming_for(other).value == 2
        phi.remove_incoming(entry)
        assert phi.incoming_for(entry) is None
        assert len(phi.incoming) == 1

    def test_side_effect_classification(self):
        a = ConstantInt(I32, 1)
        add = BinaryOp("add", a, a)
        assert not add.has_side_effects()
        m, fn, block = make_fn(params=[ptr(I32)])
        store = Store(a, fn.arguments[0])
        assert store.has_side_effects()
        load = Load(I32, fn.arguments[0])
        assert load.may_read_memory()
        assert not load.may_write_memory()

    def test_call_readnone_attribute(self):
        m = Module()
        callee = m.add_function("pure", FunctionType(I32, [I32]))
        callee.attributes.add("readnone")
        call = Call(callee, [ConstantInt(I32, 1)])
        assert not call.may_read_memory()
        assert not call.may_write_memory()

    def test_clone_has_same_operands_no_parent(self):
        a = ConstantInt(I32, 1)
        b = ConstantInt(I32, 2)
        add = BinaryOp("add", a, b)
        clone = add.clone()
        assert clone is not add
        assert clone.opcode == "add"
        assert clone.operands == [a, b]
        assert clone.parent is None

    def test_erase_from_parent(self):
        m, fn, block = make_fn()
        builder = IRBuilder(block)
        x = builder.add(builder.i32(1), builder.i32(2))
        assert x.parent is block
        x.erase_from_parent()
        assert x.parent is None
        assert x not in block.instructions

    def test_move_before(self):
        m, fn, block = make_fn()
        builder = IRBuilder(block)
        x = builder.add(builder.i32(1), builder.i32(2))
        y = builder.add(builder.i32(3), builder.i32(4))
        y.move_before(x)
        assert block.instructions == [y, x]


class TestBlocksAndFunctions:
    def test_successors_predecessors(self):
        m, fn, entry = make_fn()
        loop = fn.add_block("loop")
        exit_block = fn.add_block("exit")
        IRBuilder(entry).br(loop)
        b = IRBuilder(loop)
        cond = b.icmp("eq", b.i32(0), b.i32(0))
        b.cond_br(cond, loop, exit_block)
        IRBuilder(exit_block).ret()
        assert entry.successors() == [loop]
        assert set(id(p) for p in loop.predecessors()) == {id(entry), id(loop)}
        assert exit_block.predecessors() == [loop]

    def test_phis_prefix(self):
        m, fn, entry = make_fn()
        phi = Phi(I32)
        entry.insert(0, phi)
        builder = IRBuilder(entry)
        builder.add(builder.i32(1), builder.i32(2))
        assert entry.phis() == [phi]
        assert entry.first_non_phi_index() == 1

    def test_module_lookup(self):
        m = Module()
        fn = m.add_function("foo", FunctionType(VOID, []))
        gv = m.add_global("g", I32)
        assert m.get_function("foo") is fn
        assert m.get_function("bar") is None
        assert m.get_global("g") is gv
        assert m.unique_global_name("g") != "g"
        assert m.unique_global_name("fresh") == "fresh"
