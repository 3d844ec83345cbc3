"""AST-to-IR lowering for mini-C.

Locals become allocas (promoted to SSA by mem2reg afterwards).  ``for``
and ``while`` loops are *rotated* during lowering -- guard, then a
body+latch block that re-evaluates the condition -- so that simple
counted loops arrive at the canonical single-block shape the unroller,
the reroll baseline, and RoLAG's evaluation all expect.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import Alloca, BinaryOp, Cast, Instruction
from ..ir.interp import TrapError, eval_binop, eval_cast
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import FloatType, FunctionType, I32, IntType
from ..ir.values import (
    Constant,
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    GlobalVariable,
    Value,
    zero_constant_for,
)
from . import ast
from .ctypes import (
    CArray,
    CInt,
    CPtr,
    CStruct,
    CType,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    UINT,
    ULONG,
    VOIDT,
    usual_arithmetic_conversion,
)
from .parser import parse


class LowerError(Exception):
    """Raised when the program cannot be lowered."""


def _literal_ctype(lit: ast.IntLit) -> CInt:
    """The C type of an integer literal (C11 6.4.4.1): the first of its
    candidate types that holds the value.  Suffix ``u`` admits only the
    unsigned types and ``l`` only the long ones; a decimal literal
    without ``u`` takes a signed type, a hex or octal one either."""
    if lit.unsigned:
        candidates = (UINT, ULONG)
    elif lit.decimal:
        candidates = (INT, LONG)
    else:
        candidates = (INT, UINT, LONG, ULONG)
    for ctype in candidates:
        value_bits = ctype.bits - 1 if ctype.signed else ctype.bits
        if (ctype.bits == 64 or not lit.long) and lit.value >> value_bits == 0:
            return ctype
    return ULONG  # past LONG_MAX: unsigned long, as C compilers do


class _ConstantFolder(IRBuilder):
    """The builder a global initializer lowers through.

    Instead of appending an instruction it evaluates it with the
    interpreter's :func:`~repro.ir.interp.eval_binop` or
    :func:`~repro.ir.interp.eval_cast` and returns the result as a
    constant, so an initializer gets the body lowering's literal types,
    conversions and opcodes and stores what the same expression
    computes in a body.  Any other instruction, or one on an operand
    that is not a number, makes the initializer not constant.
    """

    def _insert(self, inst: Instruction, name: str = "") -> Value:
        operands = inst.operands
        inst.drop_all_references()
        ty = inst.type
        if not (
            isinstance(inst, (BinaryOp, Cast))
            and isinstance(ty, (IntType, FloatType))
            and all(isinstance(v, (ConstantInt, ConstantFloat)) for v in operands)
        ):
            raise LowerError(f"cannot fold {inst.opcode}")
        try:
            if isinstance(inst, BinaryOp):
                result = eval_binop(
                    inst.opcode, ty, operands[0].value, operands[1].value
                )
            else:
                result = eval_cast(
                    inst.opcode, operands[0].value, operands[0].type, ty
                )
        except TrapError:
            raise LowerError("division by zero") from None
        if isinstance(ty, IntType):
            return ConstantInt(ty, result)
        return ConstantFloat(ty, result)


TypedValue = Tuple[Value, CType]


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.names: Dict[str, Tuple[Value, CType]] = {}

    def lookup(self, name: str) -> Optional[Tuple[Value, CType]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None

    def define(self, name: str, slot: Value, ctype: CType) -> None:
        self.names[name] = (slot, ctype)


class Lowerer:
    """Lowers one translation unit into a fresh module."""

    def __init__(self, unit: ast.TranslationUnit, module_name: str = "minic"):
        self.unit = unit
        self.module = Module(module_name)
        self.globals: Dict[str, Tuple[GlobalVariable, CType]] = {}
        self.functions: Dict[str, Tuple[Function, CType, List[CType]]] = {}
        # Per-function state:
        self.builder: Optional[IRBuilder] = None
        self.function: Optional[Function] = None
        self.return_type: CType = VOIDT
        self.scope: Optional[_Scope] = None
        self.entry_block: Optional[BasicBlock] = None
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []

    # ----- top level ------------------------------------------------------------

    def run(self) -> Module:
        # Two passes: signatures first so calls can be forward.
        """Lower the whole translation unit; returns the module."""
        for item in self.unit.items:
            if isinstance(item, ast.StructDef):
                struct = CStruct(item.name, list(item.fields))
                self.module.register_struct(struct.to_ir())
            elif isinstance(item, ast.GlobalDef):
                self._lower_global(item)
            elif isinstance(item, ast.FunctionDef):
                self._declare_function(item)
        for item in self.unit.items:
            if isinstance(item, ast.FunctionDef) and item.body is not None:
                self._lower_function(item)
        return self.module

    def _lower_global(self, item: ast.GlobalDef) -> None:
        ir_type = item.ctype.to_ir()
        init: Optional[Constant] = None
        if not item.is_extern:
            if item.init is None:
                init = zero_constant_for(ir_type)
            else:
                init = self._const_init(item.init, item.ctype)
        gv = self.module.add_global(item.name, ir_type, init, item.is_const)
        self.globals[item.name] = (gv, item.ctype)

    def _const_init(self, expr: ast.Expr, ctype: CType) -> Constant:
        if isinstance(expr, ast.InitList):
            if not isinstance(ctype, CArray):
                raise LowerError("initializer list for non-array global")
            elements = []
            for element in expr.elements:
                elements.append(self._const_init(element, ctype.element))
            while len(elements) < ctype.count:
                elements.append(zero_constant_for(ctype.element.to_ir()))
            return ConstantAggregate(ctype.to_ir(), elements)
        # Lower ``expr`` as a body would, converted to the global's type.
        saved = self.builder, self.scope
        self.builder, self.scope = _ConstantFolder(), _Scope()
        try:
            value, vt = self._rvalue(expr)
            value = self._convert(value, vt, ctype)
        except LowerError as error:
            raise LowerError(
                f"global initializer is not a constant expression: {error}"
            ) from None
        finally:
            self.builder, self.scope = saved
        if not isinstance(value, (ConstantInt, ConstantFloat)):
            raise LowerError(f"cannot initialise global of type {ctype}")
        return value

    def _declare_function(self, item: ast.FunctionDef) -> None:
        if item.name in self.functions:
            return
        param_ctypes = [p.ctype for p in item.params]
        fnty = FunctionType(
            item.return_type.to_ir(), [t.to_ir() for t in param_ctypes]
        )
        fn = self.module.add_function(
            item.name, fnty, [p.name or f"arg{i}" for i, p in enumerate(item.params)]
        )
        for attr in item.attributes:
            fn.attributes.add(attr)
        self.functions[item.name] = (fn, item.return_type, param_ctypes)

    # ----- function bodies -------------------------------------------------------

    def _lower_function(self, item: ast.FunctionDef) -> None:
        fn, ret_ct, param_cts = self.functions[item.name]
        self.function = fn
        self.return_type = ret_ct
        self.scope = _Scope()
        self.break_targets = []
        self.continue_targets = []

        entry = fn.add_block("entry")
        self.entry_block = entry
        self.builder = IRBuilder(entry)

        for arg, param, ctype in zip(fn.arguments, item.params, param_cts):
            slot = self._entry_alloca(ctype.to_ir(), f"{param.name}.addr")
            self.builder.store(arg, slot)
            self.scope.define(param.name, slot, ctype)

        self._lower_block(item.body)

        if self.builder.block.terminator is None:
            if ret_ct.is_void:
                self.builder.ret()
            else:
                self.builder.ret(zero_constant_for(ret_ct.to_ir()))

        # Remove empty dead blocks created after returns.
        for block in list(fn.blocks):
            if block.terminator is None:
                if not block.uses and not block.instructions:
                    block.erase_from_parent()
                else:
                    builder = IRBuilder(block)
                    builder.unreachable()

    def _entry_alloca(self, ir_type, name: str) -> Alloca:
        alloca = Alloca(ir_type, self.function.next_name(name))
        index = 0
        for i, inst in enumerate(self.entry_block.instructions):
            if isinstance(inst, Alloca):
                index = i + 1
            else:
                break
        self.entry_block.insert(index, alloca)
        return alloca

    def _new_block(self, name: str) -> BasicBlock:
        if self.function is None:
            raise LowerError("control flow outside a function")
        return self.function.add_block(self.function.next_name(name))

    # ----- statements -----------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        self.scope = _Scope(self.scope)
        for stmt in block.statements:
            self._lower_stmt(stmt)
        self.scope = self.scope.parent

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if self.builder.block.terminator is not None:
            # Unreachable code after return/break: park it in a dead block.
            dead = self._new_block("dead")
            self.builder.position_at_end(dead)

        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._rvalue(stmt.expr)
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_targets:
                raise LowerError("break outside loop")
            self.builder.br(self.break_targets[-1])
        elif isinstance(stmt, ast.Continue):
            if not self.continue_targets:
                raise LowerError("continue outside loop")
            self.builder.br(self.continue_targets[-1])
        else:
            raise LowerError(f"cannot lower statement {stmt!r}")

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        slot = self._entry_alloca(stmt.ctype.to_ir(), stmt.name)
        self.scope.define(stmt.name, slot, stmt.ctype)
        if stmt.init is not None:
            if isinstance(stmt.init, ast.InitList):
                if not isinstance(stmt.ctype, CArray):
                    raise LowerError("initializer list for non-array")
                for i, element in enumerate(stmt.init.elements):
                    value, vt = self._rvalue(element)
                    value = self._convert(value, vt, stmt.ctype.element)
                    gep = self.builder.gep(
                        stmt.ctype.to_ir(),
                        slot,
                        [ConstantInt(IntType(64), 0), ConstantInt(IntType(64), i)],
                    )
                    self.builder.store(value, gep)
            else:
                value, vt = self._rvalue(stmt.init)
                value = self._convert(value, vt, stmt.ctype)
                self.builder.store(value, slot)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = merge_block
        if stmt.otherwise is not None:
            else_block = self._new_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._lower_stmt(stmt.then)
        if self.builder.block.terminator is None:
            self.builder.br(merge_block)

        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self._lower_stmt(stmt.otherwise)
            if self.builder.block.terminator is None:
                self.builder.br(merge_block)

        self.builder.position_at_end(merge_block)

    def _lower_while(self, stmt: ast.While) -> None:
        # Rotated: guard once, then a body block with the exit test at
        # the bottom.
        exit_block = self._new_block("while.end")
        body_block = self._new_block("while.body")
        guard = self._condition(stmt.cond)
        self.builder.cond_br(guard, body_block, exit_block)

        latch_block = self._new_block("while.latch")
        self.break_targets.append(exit_block)
        self.continue_targets.append(latch_block)
        self.builder.position_at_end(body_block)
        self._lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.br(latch_block)
        self.break_targets.pop()
        self.continue_targets.pop()

        self.builder.position_at_end(latch_block)
        again = self._condition(stmt.cond)
        self.builder.cond_br(again, body_block, exit_block)
        self.builder.position_at_end(exit_block)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body_block = self._new_block("do.body")
        exit_block = self._new_block("do.end")
        latch_block = self._new_block("do.latch")
        self.builder.br(body_block)
        self.break_targets.append(exit_block)
        self.continue_targets.append(latch_block)
        self.builder.position_at_end(body_block)
        self._lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.br(latch_block)
        self.break_targets.pop()
        self.continue_targets.pop()
        self.builder.position_at_end(latch_block)
        cond = self._condition(stmt.cond)
        self.builder.cond_br(cond, body_block, exit_block)
        self.builder.position_at_end(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        self.scope = _Scope(self.scope)
        if stmt.init is not None:
            if isinstance(stmt.init, ast.ExprStmt):
                self._rvalue(stmt.init.expr)
            else:
                self._lower_stmt(stmt.init)

        exit_block = self._new_block("for.end")
        body_block = self._new_block("for.body")
        if stmt.cond is not None:
            guard = self._condition(stmt.cond)
            self.builder.cond_br(guard, body_block, exit_block)
        else:
            self.builder.br(body_block)

        latch_block = self._new_block("for.latch")
        self.break_targets.append(exit_block)
        self.continue_targets.append(latch_block)
        self.builder.position_at_end(body_block)
        self._lower_stmt(stmt.body)
        if self.builder.block.terminator is None:
            self.builder.br(latch_block)
        self.break_targets.pop()
        self.continue_targets.pop()

        self.builder.position_at_end(latch_block)
        if stmt.step is not None:
            self._rvalue(stmt.step)
        if stmt.cond is not None:
            again = self._condition(stmt.cond)
            self.builder.cond_br(again, body_block, exit_block)
        else:
            self.builder.br(body_block)
        self.builder.position_at_end(exit_block)
        self.scope = self.scope.parent

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if not self.return_type.is_void:
                raise LowerError("return without value in non-void function")
            self.builder.ret()
            return
        value, vt = self._rvalue(stmt.value)
        value = self._convert(value, vt, self.return_type)
        self.builder.ret(value)

    # ----- conditions (produce i1) ----------------------------------------------

    _CMP_SIGNED = {"<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
    _CMP_UNSIGNED = {"<": "ult", "<=": "ule", ">": "ugt", ">=": "uge"}
    _CMP_FLOAT = {"<": "olt", "<=": "ole", ">": "ogt", ">=": "oge",
                  "==": "oeq", "!=": "one"}

    def _condition(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.Binary) and expr.op in (
            "<", "<=", ">", ">=", "==", "!="
        ):
            return self._comparison(expr)
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            return self._short_circuit(expr)
        if isinstance(expr, ast.Unary) and expr.op == "!":
            inner = self._condition(expr.operand)
            return self.builder.xor(inner, ConstantInt(IntType(1), 1))
        value, ctype = self._rvalue(expr)
        if ctype.is_float:
            return self.builder.fcmp(
                "one", value, ConstantFloat(ctype.to_ir(), 0.0)
            )
        zero = (
            ConstantInt(value.type, 0)
            if value.type.is_integer
            else zero_constant_for(value.type)
        )
        if value.type.is_integer and value.type.bits == 1:
            return value
        return self.builder.icmp("ne", value, zero)

    def _comparison(self, expr: ast.Binary) -> Value:
        lhs, lt = self._rvalue(expr.lhs)
        rhs, rt = self._rvalue(expr.rhs)
        if lt.is_pointer or rt.is_pointer:
            pred = {"==": "eq", "!=": "ne"}.get(
                expr.op, self._CMP_UNSIGNED.get(expr.op)
            )
            if lhs.type is not rhs.type:
                rhs = self.builder.bitcast(rhs, lhs.type)
            return self.builder.icmp(pred, lhs, rhs)
        common = usual_arithmetic_conversion(lt, rt)
        lhs = self._convert(lhs, lt, common)
        rhs = self._convert(rhs, rt, common)
        if common.is_float:
            return self.builder.fcmp(self._CMP_FLOAT[expr.op], lhs, rhs)
        if expr.op in ("==", "!="):
            pred = "eq" if expr.op == "==" else "ne"
        elif common.signed:
            pred = self._CMP_SIGNED[expr.op]
        else:
            pred = self._CMP_UNSIGNED[expr.op]
        return self.builder.icmp(pred, lhs, rhs)

    def _short_circuit(self, expr: ast.Binary) -> Value:
        # a && b  ->  a ? b : false ;  a || b  ->  a ? true : b
        rhs_block = self._new_block("sc.rhs")
        merge_block = self._new_block("sc.end")
        lhs = self._condition(expr.lhs)
        lhs_block = self.builder.block
        if expr.op == "&&":
            self.builder.cond_br(lhs, rhs_block, merge_block)
        else:
            self.builder.cond_br(lhs, merge_block, rhs_block)
        self.builder.position_at_end(rhs_block)
        rhs = self._condition(expr.rhs)
        rhs_end = self.builder.block
        self.builder.br(merge_block)
        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(IntType(1))
        phi.add_incoming(
            ConstantInt(IntType(1), 0 if expr.op == "&&" else 1), lhs_block
        )
        phi.add_incoming(rhs, rhs_end)
        return phi

    # ----- lvalues -----------------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> TypedValue:
        """Address of the expression plus the pointee's C type."""
        if isinstance(expr, ast.NameRef):
            local = self.scope.lookup(expr.name)
            if local is not None:
                return local
            if expr.name in self.globals:
                gv, ctype = self.globals[expr.name]
                return gv, ctype
            raise LowerError(f"unknown identifier {expr.name!r}")
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer, ctype = self._rvalue(expr.operand)
            if not ctype.is_pointer:
                raise LowerError("dereference of non-pointer")
            return pointer, ctype.to
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        raise LowerError(f"expression is not an lvalue: {expr!r}")

    def _index_lvalue(self, expr: ast.Index) -> TypedValue:
        index, it = self._rvalue(expr.index)
        index = self._convert(index, it, LONG)
        base_expr = expr.base
        # Array lvalue: index within the array type.
        if self._is_array_lvalue(base_expr):
            addr, ctype = self._lvalue(base_expr)
            assert isinstance(ctype, CArray)
            gep = self.builder.gep(
                ctype.to_ir(), addr, [ConstantInt(IntType(64), 0), index]
            )
            return gep, ctype.element
        pointer, ctype = self._rvalue(base_expr)
        if not ctype.is_pointer:
            raise LowerError("indexing a non-pointer")
        gep = self.builder.gep(ctype.to.to_ir(), pointer, [index])
        return gep, ctype.to

    def _member_lvalue(self, expr: ast.Member) -> TypedValue:
        if expr.arrow:
            base, ctype = self._rvalue(expr.base)
            if not (ctype.is_pointer and ctype.to.is_struct):
                raise LowerError("-> on non-struct-pointer")
            struct = ctype.to
        else:
            base, struct = self._lvalue(expr.base)
            if not struct.is_struct:
                raise LowerError(". on non-struct")
        index = struct.field_index(expr.name)
        gep = self.builder.gep(
            struct.to_ir(),
            base,
            [ConstantInt(IntType(64), 0), ConstantInt(IntType(64), index)],
        )
        return gep, struct.field_type(expr.name)

    def _is_array_lvalue(self, expr: ast.Expr) -> bool:
        try:
            if isinstance(expr, ast.NameRef):
                local = self.scope.lookup(expr.name)
                if local is not None:
                    return local[1].is_array
                if expr.name in self.globals:
                    return self.globals[expr.name][1].is_array
            if isinstance(expr, ast.Member):
                return self._member_field_is_array(expr)
            if isinstance(expr, ast.Index):
                # element of an array of arrays
                base_is_array = self._is_array_lvalue(expr.base)
                if base_is_array:
                    ctype = self._array_element_type(expr.base)
                    return ctype.is_array if ctype else False
                return False
        except LowerError:
            return False
        return False

    def _member_field_is_array(self, expr: ast.Member) -> bool:
        struct = self._struct_of(expr.base, expr.arrow)
        if struct is None:
            return False
        try:
            return struct.field_type(expr.name).is_array
        except KeyError:
            return False

    def _struct_of(self, expr: ast.Expr, arrow: bool) -> Optional[CStruct]:
        if arrow:
            ctype = self._static_type(expr)
            if ctype and ctype.is_pointer and ctype.to.is_struct:
                return ctype.to
            return None
        ctype = self._static_type(expr)
        if ctype and ctype.is_struct:
            return ctype
        return None

    def _static_type(self, expr: ast.Expr) -> Optional[CType]:
        """Best-effort type of an expression without emitting code."""
        if isinstance(expr, ast.NameRef):
            local = self.scope.lookup(expr.name)
            if local is not None:
                return local[1]
            if expr.name in self.globals:
                return self.globals[expr.name][1]
            return None
        if isinstance(expr, ast.Member):
            struct = self._struct_of(expr.base, expr.arrow)
            if struct is None:
                return None
            try:
                return struct.field_type(expr.name)
            except KeyError:
                return None
        if isinstance(expr, ast.Index):
            base = self._static_type(expr.base)
            if base is None:
                return None
            if base.is_array:
                return base.element
            if base.is_pointer:
                return base.to
            return None
        if isinstance(expr, ast.Unary) and expr.op == "*":
            base = self._static_type(expr.operand)
            if base is not None and base.is_pointer:
                return base.to
            return None
        return None

    def _array_element_type(self, expr: ast.Expr) -> Optional[CType]:
        ctype = self._static_type(expr)
        if ctype is not None and ctype.is_array:
            return ctype.element
        return None

    # ----- rvalues -----------------------------------------------------------------

    def _rvalue(self, expr: ast.Expr) -> TypedValue:
        if isinstance(expr, ast.IntLit):
            ctype = _literal_ctype(expr)
            return ConstantInt(ctype.to_ir(), expr.value), ctype
        if isinstance(expr, ast.FloatLit):
            if expr.is_float32:
                return ConstantFloat(FLOAT.to_ir(), expr.value), FLOAT
            return ConstantFloat(DOUBLE.to_ir(), expr.value), DOUBLE
        if isinstance(expr, (ast.NameRef, ast.Index, ast.Member)) or (
            isinstance(expr, ast.Unary) and expr.op == "*"
        ):
            addr, ctype = self._lvalue(expr)
            if ctype.is_array:
                # Arrays decay to a pointer to their first element.
                gep = self.builder.gep(
                    ctype.to_ir(),
                    addr,
                    [ConstantInt(IntType(64), 0), ConstantInt(IntType(64), 0)],
                )
                return gep, CPtr(ctype.element)
            if ctype.is_struct:
                raise LowerError("struct values are not supported; use pointers")
            return self.builder.load(ctype.to_ir(), addr), ctype
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, ast.CastExpr):
            value, vt = self._rvalue(expr.operand)
            return self._convert(value, vt, expr.to), expr.to
        if isinstance(expr, (ast.PreIncDec, ast.PostIncDec)):
            return self._lower_incdec(expr)
        raise LowerError(f"cannot lower expression {expr!r}")

    def _lower_unary(self, expr: ast.Unary) -> TypedValue:
        if expr.op == "&":
            addr, ctype = self._lvalue(expr.operand)
            if ctype.is_array:
                return addr, CPtr(ctype)
            return addr, CPtr(ctype)
        if expr.op == "-":
            value, ctype = self._rvalue(expr.operand)
            if ctype.is_float:
                # -0.0 - x is exact for every x; 0.0 - 0.0 would be +0.0.
                zero = ConstantFloat(ctype.to_ir(), -0.0)
                return self.builder.binop("fsub", zero, value), ctype
            common = usual_arithmetic_conversion(ctype, INT)
            value = self._convert(value, ctype, common)
            zero = ConstantInt(common.to_ir(), 0)
            return self.builder.sub(zero, value), common
        if expr.op == "~":
            value, ctype = self._rvalue(expr.operand)
            common = usual_arithmetic_conversion(ctype, INT)
            value = self._convert(value, ctype, common)
            minus1 = ConstantInt(common.to_ir(), -1)
            return self.builder.xor(value, minus1), common
        if expr.op == "!":
            cond = self._condition(expr.operand)
            flipped = self.builder.xor(cond, ConstantInt(IntType(1), 1))
            return self.builder.zext(flipped, I32), INT
        raise LowerError(f"unsupported unary {expr.op!r}")

    _BIN_INT = {
        "+": "add", "-": "sub", "*": "mul",
        "&": "and", "|": "or", "^": "xor", "<<": "shl",
    }
    _BIN_FLOAT = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv"}

    def _lower_binary(self, expr: ast.Binary) -> TypedValue:
        op = expr.op
        if op == ",":
            self._rvalue(expr.lhs)
            return self._rvalue(expr.rhs)
        if op in ("&&", "||"):
            cond = self._short_circuit(expr)
            return self.builder.zext(cond, I32), INT
        if op in ("<", "<=", ">", ">=", "==", "!="):
            cond = self._comparison(expr)
            return self.builder.zext(cond, I32), INT

        lhs, lt = self._rvalue(expr.lhs)
        rhs, rt = self._rvalue(expr.rhs)

        # Pointer arithmetic.
        if lt.is_pointer and rt.is_integer and op in ("+", "-"):
            index = self._convert(rhs, rt, LONG)
            if op == "-":
                index = self.builder.sub(ConstantInt(IntType(64), 0), index)
            gep = self.builder.gep(lt.to.to_ir(), lhs, [index])
            return gep, lt
        if rt.is_pointer and lt.is_integer and op == "+":
            index = self._convert(lhs, lt, LONG)
            gep = self.builder.gep(rt.to.to_ir(), rhs, [index])
            return gep, rt

        common = usual_arithmetic_conversion(lt, rt)
        lhs = self._convert(lhs, lt, common)
        rhs = self._convert(rhs, rt, common)
        if common.is_float:
            opcode = self._BIN_FLOAT.get(op)
            if opcode is None:
                raise LowerError(f"invalid float op {op!r}")
            return self.builder.binop(opcode, lhs, rhs), common
        if op == "/":
            opcode = "sdiv" if common.signed else "udiv"
        elif op == "%":
            opcode = "srem" if common.signed else "urem"
        elif op == ">>":
            opcode = "ashr" if common.signed else "lshr"
        else:
            opcode = self._BIN_INT.get(op)
            if opcode is None:
                raise LowerError(f"invalid int op {op!r}")
        return self.builder.binop(opcode, lhs, rhs), common

    def _lower_assign(self, expr: ast.Assign) -> TypedValue:
        addr, ctype = self._lvalue(expr.target)
        if expr.op == "=":
            value, vt = self._rvalue(expr.value)
            value = self._convert(value, vt, ctype)
            self.builder.store(value, addr)
            return value, ctype
        # Compound assignment: load, compute, store.
        binop = expr.op[:-1]
        synthetic = ast.Binary(binop, expr.target, expr.value)
        value, vt = self._lower_binary(synthetic)
        value = self._convert(value, vt, ctype)
        # _lower_binary re-evaluated the lvalue; acceptable for the
        # side-effect-free targets mini-C supports.
        self.builder.store(value, addr)
        return value, ctype

    def _lower_conditional(self, expr: ast.Conditional) -> TypedValue:
        cond = self._condition(expr.cond)
        then_block = self._new_block("cond.then")
        else_block = self._new_block("cond.else")
        merge_block = self._new_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        tv, tt = self._rvalue(expr.if_true)
        then_end = self.builder.block

        self.builder.position_at_end(else_block)
        fv, ft = self._rvalue(expr.if_false)
        else_end = self.builder.block

        if tt.is_arithmetic and ft.is_arithmetic:
            common = usual_arithmetic_conversion(tt, ft)
        else:
            common = tt
        self.builder.position_at_end(then_end)
        tv = self._convert(tv, tt, common)
        self.builder.br(merge_block)
        self.builder.position_at_end(else_end)
        fv = self._convert(fv, ft, common)
        self.builder.br(merge_block)

        self.builder.position_at_end(merge_block)
        phi = self.builder.phi(common.to_ir())
        phi.add_incoming(tv, then_end)
        phi.add_incoming(fv, else_end)
        return phi, common

    def _lower_call(self, expr: ast.CallExpr) -> TypedValue:
        info = self.functions.get(expr.callee)
        if info is None:
            # Implicit declaration: infer the signature from this call.
            arg_values = [self._rvalue(a) for a in expr.args]
            param_cts = [t for _, t in arg_values]
            fnty = FunctionType(I32, [t.to_ir() for t in param_cts])
            fn = self.module.add_function(expr.callee, fnty)
            self.functions[expr.callee] = (fn, INT, param_cts)
            call = self.builder.call(fn, [v for v, _ in arg_values])
            return call, INT
        fn, ret_ct, param_cts = info
        args: List[Value] = []
        for i, arg in enumerate(expr.args):
            value, vt = self._rvalue(arg)
            if i < len(param_cts):
                value = self._convert(value, vt, param_cts[i])
            args.append(value)
        call = self.builder.call(fn, args)
        return call, ret_ct

    def _lower_incdec(self, expr) -> TypedValue:
        addr, ctype = self._lvalue(expr.target)
        old = self.builder.load(ctype.to_ir(), addr)
        if ctype.is_pointer:
            delta = 1 if expr.op == "++" else -1
            new = self.builder.gep(
                ctype.to.to_ir(), old, [ConstantInt(IntType(64), delta)]
            )
        elif ctype.is_float:
            one = ConstantFloat(ctype.to_ir(), 1.0)
            opcode = "fadd" if expr.op == "++" else "fsub"
            new = self.builder.binop(opcode, old, one)
        else:
            one = ConstantInt(ctype.to_ir(), 1)
            opcode = "add" if expr.op == "++" else "sub"
            new = self.builder.binop(opcode, old, one)
        self.builder.store(new, addr)
        if isinstance(expr, ast.PostIncDec):
            return old, ctype
        return new, ctype

    # ----- conversions ---------------------------------------------------------------

    def _convert(self, value: Value, src: CType, dst: CType) -> Value:
        if src == dst or src.to_ir() is dst.to_ir() and not (
            src.is_integer and dst.is_integer and src.signed != dst.signed
        ):
            if src.is_integer and dst.is_integer and src.signed != dst.signed:
                return value  # same representation
            if src.to_ir() is dst.to_ir():
                return value
        if src.is_integer and dst.is_integer:
            if src.bits == dst.bits:
                return value
            if src.bits > dst.bits:
                return self.builder.trunc(value, dst.to_ir())
            if src.signed:
                return self.builder.sext(value, dst.to_ir())
            return self.builder.zext(value, dst.to_ir())
        if src.is_integer and dst.is_float:
            opcode = "sitofp" if src.signed else "uitofp"
            return self.builder.cast(opcode, value, dst.to_ir())
        if src.is_float and dst.is_integer:
            opcode = "fptosi" if dst.signed else "fptoui"
            return self.builder.cast(opcode, value, dst.to_ir())
        if src.is_float and dst.is_float:
            if src.bits == dst.bits:
                return value
            opcode = "fpext" if dst.bits > src.bits else "fptrunc"
            return self.builder.cast(opcode, value, dst.to_ir())
        if src.is_pointer and dst.is_pointer:
            if value.type is dst.to_ir():
                return value
            return self.builder.bitcast(value, dst.to_ir())
        if src.is_pointer and dst.is_integer:
            return self.builder.cast("ptrtoint", value, dst.to_ir())
        if src.is_integer and dst.is_pointer:
            return self.builder.cast("inttoptr", value, dst.to_ir())
        if src.is_array and dst.is_pointer:
            return value  # already decayed
        raise LowerError(f"cannot convert {src} to {dst}")


def lower(unit: ast.TranslationUnit, module_name: str = "minic") -> Module:
    """Lower a parsed translation unit to IR (no optimization)."""
    return Lowerer(unit, module_name).run()


def compile_c(
    source: str, module_name: str = "minic", optimize: bool = True
) -> Module:
    """Front door: mini-C source text to (optionally cleaned-up) IR."""
    module = lower(parse(source), module_name)
    from ..ir.verifier import verify_module

    verify_module(module)
    if optimize:
        from ..transforms.pass_manager import default_cleanup_pipeline

        default_cleanup_pipeline().run(module)
        verify_module(module)
    # Name later passes as if the module had been parsed from its text.
    for fn in module.functions:
        fn.reset_names()
    return module
