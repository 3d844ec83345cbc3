"""Compiling evaluator: lower verified IR once into Python closures.

The reference interpreter (:mod:`repro.ir.interp`) re-dispatches on
every instruction of every run: an ``isinstance`` chain per executed
instruction, an operand-kind test per operand read, a data-layout query
per memory access.  For workloads that execute the same functions many
times -- the difftest oracle, the fig18/fig19 TSVC dynamic counts, the
Sec. V-D overhead study, profile collection for the ``loopaware`` cost
model -- that dispatch dominates.

This module compiles a function *once* into a chain of closures:

* every SSA value (argument, instruction result, constant, global or
  function address) is assigned a **register slot** in a flat list;
  operand lookups become ``regs[i]`` reads with zero name/identity
  resolution at run time;
* every instruction becomes one specialized closure with its operand
  slots, :data:`~repro.ir.interp.INT_BINOP_IMPLS` entry, compare
  predicate, cast widths, memory sizes/formats and constant-folded GEP
  offsets pre-bound as locals;
* block bodies are flattened into **edge records** -- one per CFG edge
  ``pred -> succ`` (plus the entry) -- whose phi moves are pre-resolved
  against that specific predecessor, so taking a branch is an integer
  index into a tuple, not a phi scan.

Constants that depend on machine state (global and function addresses)
are bound once per machine into a register prototype; running a call
copies the prototype and writes the arguments.

The backend preserves the full interpreter contract byte for byte:
wrap-to-width arithmetic through the same shared impls, identical trap
messages raised at identical points in the instruction stream, extern
calls through the inherited :meth:`Machine._call_extern` (same trace,
same crc32 default handlers), the same memory/bounds behaviour via
:meth:`Machine.read_bytes`/:meth:`write_bytes`, and **dynamic step
counts equal to the interpreter's** -- ``Observation`` equality
(including ``steps``) across backends is pinned by the fuzzer parity
suite (``repro.difftest.parity``).

Compilation assumes *verified* IR (dominance, leading phis, one
trailing terminator per block) -- exactly what every caller in the
repository feeds the interpreter.  A module mutated after compilation
needs a fresh :class:`CompiledProgram`, just as a mutated module needs
a fresh :class:`Machine`.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .interp import (
    ExternHandler,
    FLOAT_BINOP_IMPLS,
    INT_BINOP_IMPLS,
    Machine,
    StepLimitExceeded,
    TrapError,
    _as_unsigned,
    _bits_of,
    _value_of,
    _wrap_signed,
    constant_value,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    DataLayout,
    DEFAULT_LAYOUT,
    FloatType,
    IntType,
    PointerType,
    StructType,
    round_float,
)
from .values import Argument, ConstantInt, Value

#: The evaluator backends an ``evaluator=`` knob accepts.
EVALUATOR_CHOICES: Tuple[str, ...] = ("interp", "compiled")

#: A compiled instruction: mutates machine/registers, returns nothing.
StepFn = Callable[[Machine, list], None]
#: A compiled terminator: returns the next edge id, or -1 to return.
TermFn = Callable[[Machine, list], int]

_ICMP_SIGNED = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
}

_ICMP_UNSIGNED = {
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
}

_FCMP_ORDERED = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


class CompiledProgram:
    """Per-module compilation cache, lazily built per function.

    Compile once, run on many machines: closures hold no machine state;
    machine-dependent constants (global/function addresses) bind at
    first run on each machine.  ``layout`` must match the machines the
    program runs on (the default layout is the only one in use).
    """

    def __init__(self, module: Module, layout: DataLayout = DEFAULT_LAYOUT):
        self.module = module
        self.layout = layout
        self._compiled: Dict[int, "CompiledFunction"] = {}

    def compiled(self, fn: Function) -> "CompiledFunction":
        """The compiled form of ``fn``, compiling on first request."""
        cf = self._compiled.get(id(fn))
        if cf is None:
            cf = self._compiled[id(fn)] = CompiledFunction(self, fn)
        return cf


class CompiledFunction:
    """One function lowered to slot-addressed closures.

    Register layout: slot 0 holds the return value; arguments,
    instruction results and distinct constant operands each own one
    slot.  ``edges[i]`` is ``(block_count_key, phi_run, ops, term)``;
    execution starts at ``entry_edge`` and follows the edge ids the
    terminators return.
    """

    def __init__(self, program: CompiledProgram, fn: Function) -> None:
        self.program = program
        self.fn = fn
        self.n_slots = 1  # slot 0: return value
        self._slots: Dict[int, int] = {}
        self._const_bindings: List[Tuple[int, Value]] = []
        self.arg_slots: Tuple[int, ...] = tuple(
            self._slot_for(a) for a in fn.arguments
        )
        self.edges: List[Optional[tuple]] = []
        self.entry_edge = 0
        self._proto: Optional[list] = None
        self._compile()

    # ----- slot assignment --------------------------------------------------

    def _slot_for(self, value: Value) -> int:
        key = id(value)
        slot = self._slots.get(key)
        if slot is None:
            slot = self.n_slots
            self.n_slots += 1
            self._slots[key] = slot
        return slot

    def _operand_slot(self, value: Value) -> int:
        """The register an operand reads from.

        SSA values (arguments, instruction results) share the slot the
        definition writes; constants/globals/function references get a
        dedicated slot filled at machine-bind time.
        """
        key = id(value)
        slot = self._slots.get(key)
        if slot is not None:
            return slot
        slot = self._slot_for(value)
        if not isinstance(value, (Instruction, Argument)):
            self._const_bindings.append((slot, value))
        return slot

    # ----- machine binding --------------------------------------------------

    def bind(self, machine: Machine) -> list:
        """The register prototype: constants resolved against ``machine``.

        Machines allocate globals and function addresses
        deterministically, so every machine of one module+layout
        resolves to the same prototype; :meth:`run` therefore binds
        once per compiled function and shares the result across the
        fresh machines an observation campaign churns through.
        """
        proto = [None] * self.n_slots
        for slot, value in self._const_bindings:
            proto[slot] = constant_value(value, machine)
        return proto

    def run(self, machine: Machine, args: Sequence[object]) -> object:
        """Execute on ``machine`` (callers check arity beforehand)."""
        proto = self._proto
        if proto is None:
            proto = self._proto = self.bind(machine)
        regs = proto.copy()
        arg_slots = self.arg_slots
        for i, value in enumerate(args):
            regs[arg_slots[i]] = value

        edges = self.edges
        counts = machine.block_counts
        eid = self.entry_edge
        while eid >= 0:
            key, phi_run, ops, term = edges[eid]
            counts[key] = counts.get(key, 0) + 1
            if phi_run is not None:
                phi_run(machine, regs)
            for op in ops:
                op(machine, regs)
            eid = term(machine, regs)
        return regs[0]

    # ----- compilation ------------------------------------------------------

    def _compile(self) -> None:
        fn = self.fn
        fn_name = fn.name
        edge_ids: Dict[Tuple[Optional[int], int], int] = {}
        pending: List[Tuple[Optional[BasicBlock], BasicBlock]] = []

        def edge_id(pred: Optional[BasicBlock], succ: BasicBlock) -> int:
            key = (id(pred) if pred is not None else None, id(succ))
            eid = edge_ids.get(key)
            if eid is None:
                eid = len(self.edges)
                edge_ids[key] = eid
                self.edges.append(None)
                pending.append((pred, succ))
            return eid

        self.entry_edge = edge_id(None, fn.entry)
        body_cache: Dict[int, Tuple[tuple, TermFn]] = {}
        while pending:
            pred, block = pending.pop()
            eid = edge_ids[(id(pred) if pred is not None else None, id(block))]
            compiled = body_cache.get(id(block))
            if compiled is None:
                compiled = self._compile_block(block, edge_id)
                body_cache[id(block)] = compiled
            ops, term = compiled
            key = (fn_name, block.name)
            self.edges[eid] = (key, self._compile_phis(block, pred), ops, term)

    def _compile_phis(
        self, block: BasicBlock, pred: Optional[BasicBlock]
    ) -> Optional[StepFn]:
        phis = block.phis()
        if not phis:
            return None
        pred_name = pred.name if pred is not None else "<entry>"
        moves = tuple(
            (
                phi,
                self._slot_for(phi),
                None
                if phi.incoming_for(pred) is None
                else self._operand_slot(phi.incoming_for(pred)),
            )
            for phi in phis
        )

        def run_phis(m: Machine, regs: list) -> None:
            # Same tick discipline as the interpreter: each phi ticks
            # after its incoming is read, and all writes land after all
            # reads (phis evaluate atomically w.r.t. each other).
            values = []
            for phi, _dst, src in moves:
                if src is None:
                    raise TrapError(
                        f"phi {phi.short_name()} has no incoming for "
                        f"%{pred_name}"
                    )
                values.append(regs[src])
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(phi)
            for (_phi, dst, _src), value in zip(moves, values):
                regs[dst] = value

        return run_phis

    def _compile_block(
        self, block: BasicBlock, edge_id: Callable
    ) -> Tuple[tuple, TermFn]:
        ops: List[StepFn] = []
        term: Optional[TermFn] = None
        for inst in block.instructions[block.first_non_phi_index():]:
            if inst.is_terminator:
                term = self._compile_terminator(inst, block, edge_id)
                break
            ops.append(self._compile_inst(inst))
        if term is None:
            block_name = block.name

            def fell_through(m: Machine, regs: list) -> int:
                raise TrapError(f"block %{block_name} fell through")

            term = fell_through
        return tuple(ops), term

    def _compile_terminator(
        self, inst: Instruction, block: BasicBlock, edge_id: Callable
    ) -> TermFn:
        if isinstance(inst, Ret):
            if inst.return_value is None:

                def ret_void(m: Machine, regs: list, _inst=inst) -> int:
                    steps = m.steps + 1
                    m.steps = steps
                    if steps > m.step_limit:
                        raise StepLimitExceeded(
                            f"exceeded {m.step_limit} steps"
                        )
                    hook = m.instruction_hook
                    if hook is not None:
                        hook(_inst)
                    return -1

                return ret_void
            src = self._operand_slot(inst.return_value)

            def ret_value(m: Machine, regs: list, _inst=inst, src=src) -> int:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[0] = regs[src]
                return -1

            return ret_value
        if isinstance(inst, Br):
            if inst.is_conditional:
                cond = self._operand_slot(inst.condition)
                succs = inst.successors()
                true_eid = edge_id(block, succs[0])
                false_eid = edge_id(block, succs[1])

                def br_cond(
                    m: Machine,
                    regs: list,
                    _inst=inst,
                    cond=cond,
                    true_eid=true_eid,
                    false_eid=false_eid,
                ) -> int:
                    steps = m.steps + 1
                    m.steps = steps
                    if steps > m.step_limit:
                        raise StepLimitExceeded(
                            f"exceeded {m.step_limit} steps"
                        )
                    hook = m.instruction_hook
                    if hook is not None:
                        hook(_inst)
                    return true_eid if regs[cond] else false_eid

                return br_cond
            target_eid = edge_id(block, inst.successors()[0])

            def br(m: Machine, regs: list, _inst=inst, eid=target_eid) -> int:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                return eid

            return br
        if isinstance(inst, Unreachable):

            def unreachable(m: Machine, regs: list, _inst=inst) -> int:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                raise TrapError("executed unreachable")

            return unreachable
        return self._raise_term(TrapError(f"cannot execute {inst!r}"), inst)

    def _raise_term(self, error: Exception, inst: Instruction) -> TermFn:
        def raise_it(m: Machine, regs: list, _inst=inst) -> int:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            raise error

        return raise_it

    # ----- per-instruction compilers ---------------------------------------

    def _compile_inst(self, inst: Instruction) -> StepFn:
        if isinstance(inst, BinaryOp):
            return self._compile_binop(inst)
        if isinstance(inst, ICmp):
            return self._compile_icmp(inst)
        if isinstance(inst, FCmp):
            return self._compile_fcmp(inst)
        if isinstance(inst, Select):
            return self._compile_select(inst)
        if isinstance(inst, Cast):
            return self._compile_cast(inst)
        if isinstance(inst, GetElementPtr):
            return self._compile_gep(inst)
        if isinstance(inst, Load):
            return self._compile_load(inst)
        if isinstance(inst, Store):
            return self._compile_store(inst)
        if isinstance(inst, Alloca):
            return self._compile_alloca(inst)
        if isinstance(inst, Call):
            return self._compile_call(inst)
        return self._raise_step(TrapError(f"cannot execute {inst!r}"), inst)

    def _raise_step(self, error: Exception, inst: Instruction) -> StepFn:
        """A closure that ticks, then raises (deferred compile errors).

        Unsupported constructs stay runtime traps exactly as in the
        interpreter: a function containing one still compiles, and only
        executing the offending instruction faults.
        """

        def raise_it(m: Machine, regs: list, _inst=inst) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            raise error

        return raise_it

    def _compile_binop(self, inst: BinaryOp) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        b = self._operand_slot(inst.operands[1])
        ty = inst.type
        if isinstance(ty, IntType):
            impl = INT_BINOP_IMPLS.get(inst.opcode)
            if impl is None:
                return self._raise_step(
                    TrapError(f"bad int opcode {inst.opcode}"), inst
                )
            bits = ty.bits

            def int_binop(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                a=a,
                b=b,
                impl=impl,
                bits=bits,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = impl(bits, regs[a], regs[b])

            return int_binop
        if isinstance(ty, FloatType):
            fimpl = FLOAT_BINOP_IMPLS.get(inst.opcode)
            if fimpl is None:
                return self._raise_step(
                    TrapError(f"bad float opcode {inst.opcode}"), inst
                )
            bits = ty.bits

            def float_binop(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                a=a,
                b=b,
                impl=fimpl,
                bits=bits,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = impl(bits, float(regs[a]), float(regs[b]))

            return float_binop
        return self._raise_step(TrapError(f"binary op on {ty}"), inst)

    def _compile_icmp(self, inst: ICmp) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        b = self._operand_slot(inst.operands[1])
        ty = inst.operands[0].type
        bits = ty.bits if isinstance(ty, IntType) else 64
        pred = inst.predicate
        signed_op = _ICMP_SIGNED.get(pred)
        if signed_op is not None:

            def icmp_signed(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                a=a,
                b=b,
                op=signed_op,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = 1 if op(regs[a], regs[b]) else 0

            return icmp_signed
        unsigned_op = _ICMP_UNSIGNED[pred]

        def icmp_unsigned(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            a=a,
            b=b,
            op=unsigned_op,
            bits=bits,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            mask = (1 << bits) - 1
            regs[dst] = 1 if op(regs[a] & mask, regs[b] & mask) else 0

        return icmp_unsigned

    def _compile_fcmp(self, inst: FCmp) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        b = self._operand_slot(inst.operands[1])
        pred = inst.predicate
        if pred in ("ord", "uno"):
            when_unordered = 1 if pred == "uno" else 0

            def fcmp_order(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                a=a,
                b=b,
                when_unordered=when_unordered,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                x = float(regs[a])
                y = float(regs[b])
                unordered = x != x or y != y
                regs[dst] = when_unordered if unordered else 1 - when_unordered

            return fcmp_order
        ordered_op = _FCMP_ORDERED[pred]

        def fcmp(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            a=a,
            b=b,
            op=ordered_op,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            x = float(regs[a])
            y = float(regs[b])
            if x != x or y != y:
                regs[dst] = 0
            else:
                regs[dst] = 1 if op(x, y) else 0

        return fcmp

    def _compile_select(self, inst: Select) -> StepFn:
        dst = self._slot_for(inst)
        cond = self._operand_slot(inst.operands[0])
        a = self._operand_slot(inst.operands[1])
        b = self._operand_slot(inst.operands[2])

        def select(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            cond=cond,
            a=a,
            b=b,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            regs[dst] = regs[a] if regs[cond] else regs[b]

        return select

    def _compile_cast(self, inst: Cast) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        src = inst.operands[0].type
        dst_ty = inst.type
        op = inst.opcode
        # One converter per cast kind, pre-bound to the involved widths;
        # the shapes mirror eval_cast exactly.
        if op == "trunc":
            bits = dst_ty.bits
            convert = lambda v, bits=bits: _wrap_signed(int(v), bits)
        elif op == "zext":
            sbits, dbits = src.bits, dst_ty.bits
            convert = lambda v, s=sbits, d=dbits: _wrap_signed(
                _as_unsigned(int(v), s), d
            )
        elif op == "sext":
            bits = dst_ty.bits
            convert = lambda v, bits=bits: _wrap_signed(int(v), bits)
        elif op == "bitcast":
            if isinstance(src, PointerType) and isinstance(dst_ty, PointerType):
                convert = lambda v: v
            else:
                # Raw-bit reinterpretation is cold; route through the
                # interpreter's helpers for exact parity.
                def bitcast_step(
                    m: Machine, regs: list, _inst=inst, dst=dst, a=a,
                    src=src, dst_ty=dst_ty,
                ) -> None:
                    steps = m.steps + 1
                    m.steps = steps
                    if steps > m.step_limit:
                        raise StepLimitExceeded(
                            f"exceeded {m.step_limit} steps"
                        )
                    hook = m.instruction_hook
                    if hook is not None:
                        hook(_inst)
                    regs[dst] = _value_of(_bits_of(regs[a], src), dst_ty)

                return bitcast_step
        elif op == "ptrtoint":
            bits = dst_ty.bits
            convert = lambda v, bits=bits: _wrap_signed(int(v), bits)
        elif op == "inttoptr":
            convert = lambda v: _as_unsigned(int(v), 64)
        elif op == "sitofp":
            bits = dst_ty.bits
            convert = lambda v, bits=bits: round_float(float(int(v)), bits)
        elif op == "uitofp":
            sbits, dbits = src.bits, dst_ty.bits
            convert = lambda v, s=sbits, d=dbits: round_float(
                float(_as_unsigned(int(v), s)), d
            )
        elif op in ("fptosi", "fptoui"):
            bits = dst_ty.bits

            def convert(v, bits=bits):
                try:
                    result = int(float(v))
                except (OverflowError, ValueError):
                    result = 0
                return _wrap_signed(result, bits)

        elif op == "fpext":
            convert = float
        elif op == "fptrunc":
            bits = dst_ty.bits
            convert = lambda v, bits=bits: round_float(float(v), bits)
        else:
            return self._raise_step(TrapError(f"bad cast {op}"), inst)

        def cast_step(
            m: Machine, regs: list, _inst=inst, dst=dst, a=a, convert=convert
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            regs[dst] = convert(regs[a])

        return cast_step

    def _compile_gep(self, inst: GetElementPtr) -> StepFn:
        layout = self.program.layout
        dst = self._slot_for(inst)
        base = self._operand_slot(inst.pointer)
        indices = inst.indices
        static = 0
        dynamic: List[Tuple[int, int]] = []  # (slot, scale)
        first = indices[0]
        first_scale = layout.size_of(inst.source_type)
        if isinstance(first, ConstantInt):
            static += int(first.value) * first_scale
        else:
            dynamic.append((self._operand_slot(first), first_scale))
        ty = inst.source_type
        for idx in indices[1:]:
            if isinstance(ty, ArrayType):
                scale = layout.size_of(ty.element)
                if isinstance(idx, ConstantInt):
                    static += int(idx.value) * scale
                else:
                    dynamic.append((self._operand_slot(idx), scale))
                ty = ty.element
            elif isinstance(ty, StructType):
                if not isinstance(idx, ConstantInt):
                    # Dynamic struct index: fall back to the
                    # interpreter's walk (never generated in practice).
                    return self._compile_gep_generic(inst)
                field = int(idx.value)
                static += layout.field_offset(ty, field)
                ty = ty.fields[field]
            else:
                return self._raise_step(TrapError(f"gep into {ty}"), inst)

        if not dynamic:

            def gep_const(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                base=base,
                static=static,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = regs[base] + static

            return gep_const
        if len(dynamic) == 1:
            slot, scale = dynamic[0]

            def gep_one(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                base=base,
                static=static,
                slot=slot,
                scale=scale,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = regs[base] + static + regs[slot] * scale

            return gep_one
        dynamic_t = tuple(dynamic)

        def gep_many(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            base=base,
            static=static,
            dynamic=dynamic_t,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            addr = regs[base] + static
            for slot, scale in dynamic:
                addr += regs[slot] * scale
            regs[dst] = addr

        return gep_many

    def _compile_gep_generic(self, inst: GetElementPtr) -> StepFn:
        dst = self._slot_for(inst)
        base = self._operand_slot(inst.pointer)
        idx_slots = tuple(self._operand_slot(i) for i in inst.indices)
        source_type = inst.source_type

        def gep_generic(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            base=base,
            idx_slots=idx_slots,
            source_type=source_type,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            layout = m.layout
            addr = int(regs[base])
            addr += int(regs[idx_slots[0]]) * layout.size_of(source_type)
            ty = source_type
            for slot in idx_slots[1:]:
                index = int(regs[slot])
                if isinstance(ty, ArrayType):
                    addr += index * layout.size_of(ty.element)
                    ty = ty.element
                elif isinstance(ty, StructType):
                    addr += layout.field_offset(ty, index)
                    ty = ty.fields[index]
                else:
                    raise TrapError(f"gep into {ty}")
            regs[dst] = addr

        return gep_generic

    def _compile_load(self, inst: Load) -> StepFn:
        dst = self._slot_for(inst)
        ptr = self._operand_slot(inst.pointer)
        ty = inst.type
        size = self.program.layout.size_of(ty)
        if isinstance(ty, IntType):
            bits = ty.bits

            def load_int(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                ptr=ptr,
                size=size,
                bits=bits,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                raw = m.read_bytes(regs[ptr], size)
                regs[dst] = _wrap_signed(int.from_bytes(raw, "little"), bits)

            return load_int
        if isinstance(ty, FloatType):
            unpack = struct.Struct("<f" if ty.bits == 32 else "<d").unpack

            def load_float(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                ptr=ptr,
                size=size,
                unpack=unpack,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = unpack(m.read_bytes(regs[ptr], size))[0]

            return load_float
        if isinstance(ty, PointerType):

            def load_ptr(
                m: Machine,
                regs: list,
                _inst=inst,
                dst=dst,
                ptr=ptr,
                size=size,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                regs[dst] = int.from_bytes(
                    m.read_bytes(regs[ptr], size), "little"
                )

            return load_ptr
        # read_value bounds-checks before rejecting the type: preserve
        # that order (an out-of-bounds aggregate load traps as oob).
        error = TrapError(f"cannot load type {ty}")

        def load_bad(
            m: Machine,
            regs: list,
            _inst=inst,
            ptr=ptr,
            size=size,
            error=error,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            m.read_bytes(regs[ptr], size)
            raise error

        return load_bad

    def _compile_store(self, inst: Store) -> StepFn:
        src = self._operand_slot(inst.value)
        ptr = self._operand_slot(inst.pointer)
        ty = inst.value.type
        size = self.program.layout.size_of(ty)
        if isinstance(ty, IntType):
            mask = (1 << (size * 8)) - 1

            def store_int(
                m: Machine,
                regs: list,
                _inst=inst,
                src=src,
                ptr=ptr,
                size=size,
                mask=mask,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                m.write_bytes(
                    regs[ptr],
                    (int(regs[src]) & mask).to_bytes(size, "little"),
                )

            return store_int
        if isinstance(ty, FloatType):
            pack = struct.Struct("<f" if ty.bits == 32 else "<d").pack

            def store_float(
                m: Machine,
                regs: list,
                _inst=inst,
                src=src,
                ptr=ptr,
                pack=pack,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                m.write_bytes(regs[ptr], pack(regs[src]))

            return store_float
        if isinstance(ty, PointerType):

            def store_ptr(
                m: Machine, regs: list, _inst=inst, src=src, ptr=ptr
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                m.write_bytes(
                    regs[ptr], int(regs[src]).to_bytes(8, "little")
                )

            return store_ptr
        return self._raise_step(TrapError(f"cannot store type {ty}"), inst)

    def _compile_alloca(self, inst: Alloca) -> StepFn:
        dst = self._slot_for(inst)
        layout = self.program.layout
        size = layout.size_of(inst.allocated_type)
        align = layout.align_of(inst.allocated_type)

        def alloca(
            m: Machine,
            regs: list,
            _inst=inst,
            dst=dst,
            size=size,
            align=align,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            regs[dst] = m.alloc(size, align)

        return alloca

    def _compile_call(self, inst: Call) -> StepFn:
        arg_slots = tuple(self._operand_slot(a) for a in inst.args)
        void = inst.type.is_void
        dst = 0 if void else self._slot_for(inst)
        callee = inst.callee
        if isinstance(callee, Function):
            if callee.is_declaration:

                def call_extern(
                    m: Machine,
                    regs: list,
                    _inst=inst,
                    callee=callee,
                    arg_slots=arg_slots,
                    void=void,
                    dst=dst,
                ) -> None:
                    steps = m.steps + 1
                    m.steps = steps
                    if steps > m.step_limit:
                        raise StepLimitExceeded(
                            f"exceeded {m.step_limit} steps"
                        )
                    hook = m.instruction_hook
                    if hook is not None:
                        hook(_inst)
                    result = m._call_extern(
                        callee, [regs[i] for i in arg_slots]
                    )
                    if not void:
                        regs[dst] = result

                return call_extern
            if len(inst.args) != len(callee.arguments):
                # The interpreter's per-call arity check, decided once.
                return self._raise_step(
                    TrapError(
                        f"@{callee.name} expects {len(callee.arguments)} "
                        f"args, got {len(inst.args)}"
                    ),
                    inst,
                )
            program = self.program
            cell: List[Optional[CompiledFunction]] = [None]

            def call_direct(
                m: Machine,
                regs: list,
                _inst=inst,
                callee=callee,
                arg_slots=arg_slots,
                void=void,
                dst=dst,
                program=program,
                cell=cell,
            ) -> None:
                steps = m.steps + 1
                m.steps = steps
                if steps > m.step_limit:
                    raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
                hook = m.instruction_hook
                if hook is not None:
                    hook(_inst)
                cf = cell[0]
                if cf is None:
                    # Resolved lazily so mutual/self recursion compiles.
                    cf = cell[0] = program.compiled(callee)
                result = cf.run(m, [regs[i] for i in arg_slots])
                if not void:
                    regs[dst] = result

            return call_direct
        callee_slot = self._operand_slot(callee)

        def call_indirect(
            m: Machine,
            regs: list,
            _inst=inst,
            callee_slot=callee_slot,
            arg_slots=arg_slots,
            void=void,
            dst=dst,
        ) -> None:
            steps = m.steps + 1
            m.steps = steps
            if steps > m.step_limit:
                raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
            hook = m.instruction_hook
            if hook is not None:
                hook(_inst)
            addr = regs[callee_slot]
            target = m._function_addresses.get(addr)
            if target is None:
                raise TrapError(f"indirect call to invalid address {addr}")
            result = m.call(target, [regs[i] for i in arg_slots])
            if not void:
                regs[dst] = result

        return call_indirect


class CompiledMachine(Machine):
    """A :class:`Machine` whose ``call`` runs precompiled closures.

    Shares every piece of observable state with the base class --
    memory, globals, extern handlers and trace, ``block_counts``,
    ``steps``, ``instruction_hook`` -- so everything written against
    ``Machine`` (the oracle, the TSVC init helpers, the i-cache hook)
    works unchanged.
    """

    def __init__(
        self,
        module: Module,
        layout: DataLayout = DEFAULT_LAYOUT,
        step_limit: int = 5_000_000,
        program: Optional[CompiledProgram] = None,
    ) -> None:
        super().__init__(module, layout=layout, step_limit=step_limit)
        if program is None:
            program = CompiledProgram(module, layout=layout)
        else:
            if program.module is not module:
                raise ValueError(
                    "program was compiled from a different module"
                )
            if program.layout is not layout:
                raise ValueError(
                    "program was compiled against a different data layout"
                )
        self.program = program

    def call(self, fn: Function, args: Sequence[object]) -> object:
        """Execute ``fn`` through its compiled form."""
        if fn.is_declaration:
            return self._call_extern(fn, args)
        if len(args) != len(fn.arguments):
            raise TrapError(
                f"@{fn.name} expects {len(fn.arguments)} args, got {len(args)}"
            )
        return self.program.compiled(fn).run(self, args)


def make_machine(
    module: Module,
    evaluator: str = "interp",
    *,
    layout: DataLayout = DEFAULT_LAYOUT,
    step_limit: int = 5_000_000,
    program: Optional[CompiledProgram] = None,
) -> Machine:
    """Build the machine for an ``evaluator`` knob value.

    ``program`` (compiled only) shares one :class:`CompiledProgram`
    across many machines, so repeated observations of one module pay
    compilation once.
    """
    if evaluator == "interp":
        return Machine(module, layout=layout, step_limit=step_limit)
    if evaluator == "compiled":
        return CompiledMachine(
            module, layout=layout, step_limit=step_limit, program=program
        )
    raise ValueError(
        f"unknown evaluator {evaluator!r} (choose from {EVALUATOR_CHOICES})"
    )


def run_function(
    module: Module,
    name: str,
    args: Sequence[object] = (),
    externs: Optional[Dict[str, ExternHandler]] = None,
    step_limit: int = 5_000_000,
    program: Optional[CompiledProgram] = None,
) -> Tuple[object, Machine]:
    """Compiled counterpart of :func:`repro.ir.interp.run_function`."""
    machine = CompiledMachine(module, step_limit=step_limit, program=program)
    for extern_name, handler in (externs or {}).items():
        machine.register_extern(extern_name, handler)
    fn = module.get_function(name)
    if fn is None:
        raise KeyError(f"no function @{name}")
    result = machine.call(fn, args)
    return result, machine
