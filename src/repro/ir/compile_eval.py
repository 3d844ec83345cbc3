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
* every instruction becomes one closure with its operand slots and its
  entry of the interpreter's shared semantics tables
  (:data:`~repro.ir.interp.INT_BINOP_IMPLS`,
  :data:`~repro.ir.interp.ICMP_IMPLS`, :data:`~repro.ir.interp.CAST_IMPLS`,
  :func:`~repro.ir.interp.value_codec`, ...) pre-bound as locals, plus
  constant-folded GEP offsets;
* block bodies are flattened into **edge records** -- one per CFG edge
  ``pred -> succ`` (plus the entry) -- whose phi moves are pre-resolved
  against that specific predecessor, so taking a branch is an integer
  index into a tuple, not a phi scan.

Constants that depend on machine state (global and function addresses)
are bound once per machine into a register prototype; running a call
copies the prototype and writes the arguments.

The closures only compute.  Dynamic step accounting -- one step, the
budget check, then the ``instruction_hook``, before each body
instruction and terminator executes -- happens in one place, the loop
of :meth:`CompiledFunction.run`; phi moves tick in their own
read-then-tick order, as in the interpreter.

The backend preserves the full interpreter contract byte for byte:
the same shared semantics tables, identical trap messages raised at
identical points in the instruction stream, extern calls through the
inherited :meth:`Machine._call_extern` (same trace, same crc32 default
handlers), the same memory/bounds behaviour via
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
    FLOAT_BINOP_IMPLS,
    INT_BINOP_IMPLS,
    Machine,
    StepLimitExceeded,
    TrapError,
    cast_impl,
    compare_impl,
    constant_value,
    value_codec,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    DataLayout,
    DEFAULT_LAYOUT,
    FloatType,
    IntType,
    StructType,
)
from .values import Argument, ConstantInt, Value

#: The evaluator backends an ``evaluator=`` knob accepts.
EVALUATOR_CHOICES: Tuple[str, ...] = ("interp", "compiled")

#: A compiled instruction: mutates machine/registers.  Body
#: instructions return ``None``; terminators return the next edge id,
#: or -1 to return from the function.
StepFn = Callable[[Machine, list], Optional[int]]


def _trap(message: str) -> StepFn:
    """An op that raises ``TrapError(message)``.

    Unsupported constructs stay runtime traps exactly as in the
    interpreter: a function containing one still compiles, and only
    executing the offending instruction (after its tick) faults.
    """

    def trap(m: Machine, regs: list) -> None:
        raise TrapError(message)

    return trap


def _ret_void(m: Machine, regs: list) -> int:
    return -1


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
    slot.  ``edges[i]`` is ``(block_count_key, phi_run, ops)``, where
    ``ops`` pairs each body instruction and the terminator with its
    closure; execution starts at ``entry_edge`` and follows the edge
    ids the terminators return.
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
        step_limit = machine.step_limit
        eid = self.entry_edge
        while eid >= 0:
            key, phi_run, ops = edges[eid]
            counts[key] = counts.get(key, 0) + 1
            if phi_run is not None:
                phi_run(machine, regs)
            eid = None
            for inst, op in ops:
                # The tick of every body instruction and terminator.
                # ``steps`` lives on the machine: calls recurse into
                # ``run`` with the same machine.
                steps = machine.steps + 1
                machine.steps = steps
                if steps > step_limit:
                    raise StepLimitExceeded(f"exceeded {step_limit} steps")
                hook = machine.instruction_hook
                if hook is not None:
                    hook(inst)
                eid = op(machine, regs)
            if eid is None:
                raise TrapError(f"block %{key[1]} fell through")
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
        body_cache: Dict[int, tuple] = {}
        while pending:
            pred, block = pending.pop()
            eid = edge_ids[(id(pred) if pred is not None else None, id(block))]
            ops = body_cache.get(id(block))
            if ops is None:
                ops = body_cache[id(block)] = self._compile_block(
                    block, edge_id
                )
            key = (fn_name, block.name)
            self.edges[eid] = (key, self._compile_phis(block, pred), ops)

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
    ) -> Tuple[Tuple[Instruction, StepFn], ...]:
        """``(inst, closure)`` for each body instruction, then for the
        terminator; a block without one falls through in :meth:`run`."""
        ops: List[Tuple[Instruction, StepFn]] = []
        for inst in block.instructions[block.first_non_phi_index():]:
            if inst.is_terminator:
                ops.append(
                    (inst, self._compile_terminator(inst, block, edge_id))
                )
                break
            ops.append((inst, self._compile_inst(inst)))
        return tuple(ops)

    def _compile_terminator(
        self, inst: Instruction, block: BasicBlock, edge_id: Callable
    ) -> StepFn:
        if isinstance(inst, Ret):
            if inst.return_value is None:
                return _ret_void
            src = self._operand_slot(inst.return_value)

            def ret_value(m: Machine, regs: list, src=src) -> int:
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
                    cond=cond,
                    true_eid=true_eid,
                    false_eid=false_eid,
                ) -> int:
                    return true_eid if regs[cond] else false_eid

                return br_cond
            target_eid = edge_id(block, inst.successors()[0])

            def br(m: Machine, regs: list, eid=target_eid) -> int:
                return eid

            return br
        if isinstance(inst, Unreachable):
            return _trap("executed unreachable")
        return _trap(f"cannot execute {inst!r}")

    # ----- per-instruction compilers ---------------------------------------

    def _compile_inst(self, inst: Instruction) -> StepFn:
        if isinstance(inst, BinaryOp):
            return self._compile_binop(inst)
        if isinstance(inst, (ICmp, FCmp)):
            return self._compile_compare(inst)
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
        return _trap(f"cannot execute {inst!r}")

    def _compile_binop(self, inst: BinaryOp) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        b = self._operand_slot(inst.operands[1])
        ty = inst.type
        if isinstance(ty, IntType):
            impl = INT_BINOP_IMPLS.get(inst.opcode)
            if impl is None:
                return _trap(f"bad int opcode {inst.opcode}")
            bits = ty.bits

            def int_binop(
                m: Machine, regs: list, dst=dst, a=a, b=b, impl=impl, bits=bits
            ) -> None:
                regs[dst] = impl(bits, regs[a], regs[b])

            return int_binop
        if isinstance(ty, FloatType):
            fimpl = FLOAT_BINOP_IMPLS.get(inst.opcode)
            if fimpl is None:
                return _trap(f"bad float opcode {inst.opcode}")
            bits = ty.bits

            def float_binop(
                m: Machine, regs: list, dst=dst, a=a, b=b, impl=fimpl,
                bits=bits,
            ) -> None:
                regs[dst] = impl(bits, float(regs[a]), float(regs[b]))

            return float_binop
        return _trap(f"binary op on {ty}")

    def _compile_compare(self, inst: Instruction) -> StepFn:
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])
        b = self._operand_slot(inst.operands[1])
        impl, bits = compare_impl(inst)

        def compare(
            m: Machine, regs: list, dst=dst, a=a, b=b, impl=impl, bits=bits
        ) -> None:
            regs[dst] = impl(bits, regs[a], regs[b])

        return compare

    def _compile_select(self, inst: Select) -> StepFn:
        dst = self._slot_for(inst)
        cond = self._operand_slot(inst.operands[0])
        a = self._operand_slot(inst.operands[1])
        b = self._operand_slot(inst.operands[2])

        def select(
            m: Machine, regs: list, dst=dst, cond=cond, a=a, b=b
        ) -> None:
            regs[dst] = regs[a] if regs[cond] else regs[b]

        return select

    def _compile_cast(self, inst: Cast) -> StepFn:
        impl = cast_impl(inst.opcode, inst.operands[0].type)
        if impl is None:
            return _trap(f"bad cast {inst.opcode}")
        dst = self._slot_for(inst)
        a = self._operand_slot(inst.operands[0])

        def cast(
            m: Machine,
            regs: list,
            dst=dst,
            a=a,
            impl=impl,
            src_ty=inst.operands[0].type,
            dst_ty=inst.type,
        ) -> None:
            regs[dst] = impl(src_ty, dst_ty, regs[a])

        return cast

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
                return _trap(f"gep into {ty}")

        if not dynamic:

            def gep_const(
                m: Machine, regs: list, dst=dst, base=base, static=static
            ) -> None:
                regs[dst] = regs[base] + static

            return gep_const
        if len(dynamic) == 1:
            slot, scale = dynamic[0]

            def gep_one(
                m: Machine,
                regs: list,
                dst=dst,
                base=base,
                static=static,
                slot=slot,
                scale=scale,
            ) -> None:
                regs[dst] = regs[base] + static + regs[slot] * scale

            return gep_one
        dynamic_t = tuple(dynamic)

        def gep_many(
            m: Machine,
            regs: list,
            dst=dst,
            base=base,
            static=static,
            dynamic=dynamic_t,
        ) -> None:
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
            dst=dst,
            base=base,
            idx_slots=idx_slots,
            source_type=source_type,
        ) -> None:
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
        size, decode, _ = value_codec(inst.type, self.program.layout)

        def load(
            m: Machine, regs: list, dst=dst, ptr=ptr, size=size, decode=decode
        ) -> None:
            regs[dst] = decode(m.read_bytes(regs[ptr], size))

        return load

    def _compile_store(self, inst: Store) -> StepFn:
        src = self._operand_slot(inst.value)
        ptr = self._operand_slot(inst.pointer)
        encode = value_codec(inst.value.type, self.program.layout).encode

        def store(
            m: Machine, regs: list, src=src, ptr=ptr, encode=encode
        ) -> None:
            m.write_bytes(regs[ptr], encode(regs[src]))

        return store

    def _compile_alloca(self, inst: Alloca) -> StepFn:
        dst = self._slot_for(inst)
        layout = self.program.layout
        size = layout.size_of(inst.allocated_type)
        align = layout.align_of(inst.allocated_type)

        def alloca(
            m: Machine, regs: list, dst=dst, size=size, align=align
        ) -> None:
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
                    callee=callee,
                    arg_slots=arg_slots,
                    void=void,
                    dst=dst,
                ) -> None:
                    result = m._call_extern(
                        callee, [regs[i] for i in arg_slots]
                    )
                    if not void:
                        regs[dst] = result

                return call_extern
            if len(inst.args) != len(callee.arguments):
                # The interpreter's per-call arity check, decided once.
                return _trap(
                    f"@{callee.name} expects {len(callee.arguments)} "
                    f"args, got {len(inst.args)}"
                )
            program = self.program
            cell: List[Optional[CompiledFunction]] = [None]

            def call_direct(
                m: Machine,
                regs: list,
                callee=callee,
                arg_slots=arg_slots,
                void=void,
                dst=dst,
                program=program,
                cell=cell,
            ) -> None:
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
            callee_slot=callee_slot,
            arg_slots=arg_slots,
            void=void,
            dst=dst,
        ) -> None:
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
