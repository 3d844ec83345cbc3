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
  entry of the interpreter's shared semantics, width bound
  (:func:`~repro.ir.interp.int_binop_impl`,
  :func:`~repro.ir.interp.float_binop_impl`,
  :func:`~repro.ir.interp.cast_impl_at`, the compare tables) or its
  type's :func:`~repro.ir.interp.value_codec` accessor, pre-bound as
  locals, plus constant-folded GEP offsets;
* block bodies are flattened into **edge records** -- one per CFG edge
  ``pred -> succ`` (plus the entry) -- whose phi moves are pre-resolved
  against that specific predecessor, so taking a branch is an integer
  index into a tuple, not a phi scan.

Constants that depend on machine state (global and function addresses)
are bound once per machine into a register prototype; running a call
copies the prototype and writes the arguments.

The closures only compute.  Dynamic step accounting happens in one
place, the loop of :meth:`CompiledFunction.run`, under one rule.  An
edge whose block holds no call, cannot cross the step budget and runs
with no ``instruction_hook`` ticks whole: ``steps`` grows by its phis
plus instructions at once, its phi moves land together, and its body
runs as *fast ops*, where a GEP used only as the address of loads and
stores in its block is folded into them.  A fault inside such a block
rewinds ``steps`` to the faulting instruction's own tick.  Every other
edge ticks one instruction at a time, as the interpreter does: one
step, the budget check, then the hook, before each phi (after its
incoming is read), body instruction and terminator.  Either way a run
ends with the interpreter's step count, since nothing can read
``steps`` inside a block that ticks whole.

The backend preserves the full interpreter contract byte for byte:
the same shared semantics, identical trap messages raised at
identical points in the instruction stream, extern calls through the
inherited :meth:`Machine._call_extern` (same trace, same crc32 default
handlers), the same memory/bounds behaviour through the same codec
accessors, and **dynamic step counts equal to the interpreter's** --
``Observation`` equality (including ``steps``) across backends is
pinned by ``tests/test_step_accounting.py`` and the fuzzer parity
suite (``repro.difftest.parity``).

Compilation assumes *verified* IR (dominance, leading phis, one
trailing terminator per block) -- exactly what every caller in the
repository feeds the interpreter.  A module mutated after compilation
needs a fresh :class:`CompiledProgram`, just as a mutated module needs
a fresh :class:`Machine`.
"""

from __future__ import annotations

from functools import partial
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
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from .interp import (
    Machine,
    StepLimitExceeded,
    TrapError,
    ValueCodec,
    cast_impl_at,
    compare_impl,
    constant_value,
    float_binop_impl,
    int_binop_impl,
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
    Type,
)
from .values import Argument, ConstantFloat, ConstantInt, Value

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


def _tick_phis(
    rows: Tuple[Tuple[Phi, int, Optional[int]], ...],
    pred_name: str,
    m: Machine,
    regs: list,
) -> None:
    """Enter a block from ``%pred_name`` tick by tick: ``rows`` holds
    ``(phi, dst slot, incoming slot or None)``.

    Same tick discipline as the interpreter: each phi ticks after its
    incoming is read, and all writes land after all reads (phis
    evaluate atomically w.r.t. each other).
    """
    values = []
    for phi, _dst, src in rows:
        if src is None:
            raise TrapError(
                f"phi {phi.short_name()} has no incoming for %{pred_name}"
            )
        values.append(regs[src])
        steps = m.steps + 1
        m.steps = steps
        if steps > m.step_limit:
            raise StepLimitExceeded(f"exceeded {m.step_limit} steps")
        hook = m.instruction_hook
        if hook is not None:
            hook(phi)
    for (_phi, dst, _src), value in zip(rows, values):
        regs[dst] = value


def _phi_moves(
    dsts: Tuple[int, ...], srcs: Tuple[int, ...]
) -> Callable[[list], None]:
    """Copy ``regs[srcs[i]]`` to ``regs[dsts[i]]`` for every ``i``, all
    reads before any write (phis evaluate atomically)."""
    if len(dsts) == 1:
        (d,), (s,) = dsts, srcs

        def move_one(regs: list) -> None:
            regs[d] = regs[s]

        return move_one
    pairs = tuple(zip(dsts, srcs))

    def move_many(regs: list) -> None:
        values = [regs[s] for _d, s in pairs]
        for (d, _s), value in zip(pairs, values):
            regs[d] = value

    return move_many


class _CompiledBody:
    """One block, compiled once for every edge that enters it.

    ``fast_ops`` run the body and terminator of a block that may tick
    whole (it has a terminator and no call), with GEP addresses folded
    into the accesses that use them; ``fault_ticks[i]`` counts the
    block's phis and instructions through the one ``fast_ops[i]`` can
    fault at.  Every op of a block is a distinct closure, so an op
    identifies its position.  ``ops`` holds one closure per
    instruction of ``insts`` (then the terminator; a block without one
    falls through in :meth:`CompiledFunction.run`) for the tick-by-tick
    path: compiled up front for a block that never ticks whole, and on
    first use otherwise.
    """

    __slots__ = (
        "phis", "insts", "terminator", "fast_ops", "fault_ticks", "ops",
    )

    def __init__(
        self,
        phis: Tuple[Phi, ...],
        insts: Tuple[Instruction, ...],
        terminator: Optional[StepFn],
    ) -> None:
        self.phis = phis
        self.insts = insts
        self.terminator = terminator
        self.fast_ops: Optional[Tuple[StepFn, ...]] = None
        self.fault_ticks: Tuple[int, ...] = ()
        self.ops: Optional[Tuple[StepFn, ...]] = None


def _canonical(value: Value) -> bool:
    """Whether ``value`` holds its type's canonical Python form whenever
    it is read -- a ``float`` for a float type, an ``int`` wrapped to
    its width for an integer type: a float constant, or a load,
    arithmetic result, compare or cast (the shared semantics round or
    wrap each of those).  Arguments, phis, selects and call results
    carry whatever their source held."""
    kind = type(value)
    return kind is ConstantFloat or (
        kind in _CANONICAL_PRODUCERS
        and isinstance(value.type, (IntType, FloatType))
    )


_CANONICAL_PRODUCERS = (Load, BinaryOp, Cast, ICmp, FCmp)


def _only_addresses_in(value: Value, block: BasicBlock) -> bool:
    """Whether every use of ``value`` is the address of a load or
    store in ``block``."""
    for use in value.uses:
        user = use.user
        kind = type(user)
        if user.parent is not block or not (
            kind is Load or (kind is Store and use.index == 1)
        ):
            return False
    return True


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
        # Layout queries memoized per type object (types are interned).
        self._sizes: Dict[Type, int] = {}
        self._codecs: Dict[Type, ValueCodec] = {}

    def compiled(self, fn: Function) -> "CompiledFunction":
        """The compiled form of ``fn``, compiling on first request."""
        cf = self._compiled.get(id(fn))
        if cf is None:
            cf = self._compiled[id(fn)] = CompiledFunction(self, fn)
        return cf

    def size_of(self, ty: Type) -> int:
        """``layout.size_of(ty)``, memoized."""
        size = self._sizes.get(ty)
        if size is None:
            size = self._sizes[ty] = self.layout.size_of(ty)
        return size

    def codec(self, ty: Type) -> ValueCodec:
        """:func:`~repro.ir.interp.value_codec` of ``ty``, memoized."""
        codec = self._codecs.get(ty)
        if codec is None:
            codec = self._codecs[ty] = value_codec(ty, self.layout)
        return codec


class CompiledFunction:
    """One function lowered to slot-addressed closures.

    Register layout: slot 0 holds the return value; arguments,
    instruction results and distinct constant operands each own one
    slot.  ``edges[i]`` is the record of one CFG edge (see
    :meth:`_compile`); execution starts at ``entry_edge`` and follows
    the edge ids the terminators return.
    """

    def __init__(self, program: CompiledProgram, fn: Function) -> None:
        self.program = program
        self.fn = fn
        # Slot 0 holds the return value; every argument and instruction
        # owns a slot from the start, constants get theirs on first use.
        defined = [*fn.arguments]
        for block in fn.blocks:
            defined += block.instructions
        self._slots: Dict[int, int] = dict(
            zip(map(id, defined), range(1, len(defined) + 1))
        )
        self.n_slots = len(defined) + 1
        self._const_bindings: List[Tuple[int, Value]] = []
        self.arg_slots: Tuple[int, ...] = tuple(
            range(1, len(fn.arguments) + 1)
        )
        self.edges: List[tuple] = []
        self.entry_edge = 0
        self._proto: Optional[list] = None
        self._compile()

    # ----- slot assignment --------------------------------------------------

    def _slot(self, value: Value) -> int:
        """The register that holds ``value``.

        SSA values (arguments, instruction results) own the slot their
        definition writes and every use reads; constants, globals and
        function references get a slot, on first request, filled at
        machine-bind time.
        """
        slot = self._slots.get(id(value))
        if slot is None:
            slot = self._slots[id(value)] = self.n_slots
            self.n_slots = slot + 1
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
            key, moves, fast_ops, ticks, phi_run, body = edges[eid]
            counts[key] = counts.get(key, 0) + 1
            # ``steps`` lives on the machine: calls recurse into ``run``
            # with the same machine.
            steps = machine.steps
            if (
                fast_ops is not None
                and steps + ticks <= step_limit
                and machine.instruction_hook is None
            ):
                # The whole edge ticks at once: it holds no call, so
                # nothing reads ``steps`` before it ends, and it cannot
                # cross the budget.  A fault rewinds ``steps`` to the
                # faulting instruction's own tick.
                machine.steps = steps + ticks
                try:
                    if moves is not None:
                        moves(regs)
                    for op in fast_ops:
                        eid = op(machine, regs)
                except BaseException:
                    fault_tick = body.fault_ticks[fast_ops.index(op)]
                    machine.steps = steps + fault_tick
                    raise
                continue
            # One instruction at a time: one step, the budget check,
            # then the hook, before each phi, body instruction and
            # terminator.
            if phi_run is not None:
                phi_run(machine, regs)
            ops = body.ops
            if ops is None:
                ops = body.ops = self._ticked_ops(body)
            eid = None
            for inst, op in zip(body.insts, ops):
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
        """Build one record per CFG edge ``pred -> succ`` (and the entry).

        A record is ``(block_counts key, moves, fast_ops, ticks,
        phi_run, body)``.  ``body`` is the successor's
        :class:`_CompiledBody`, compiled once whichever edges enter it;
        ``ticks`` counts its phis and instructions.  ``phi_run`` moves
        the phis' incomings for this predecessor one tick at a time;
        ``moves`` moves them all at once and ``fast_ops`` run the body
        and terminator, for an edge that may tick whole: its block has
        a terminator and no call, and every phi has an incoming for the
        predecessor.  Otherwise ``fast_ops`` is ``None``.
        """
        fn = self.fn
        edges = self.edges
        edge_ids: Dict[Tuple[Optional[int], int], int] = {}
        pending: List[Tuple[Optional[BasicBlock], BasicBlock]] = []

        def edge_id(pred: Optional[BasicBlock], succ: BasicBlock) -> int:
            key = (id(pred) if pred is not None else None, id(succ))
            eid = edge_ids.get(key)
            if eid is None:
                eid = edge_ids[key] = len(edges)
                edges.append(None)
                pending.append((pred, succ))
            return eid

        self.entry_edge = edge_id(None, fn.entry)
        bodies: Dict[int, _CompiledBody] = {}
        while pending:
            pred, block = pending.pop()
            eid = edge_ids[(id(pred) if pred is not None else None, id(block))]
            body = bodies.get(id(block))
            if body is None:
                body = bodies[id(block)] = self._compile_block(block, edge_id)
            moves, phi_run = self._compile_phis(body.phis, pred)
            edges[eid] = (
                (fn.name, block.name),
                moves,
                body.fast_ops if moves is not None or not body.phis else None,
                len(body.phis) + len(body.insts),
                phi_run,
                body,
            )

    def _compile_phis(
        self, phis: Sequence[Phi], pred: Optional[BasicBlock]
    ) -> Tuple[Optional[Callable[[list], None]], Optional[StepFn]]:
        """``(moves, phi_run)`` for entering ``phis``' block from
        ``pred``; ``moves`` is ``None`` when some phi has no incoming
        for ``pred`` (only ``phi_run``, which traps there, may run)."""
        if not phis:
            return None, None
        pred_name = pred.name if pred is not None else "<entry>"
        rows = []
        complete = True
        for phi in phis:
            incoming = phi.incoming_for(pred)
            if incoming is None:
                complete = False
            rows.append((
                phi,
                self._slots[id(phi)],
                None if incoming is None else self._slot(incoming),
            ))
        phi_run = partial(_tick_phis, tuple(rows), pred_name)
        if not complete:
            return None, phi_run
        moves = _phi_moves(
            tuple(dst for _phi, dst, _src in rows),
            tuple(src for _phi, _dst, src in rows),
        )
        return moves, phi_run

    def _compile_block(
        self, block: BasicBlock, edge_id: Callable
    ) -> _CompiledBody:
        instructions = block.instructions
        start = block.first_non_phi_index()
        body = instructions[start:]
        terminator = None
        for end, inst in enumerate(body):
            if inst.is_terminator:
                body = body[: end + 1]
                terminator = self._compile_terminator(inst, block, edge_id)
                break
        compiled = _CompiledBody(
            tuple(instructions[:start]), tuple(body), terminator
        )
        if terminator is None or Call in map(type, body):
            compiled.ops = self._ticked_ops(compiled)
        else:
            self._compile_fast(block, compiled)
        return compiled

    def _compile_inst(self, inst: Instruction) -> StepFn:
        compiler = _INST_COMPILERS.get(type(inst))
        if compiler is None:
            return _trap(f"cannot execute {inst!r}")
        return compiler(self, inst)

    def _ticked_ops(self, body: _CompiledBody) -> Tuple[StepFn, ...]:
        """One closure per instruction of ``body``, the terminator last.

        Compiling after :meth:`bind` is safe: every instruction owns a
        slot from the start, and :meth:`_compile_fast` has already given
        one to every constant these ops read.
        """
        n_slots = self.n_slots
        insts = body.insts
        if body.terminator is None:
            ops = tuple(map(self._compile_inst, insts))
        else:
            ops = (*map(self._compile_inst, insts[:-1]), body.terminator)
        if self._proto is not None and self.n_slots != n_slots:
            raise RuntimeError("a late compile assigned new registers")
        return ops

    def _compile_fast(self, block: BasicBlock, body: _CompiledBody) -> None:
        """``body.fast_ops`` and ``body.fault_ticks`` of a block that
        may tick whole.

        A GEP whose every use is the address of a load or store in its
        own block runs inside those accesses (:meth:`_compile_access`)
        instead of as an op of its own.  GEPs cannot fault, so an op
        faults, if at all, at its load, store or other instruction.
        """
        folded: Dict[int, tuple] = {}
        fast_ops: List[StepFn] = []
        fault_ticks: List[int] = []
        tick = len(body.phis)
        for inst in body.insts[:-1]:
            tick += 1
            kind = type(inst)
            if kind is GetElementPtr:
                address = self._gep_address(inst)
                if (
                    address is not None
                    and len(address[2]) <= 1
                    and _only_addresses_in(inst, block)
                ):
                    folded[id(inst)] = address
                    continue
                op = self._compile_gep(inst, address)
            elif kind is Load or kind is Store:
                address = folded.get(id(inst.pointer))
                op = (
                    self._compile_inst(inst)
                    if address is None
                    else self._compile_access(inst, address)
                )
            else:
                op = self._compile_inst(inst)
            fast_ops.append(op)
            fault_ticks.append(tick)
        fast_ops.append(body.terminator)
        fault_ticks.append(tick + 1)
        body.fast_ops = tuple(fast_ops)
        body.fault_ticks = tuple(fault_ticks)

    def _compile_terminator(
        self, inst: Instruction, block: BasicBlock, edge_id: Callable
    ) -> StepFn:
        if isinstance(inst, Ret):
            if inst.return_value is None:
                return _ret_void
            src = self._slot(inst.return_value)

            def ret_value(m: Machine, regs: list, src=src) -> int:
                regs[0] = regs[src]
                return -1

            return ret_value
        if isinstance(inst, Br):
            if inst.is_conditional:
                cond = self._slot(inst.condition)
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

    def _compile_binop(self, inst: BinaryOp) -> StepFn:
        dst = self._slots[id(inst)]
        a = self._slot(inst.operands[0])
        b = self._slot(inst.operands[1])
        ty = inst.type
        if isinstance(ty, IntType):
            impl = int_binop_impl(inst.opcode, ty.bits)
            if impl is None:
                return _trap(f"bad int opcode {inst.opcode}")

            def int_binop(
                m: Machine, regs: list, dst=dst, a=a, b=b, impl=impl
            ) -> None:
                regs[dst] = impl(regs[a], regs[b])

            return int_binop
        if isinstance(ty, FloatType):
            fimpl = float_binop_impl(inst.opcode, ty.bits)
            if fimpl is None:
                return _trap(f"bad float opcode {inst.opcode}")
            if all(map(_canonical, inst.operands)):
                # ``float()`` of a float is the float itself.

                def float_binop(
                    m: Machine, regs: list, dst=dst, a=a, b=b, impl=fimpl
                ) -> None:
                    regs[dst] = impl(regs[a], regs[b])

                return float_binop

            def coercing_float_binop(
                m: Machine, regs: list, dst=dst, a=a, b=b, impl=fimpl
            ) -> None:
                regs[dst] = impl(float(regs[a]), float(regs[b]))

            return coercing_float_binop
        return _trap(f"binary op on {ty}")

    def _compile_compare(self, inst: Instruction) -> StepFn:
        dst = self._slots[id(inst)]
        a = self._slot(inst.operands[0])
        b = self._slot(inst.operands[1])
        impl, bits = compare_impl(inst)

        def compare(
            m: Machine, regs: list, dst=dst, a=a, b=b, impl=impl, bits=bits
        ) -> None:
            regs[dst] = impl(bits, regs[a], regs[b])

        return compare

    def _compile_select(self, inst: Select) -> StepFn:
        dst = self._slots[id(inst)]
        cond = self._slot(inst.operands[0])
        a = self._slot(inst.operands[1])
        b = self._slot(inst.operands[2])

        def select(
            m: Machine, regs: list, dst=dst, cond=cond, a=a, b=b
        ) -> None:
            regs[dst] = regs[a] if regs[cond] else regs[b]

        return select

    def _compile_cast(self, inst: Cast) -> StepFn:
        impl = cast_impl_at(inst.opcode, inst.operands[0].type, inst.type)
        if impl is None:
            return _trap(f"bad cast {inst.opcode}")
        dst = self._slots[id(inst)]
        source = inst.operands[0]
        a = self._slot(source)
        if (
            inst.opcode == "sext"
            and 1 < source.type.bits <= inst.type.bits
            and _canonical(source)
        ):
            # Sign-extending a value already wrapped to its narrower
            # width gives that value.

            def sext_copy(m: Machine, regs: list, dst=dst, a=a) -> None:
                regs[dst] = regs[a]

            return sext_copy

        def cast(m: Machine, regs: list, dst=dst, a=a, impl=impl) -> None:
            regs[dst] = impl(regs[a])

        return cast

    def _gep_address(self, inst: GetElementPtr):
        """``(base slot, static offset, ((slot, scale), ...))`` of a GEP
        whose indices fold to a constant plus scaled registers, or
        ``None`` when it takes the generic walk (a dynamic struct
        index) or traps (an index into a scalar)."""
        size_of = self.program.size_of
        operands = inst.operands
        ty = inst.source_type
        scale = size_of(ty)  # the first index steps over whole objects
        static = 0
        dynamic: List[Tuple[int, int]] = []  # (slot, scale)
        for position in range(1, len(operands)):
            idx = operands[position]
            if position > 1:
                if isinstance(ty, ArrayType):
                    ty = ty.element
                    scale = size_of(ty)
                elif isinstance(ty, StructType) and type(idx) is ConstantInt:
                    field = int(idx.value)
                    static += self.program.layout.field_offset(ty, field)
                    ty = ty.fields[field]
                    continue
                else:
                    return None
            if type(idx) is ConstantInt:
                static += int(idx.value) * scale
            else:
                dynamic.append((self._slot(idx), scale))
        return self._slot(operands[0]), static, tuple(dynamic)

    def _compile_gep(
        self, inst: GetElementPtr, address: Optional[tuple] = None
    ) -> StepFn:
        if address is None:
            address = self._gep_address(inst)
        if address is None:
            # A dynamic struct index (never generated in practice) or an
            # index into a scalar: the interpreter's walk, which traps
            # on the latter.
            return self._compile_gep_generic(inst)
        base, static, dynamic = address
        dst = self._slots[id(inst)]
        if not dynamic:

            def gep_const(
                m: Machine, regs: list, dst=dst, base=base, static=static
            ) -> None:
                regs[dst] = regs[base] + static

            return gep_const
        if len(dynamic) == 1:
            ((slot, scale),) = dynamic

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

        def gep_many(
            m: Machine,
            regs: list,
            dst=dst,
            base=base,
            static=static,
            dynamic=dynamic,
        ) -> None:
            addr = regs[base] + static
            for slot, scale in dynamic:
                addr += regs[slot] * scale
            regs[dst] = addr

        return gep_many

    def _compile_gep_generic(self, inst: GetElementPtr) -> StepFn:
        dst = self._slots[id(inst)]
        base = self._slot(inst.pointer)
        idx_slots = tuple(self._slot(i) for i in inst.indices)
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
        dst = self._slots[id(inst)]
        ptr = self._slot(inst.pointer)
        read = self.program.codec(inst.type).load

        def load(m: Machine, regs: list, dst=dst, ptr=ptr, read=read) -> None:
            regs[dst] = read(m.memory, regs[ptr])

        return load

    def _compile_store(self, inst: Store) -> StepFn:
        src = self._slot(inst.value)
        ptr = self._slot(inst.pointer)
        write = self.program.codec(inst.value.type).store

        def store(
            m: Machine, regs: list, src=src, ptr=ptr, write=write
        ) -> None:
            write(m.memory, regs[ptr], regs[src])

        return store

    def _compile_access(self, inst: Instruction, address: tuple) -> StepFn:
        """A load or store that computes its own address: ``address``
        is the pointer GEP's :meth:`_gep_address`, with at most one
        dynamic index.  The GEP's operands are SSA registers of its
        block or of blocks dominating it, so they hold the same values
        here as at the GEP."""
        base, static, dynamic = address
        slot, scale = dynamic[0] if dynamic else (0, 0)
        if type(inst) is Load:
            dst = self._slots[id(inst)]
            read = self.program.codec(inst.type).load
            if not dynamic:

                def load_at(
                    m: Machine, regs: list, dst=dst, base=base,
                    static=static, read=read,
                ) -> None:
                    regs[dst] = read(m.memory, regs[base] + static)

                return load_at

            def load_indexed(
                m: Machine, regs: list, dst=dst, base=base, static=static,
                slot=slot, scale=scale, read=read,
            ) -> None:
                regs[dst] = read(
                    m.memory, regs[base] + static + regs[slot] * scale
                )

            return load_indexed
        src = self._slot(inst.value)
        write = self.program.codec(inst.value.type).store
        if not dynamic:

            def store_at(
                m: Machine, regs: list, src=src, base=base, static=static,
                write=write,
            ) -> None:
                write(m.memory, regs[base] + static, regs[src])

            return store_at

        def store_indexed(
            m: Machine, regs: list, src=src, base=base, static=static,
            slot=slot, scale=scale, write=write,
        ) -> None:
            write(
                m.memory, regs[base] + static + regs[slot] * scale, regs[src]
            )

        return store_indexed

    def _compile_alloca(self, inst: Alloca) -> StepFn:
        dst = self._slots[id(inst)]
        size = self.program.size_of(inst.allocated_type)
        align = self.program.layout.align_of(inst.allocated_type)

        def alloca(
            m: Machine, regs: list, dst=dst, size=size, align=align
        ) -> None:
            regs[dst] = m.alloc(size, align)

        return alloca

    def _compile_call(self, inst: Call) -> StepFn:
        arg_slots = tuple(self._slot(a) for a in inst.args)
        void = inst.type.is_void
        dst = 0 if void else self._slots[id(inst)]
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
        callee_slot = self._slot(callee)

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


#: The compiler of each body instruction class (the hierarchy is flat,
#: so one ``type()`` lookup replaces an ``isinstance`` chain).
_INST_COMPILERS: Dict[
    type, Callable[[CompiledFunction, Instruction], StepFn]
] = {
    BinaryOp: CompiledFunction._compile_binop,
    ICmp: CompiledFunction._compile_compare,
    FCmp: CompiledFunction._compile_compare,
    Select: CompiledFunction._compile_select,
    Cast: CompiledFunction._compile_cast,
    GetElementPtr: CompiledFunction._compile_gep,
    Load: CompiledFunction._compile_load,
    Store: CompiledFunction._compile_store,
    Alloca: CompiledFunction._compile_alloca,
    Call: CompiledFunction._compile_call,
}


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
