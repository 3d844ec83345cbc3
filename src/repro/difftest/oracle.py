"""Trap-aware execution observation and comparison.

An :class:`Observation` captures everything the oracle treats as
observable behaviour of one function call:

* completion status -- ``ok``, ``trap`` or ``timeout``;
* the returned value (pointer returns are normalized, addresses are
  not stable across module variants);
* final bytes of every original global (compiler-generated
  ``__rolag*`` tables are excluded) and of every caller buffer;
* the extern call trace, with pointer arguments normalized.

Trap policy: a transformed function must trap exactly when the
original does, but *which* trap fires first and the partial memory
state at the fault are implementation-defined -- legal instruction
scheduling inside a rolled loop can reorder independent faulting
operations.  So two trapping observations always compare equal, and
two completing observations compare fully.  A timeout
(:class:`~repro.ir.interp.StepLimitExceeded`) on either side makes the
pair inconclusive rather than a mismatch.
"""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faultinject import fire
from ..ir.compile_eval import CompiledProgram, make_machine
from ..ir.interp import (
    Machine,
    MemoryLimitExceeded,
    StepLimitExceeded,
    TrapError,
)
from ..ir.module import Function, Module
from ..ir.types import FloatType, IntType, PointerType
from ..ir.values import GlobalVariable

#: Globals whose name starts with one of these are compiler artifacts
#: (e.g. RoLAG mismatch tables), not program state.
_ARTIFACT_PREFIXES = ("__rolag",)

#: Extern-trace integers at or above this magnitude are treated as
#: addresses and normalized (matches ``tests/helpers.py``).
_POINTER_THRESHOLD = 4096

#: Default interpreter budget per observed call.
DEFAULT_STEP_LIMIT = 500_000

#: Default bytes allocated for a pointer argument with unknown layout.
DEFAULT_BUFFER_BYTES = 64


@dataclass(frozen=True)
class Observation:
    """One execution's observable behaviour (comparable, hashable)."""

    status: str  # "ok" | "trap" | "timeout"
    result: object = None
    trap_kind: str = ""
    globals_bytes: Tuple[Tuple[str, bytes], ...] = ()
    buffers: Tuple[bytes, ...] = ()
    extern_trace: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    steps: int = 0

    def summary(self) -> str:
        """A one-line human description."""
        if self.status == "ok":
            return f"ok result={self.result!r} steps={self.steps}"
        if self.status == "trap":
            return f"trap({self.trap_kind}) steps={self.steps}"
        return f"timeout steps={self.steps}"


@dataclass(frozen=True)
class ArgumentVector:
    """Concrete inputs for one call.

    ``values`` holds one entry per formal parameter: an ``int`` or
    ``float`` scalar, or ``bytes`` for a pointer parameter (a fresh
    buffer with those initial contents is allocated per run).
    """

    values: Tuple[object, ...]

    def describe(self) -> str:
        parts = []
        for value in self.values:
            if isinstance(value, bytes):
                parts.append(f"buffer[{len(value)}]={value.hex()}")
            else:
                parts.append(repr(value))
        return "(" + ", ".join(parts) + ")"


def _trap_kind(error: TrapError) -> str:
    if isinstance(error, MemoryLimitExceeded):
        return "memory-limit"
    message = str(error)
    if "by zero" in message:
        return "div-by-zero"
    if "out-of-bounds" in message:
        return "oob"
    if "unreachable" in message:
        return "unreachable"
    return "trap"


def _normalize_trace_args(args: Sequence[object]) -> Tuple[object, ...]:
    out: List[object] = []
    for arg in args:
        if isinstance(arg, int) and abs(arg) >= _POINTER_THRESHOLD:
            out.append("<ptr>")
        else:
            out.append(arg)
    return tuple(out)


def oracle_externs(module: Module) -> Dict[str, object]:
    """Deterministic, address-independent handlers for every extern.

    The interpreter's built-in default derives a value from the raw
    arguments, which include machine addresses for pointer parameters;
    addresses differ between an original and a transformed module once
    RoLAG appends lookup-table globals.  These handlers hash the
    *normalized* arguments instead, so both sides see identical extern
    behaviour.
    """

    handlers: Dict[str, object] = {}
    for fn in module.functions:
        if not fn.is_declaration:
            continue
        handlers[fn.name] = _make_handler(fn.name, fn.return_type)
    return handlers


def _make_handler(name: str, return_type):
    def handler(machine: Machine, args: Sequence[object]) -> object:
        material = repr((name, _normalize_trace_args(args)))
        seed = zlib.crc32(material.encode("utf-8")) & 0x7FFFFFFF
        if return_type.is_void:
            return None
        if isinstance(return_type, IntType):
            wrapped = seed & return_type.mask
            if return_type.bits > 1 and wrapped >= (1 << (return_type.bits - 1)):
                wrapped -= 1 << return_type.bits
            return wrapped
        if isinstance(return_type, FloatType):
            return float(seed % 1000)
        return 0  # pointer returns: null

    return handler


def program_for(module: Module, evaluator: str):
    """A shareable compilation cache, or ``None`` for the interpreter.

    Pass the result to every :func:`observe_call` against the same
    (unmutated) module so repeated observations pay lowering once.
    """
    if evaluator == "compiled":
        return CompiledProgram(module)
    return None


def observe_call(
    module: Module,
    fn_name: str,
    vector: ArgumentVector,
    step_limit: int = DEFAULT_STEP_LIMIT,
    evaluator: str = "interp",
    program: Optional[object] = None,
) -> Observation:
    """Run ``@fn_name`` on a fresh machine and capture the observation.

    ``evaluator`` selects the execution backend (see
    ``repro.ir.compile_eval``); observations are backend-independent
    and compare equal across evaluators, including ``steps``.
    ``program`` optionally shares one compiled form across many
    observations of the same module.  Every call is one evaluator run
    and fires the ``difftest.observe`` site; a job's
    :class:`~repro.difftest.runner.ObservationMemo` calls this once per
    distinct (state, function, vector, backend), not once per request.
    """
    fire("difftest.observe")
    try:
        machine = make_machine(
            module, evaluator, step_limit=step_limit, program=program
        )
    except MemoryLimitExceeded as error:
        # The module's globals alone do not fit: every call traps
        # before its first step.
        return Observation(status="trap", trap_kind=_trap_kind(error))
    for name, handler in oracle_externs(module).items():
        machine.register_extern(name, handler)
    fn = module.get_function(fn_name)
    if fn is None:
        raise KeyError(f"no function @{fn_name}")

    args: List[object] = []
    buffer_slots: List[Tuple[int, int]] = []
    for value in vector.values:
        if isinstance(value, bytes):
            address = machine.alloc(max(len(value), 1))
            machine.write_bytes(address, value)
            buffer_slots.append((address, len(value)))
            args.append(address)
        else:
            args.append(value)

    status, result, trap_kind = "ok", None, ""
    try:
        result = machine.call(fn, args)
    except StepLimitExceeded:
        return Observation(status="timeout", steps=machine.steps)
    except TrapError as error:
        status, trap_kind = "trap", _trap_kind(error)

    if status == "trap":
        # Partial state at a fault is implementation-defined: record
        # only that (and what kind of) a trap happened.
        return Observation(status="trap", trap_kind=trap_kind, steps=machine.steps)

    if isinstance(fn.return_type, PointerType):
        result = "<ptr>"
    memory = machine.memory
    globals_bytes = tuple([
        (name, bytes(memory[address : address + size]))
        for name, address, size in _program_globals(module, machine)
    ])
    buffers = tuple([
        bytes(memory[address : address + size])
        for address, size in buffer_slots
    ])
    trace = tuple(
        (name, _normalize_trace_args(call_args))
        for name, call_args in machine.extern_trace
    )
    return Observation(
        status="ok",
        result=result,
        globals_bytes=globals_bytes,
        buffers=buffers,
        extern_trace=trace,
        steps=machine.steps,
    )


def _program_globals(
    module: Module, machine: Machine
) -> Tuple[Tuple[str, int, int], ...]:
    """``machine.global_spans`` of the program's own globals (not the
    compiler's artifacts), sorted by name: computed once per memory
    image, which every machine of one module state shares."""
    spans = machine.global_spans
    cached = getattr(module, "_oracle_globals", None)
    if cached is None or cached[0] is not spans:
        cached = module._oracle_globals = (spans, tuple(sorted(
            span for span in spans
            if not span[0].startswith(_ARTIFACT_PREFIXES)
        )))
    return cached[1]


def _same_value(a: object, b: object) -> bool:
    """``a == b``, except that two NaNs are the same value."""
    return a == b or (a != a and b != b)


def _same_trace(
    reference: Tuple[Tuple[str, Tuple[object, ...]], ...],
    candidate: Tuple[Tuple[str, Tuple[object, ...]], ...],
) -> bool:
    """Extern traces equal call for call, NaN arguments matching NaN."""
    return len(reference) == len(candidate) and all(
        ref_name == cand_name
        and len(ref_args) == len(cand_args)
        and all(map(_same_value, ref_args, cand_args))
        for (ref_name, ref_args), (cand_name, cand_args) in zip(
            reference, candidate
        )
    )


def compare_observations(
    reference: Observation, candidate: Observation
) -> Optional[str]:
    """None when equivalent/inconclusive, else a mismatch description."""
    if "timeout" in (reference.status, candidate.status):
        return None  # inconclusive: budget exhausted, not a divergence
    if reference.status != candidate.status:
        return (
            f"status {reference.summary()} != {candidate.summary()}"
        )
    if reference.status == "trap":
        return None  # both trap: partial state is implementation-defined
    if not _same_value(reference.result, candidate.result):
        return f"result {reference.result!r} != {candidate.result!r}"
    if reference.globals_bytes != candidate.globals_bytes:
        ref = dict(reference.globals_bytes)
        cand = dict(candidate.globals_bytes)
        names = sorted(
            name
            for name in set(ref) | set(cand)
            if ref.get(name) != cand.get(name)
        )
        return f"globals differ: {', '.join('@' + n for n in names)}"
    if reference.buffers != candidate.buffers:
        return "argument buffer contents differ"
    if not _same_trace(reference.extern_trace, candidate.extern_trace):
        return (
            f"extern trace {reference.extern_trace!r} != "
            f"{candidate.extern_trace!r}"
        )
    return None


# ----- argument vector generation ------------------------------------------

_INT_CANDIDATES = (0, 1, 2, 3, 5, 8, 15, 16, -1, -2, 7, 63)


def _scalar_for(ty, rng: random.Random) -> object:
    if isinstance(ty, IntType):
        if ty.bits == 1:
            return rng.randrange(2)
        if rng.random() < 0.5:
            value = rng.choice(_INT_CANDIDATES)
        else:
            value = rng.randrange(-(1 << 7), 1 << 7)
        # Sprinkle width-specific edges (INT_MIN / INT_MAX).
        if rng.random() < 0.15:
            value = rng.choice((ty.signed_min, ty.signed_max, -1))
        return value
    if isinstance(ty, FloatType):
        return float(rng.choice((0, 1, -1, 2, 10))) + rng.random()
    raise ValueError(f"cannot build a scalar of type {ty}")


def _buffer_for(rng: random.Random, size: int) -> bytes:
    words = size // 4
    values = [rng.randrange(-100, 100) for _ in range(words)]
    return struct.pack(f"<{words}i", *values) + b"\0" * (size - words * 4)


def make_argument_vectors(
    fn: Function,
    seed: int,
    count: int,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
) -> List[ArgumentVector]:
    """``count`` deterministic vectors matching ``fn``'s signature.

    Integer arguments are biased toward small values (many corpus
    functions use them as trip counts) plus occasional width edges;
    pointer arguments become patterned buffers of ``buffer_bytes``.
    A function without parameters (every TSVC kernel) draws ``count``
    identical empty vectors; observed through a job's
    :class:`~repro.difftest.runner.ObservationMemo`, each module state
    runs them once.
    """
    rng = random.Random((seed * 7_368_787 + len(fn.arguments)) & 0xFFFFFFFF)
    vectors: List[ArgumentVector] = []
    for _ in range(count):
        values: List[object] = []
        for argument in fn.arguments:
            if isinstance(argument.type, PointerType):
                values.append(_buffer_for(rng, buffer_bytes))
            else:
                values.append(_scalar_for(argument.type, rng))
        vectors.append(ArgumentVector(tuple(values)))
    return vectors
