"""LLVM-like typed SSA intermediate representation.

Public surface::

    from repro.ir import (
        Module, Function, BasicBlock, IRBuilder,
        parse_module, print_module, verify_module, Machine,
    )
"""

from .builder import IRBuilder
from .compile_eval import (
    CompiledMachine,
    CompiledProgram,
    EVALUATOR_CHOICES,
    make_machine,
)
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
    BINARY_OPCODES,
    CAST_OPCODES,
    COMMUTATIVE_OPCODES,
)
from .interp import (
    MEMORY_LIMIT,
    Machine,
    MemoryLimitExceeded,
    SHIFT_AMOUNT_MODULO_BITS,
    StepLimitExceeded,
    TrapError,
    eval_int_binop,
    run_function,
)
from .module import BasicBlock, Function, Module
from .parser import (
    ParseError,
    parse_function,
    parse_module,
    rename_function_locals,
    rename_globals,
)
from .printer import print_function, print_module
from .structhash import (
    StructuralSummary,
    canonical_function_text,
    canonical_module_text,
    compose_witness_renames,
    structural_eq,
    structural_fingerprint,
    structural_summary,
)
from .types import (
    ArrayType,
    DataLayout,
    DEFAULT_LAYOUT,
    F32,
    F64,
    FloatType,
    FunctionType,
    I1,
    I16,
    I32,
    I64,
    I8,
    IntType,
    LABEL,
    PointerType,
    StructType,
    Type,
    VOID,
    ptr,
    types_equivalent,
)
from .values import (
    Argument,
    Constant,
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    GlobalVariable,
    UndefValue,
    Value,
    const_float,
    const_int,
    neutral_element,
    zero_constant_for,
)
from .snapshot import FunctionSnapshot
from .verifier import (
    VerificationError,
    verify_blocks,
    verify_function,
    verify_module,
)

__all__ = [
    "Alloca", "Argument", "ArrayType", "BasicBlock", "BinaryOp", "Br",
    "BINARY_OPCODES", "CAST_OPCODES", "COMMUTATIVE_OPCODES",
    "Call", "Cast", "CompiledMachine", "CompiledProgram", "Constant",
    "ConstantAggregate", "ConstantFloat",
    "ConstantInt", "ConstantNull", "ConstantZero", "DataLayout",
    "DEFAULT_LAYOUT", "EVALUATOR_CHOICES", "F32", "F64", "FCmp",
    "FloatType", "Function",
    "FunctionSnapshot",
    "FunctionType", "GetElementPtr", "GlobalVariable", "I1", "I16", "I32",
    "I64", "I8", "ICmp", "IRBuilder", "Instruction", "IntType", "LABEL",
    "Load", "MEMORY_LIMIT", "Machine", "MemoryLimitExceeded", "Module",
    "ParseError", "Phi", "PointerType", "Ret",
    "Select", "StepLimitExceeded", "Store", "StructType",
    "StructuralSummary", "TrapError",
    "Type", "UndefValue", "Unreachable", "VOID", "Value",
    "VerificationError", "canonical_function_text",
    "canonical_module_text", "compose_witness_renames",
    "const_float", "const_int", "make_machine",
    "neutral_element",
    "parse_function", "parse_module", "print_function", "print_module",
    "ptr", "rename_function_locals", "rename_globals", "run_function",
    "structural_eq", "structural_fingerprint", "structural_summary",
    "types_equivalent", "verify_blocks",
    "verify_function",
    "verify_module", "zero_constant_for",
]
