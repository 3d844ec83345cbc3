"""Code-size cost model.

Plays the role of LLVM's target-transformation-interface (TTI) code-size
model (paper Section IV-F): estimates the number of bytes each IR
instruction contributes to the final x86-64 binary when compiled with
``-Os``.  The absolute values matter less than the relative weights --
the profitability analysis only compares two IR regions lowered with
the same table -- but the defaults are calibrated against typical
x86-64 encodings so the byte totals are plausible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..ir.instructions import (
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
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import DataLayout, DEFAULT_LAYOUT
from ..ir.values import ConstantFloat, ConstantInt, GlobalVariable


#: Default per-opcode byte estimates (x86-64, -Os flavoured).
DEFAULT_SIZE_TABLE: Dict[str, int] = {
    "add": 3, "sub": 3, "and": 3, "or": 3, "xor": 3,
    "mul": 4,
    "sdiv": 7, "udiv": 6, "srem": 7, "urem": 6,
    "shl": 3, "lshr": 3, "ashr": 3,
    "fadd": 4, "fsub": 4, "fmul": 4, "fdiv": 4, "frem": 10,
    "icmp": 3, "fcmp": 4,
    "select": 6,
    "trunc": 0, "zext": 3, "sext": 3, "bitcast": 0,
    "ptrtoint": 0, "inttoptr": 0,
    "sitofp": 4, "uitofp": 5, "fptosi": 4, "fptoui": 5,
    "fpext": 4, "fptrunc": 4,
    "gep": 4,
    "load": 4, "store": 4,
    "call": 5,
    "phi": 2,
    "br": 2, "br.cond": 2,
    "ret": 1,
    "alloca": 0,
    "unreachable": 1,
}

#: Fixed per-function overhead (prologue/epilogue, alignment padding).
FUNCTION_OVERHEAD = 4

#: Extra bytes for materialising a reference to a global (RIP-relative lea).
GLOBAL_OPERAND_EXTRA = 3

#: Extra bytes per call argument (register shuffling / immediates).
CALL_ARG_EXTRA = 2


@dataclass
class CodeSizeCostModel:
    """Estimates IR-to-binary size, byte by byte.

    The table is a plain attribute so experiments can perturb it
    (e.g. to study profitability false positives, paper Section V-A).
    """

    table: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SIZE_TABLE))
    layout: DataLayout = field(default_factory=lambda: DEFAULT_LAYOUT)

    def instruction_cost(self, inst: Instruction) -> int:
        """Estimated bytes this instruction adds to the binary."""
        if isinstance(inst, GetElementPtr):
            if self._gep_is_folded(inst):
                return 0
            return self.table["gep"] + self._global_extra(inst)
        if isinstance(inst, (Load, Store)):
            base = self.table[inst.opcode]
            if isinstance(inst, Store) and isinstance(
                inst.value, (ConstantInt, ConstantFloat)
            ):
                base += 3  # immediate operand
            return base + self._global_extra(inst)
        if isinstance(inst, Call):
            return (
                self.table["call"]
                + CALL_ARG_EXTRA * len(inst.args)
                + self._global_extra(inst)
            )
        if isinstance(inst, Br):
            return self.table["br.cond" if inst.is_conditional else "br"]
        if isinstance(inst, BinaryOp):
            cost = self.table[inst.opcode]
            for op in inst.operands:
                if isinstance(op, ConstantInt) and abs(op.value) > 0x7FFFFFFF:
                    cost += 5  # movabs needed
            return cost + self._global_extra(inst)
        if isinstance(inst, (ICmp, FCmp)):
            return self.table[inst.opcode] + self._global_extra(inst)
        if isinstance(inst, Cast):
            return self.table[inst.opcode]
        if isinstance(inst, Select):
            return self.table["select"]
        if isinstance(inst, Phi):
            return self.table["phi"]
        if isinstance(inst, Ret):
            return self.table["ret"]
        if isinstance(inst, Alloca):
            return self.table["alloca"]
        if isinstance(inst, Unreachable):
            return self.table["unreachable"]
        raise ValueError(f"no cost for {inst!r}")

    @staticmethod
    def _gep_is_folded(gep: GetElementPtr) -> bool:
        """GEPs whose only uses are memory addressing fold to 0 bytes."""
        if not gep.uses:
            return True
        for use in gep.uses:
            user = use.user
            if isinstance(user, Load) and user.pointer is gep:
                continue
            if isinstance(user, Store) and user.pointer is gep:
                continue
            return False
        return True

    @staticmethod
    def _global_extra(inst: Instruction) -> int:
        extra = 0
        for op in inst.operands:
            if isinstance(op, GlobalVariable):
                extra += GLOBAL_OPERAND_EXTRA
        return extra

    def block_cost(self, block: BasicBlock) -> int:
        """Summed instruction bytes of one block."""
        return sum(self.instruction_cost(inst) for inst in block.instructions)

    def function_cost(self, fn: Function) -> int:
        """Function bytes: prologue overhead plus every block."""
        if fn.is_declaration:
            return 0
        return FUNCTION_OVERHEAD + sum(
            self.block_cost(block) for block in fn.blocks
        )

    def module_text_size(self, module: Module) -> int:
        """Text bytes over all defined functions."""
        return sum(self.function_cost(fn) for fn in module.functions)

    def module_data_size(self, module: Module) -> int:
        """Initialised global data bytes."""
        total = 0
        for gv in module.globals:
            if gv.initializer is not None:
                total += self.layout.size_of(gv.value_type)
        return total
