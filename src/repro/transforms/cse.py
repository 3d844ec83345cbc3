"""Dominator-scoped common-subexpression elimination.

Value-numbers pure instructions along the dominator tree (a light GVN,
like LLVM's EarlyCSE): an expression computed in a block is available
in every block it dominates.  Loads join the table too, with
conservative invalidation -- a store or a non-readnone call clears
remembered loads, and so does entering a block with more than one
predecessor (memory state on the other edges is unknown).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.domtree import DominatorTree
from ..ir.instructions import (
    BinaryOp,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstantFloat, ConstantInt, Value


def _operand_key(value: Value) -> object:
    # Types are interned (same type <=> same object), so the type
    # object itself is a sound and cheap key component.
    if isinstance(value, ConstantInt):
        return ("ci", value.type, value.value)
    if isinstance(value, ConstantFloat):
        return ("cf",) + value.key
    return id(value)


def _value_key(inst: Instruction) -> Optional[Tuple]:
    ops = tuple(_operand_key(op) for op in inst.operands)
    if isinstance(inst, BinaryOp):
        if inst.is_commutative:
            ops = tuple(sorted(ops, key=repr))
        return ("bin", inst.opcode, inst.type, ops)
    if isinstance(inst, ICmp):
        return ("icmp", inst.predicate, ops)
    if isinstance(inst, FCmp):
        return ("fcmp", inst.predicate, ops)
    if isinstance(inst, Cast):
        return ("cast", inst.opcode, inst.type, ops)
    if isinstance(inst, GetElementPtr):
        return ("gep", inst.source_type, ops)
    if isinstance(inst, Select):
        return ("select", ops)
    if isinstance(inst, Load):
        return ("load", inst.type, ops)
    return None


class _ScopedTable:
    """A stack of dictionaries: one scope per dominator-tree level."""

    def __init__(self) -> None:
        self._scopes: List[Dict[Tuple, Instruction]] = [{}]
        #: Keys of remembered loads, per scope, for cheap invalidation.
        self._load_keys: List[List[Tuple]] = [[]]
        self._killed: set = set()

    def push(self) -> None:
        self._scopes.append({})
        self._load_keys.append([])

    def pop(self) -> None:
        for key in self._load_keys.pop():
            self._killed.discard(key)
        self._scopes.pop()

    def lookup(self, key: Tuple) -> Optional[Instruction]:
        if key[0] == "load" and key in self._killed:
            return None
        for scope in reversed(self._scopes):
            value = scope.get(key)
            if value is not None:
                return value
        return None

    def insert(self, key: Tuple, inst: Instruction) -> None:
        self._scopes[-1][key] = inst
        if key[0] == "load":
            self._killed.discard(key)
            self._load_keys[-1].append(key)

    def kill_loads(self) -> None:
        """Invalidate every remembered load, in all open scopes."""
        for scope in self._scopes:
            for key in scope:
                if key[0] == "load":
                    self._killed.add(key)


def eliminate_common_subexpressions(fn: Function) -> int:
    """Run dominator-scoped CSE; returns the number of eliminated values."""
    if fn.is_declaration:
        return 0

    domtree = DominatorTree(fn)
    children: Dict[int, List[BasicBlock]] = {}
    for block in domtree.order:
        idom = domtree.idom.get(block)
        if idom is not None:
            children.setdefault(id(idom), []).append(block)

    eliminated = 0
    table = _ScopedTable()

    def visit(block: BasicBlock) -> None:
        nonlocal eliminated
        table.push()
        if len(block.predecessors()) > 1:
            # Memory state on the join's other edges is unknown.
            table.kill_loads()
        for inst in list(block.instructions):
            if isinstance(inst, Store) or (
                isinstance(inst, Call) and not inst.is_readnone()
            ):
                table.kill_loads()
                continue
            key = _value_key(inst)
            if key is None:
                continue
            prior = table.lookup(key)
            if prior is not None and prior.type is inst.type:
                inst.replace_all_uses_with(prior)
                inst.erase_from_parent()
                eliminated += 1
            else:
                table.insert(key, inst)
        for child in children.get(id(block), ()):  # dominator-tree walk
            visit(child)
        table.pop()

    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        if fn.blocks:
            visit(fn.entry)
    finally:
        sys.setrecursionlimit(limit)
    return eliminated
