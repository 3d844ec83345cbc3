"""Abstract syntax tree of the mini-C language."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from .ctypes import CType


# ----- expressions -------------------------------------------------------


class Expr:
    """Base class of expressions."""

    line: int = 0


@dataclass
class IntLit(Expr):
    """Integer literal (with u/l suffix flags; ``decimal`` is false for
    a hex or octal spelling, which C types differently)."""
    value: int
    unsigned: bool = False
    long: bool = False
    decimal: bool = True


@dataclass
class FloatLit(Expr):
    """Floating point literal (``f`` suffix selects float32)."""
    value: float
    is_float32: bool = False


@dataclass
class NameRef(Expr):
    """Reference to a variable, parameter or global."""
    name: str


@dataclass
class Unary(Expr):
    """Prefix operator application (``- ! ~ & *``)."""
    op: str  # "-" "!" "~" "&" "*"
    operand: Expr


@dataclass
class Binary(Expr):
    """Infix binary operator application."""
    op: str
    lhs: Expr
    rhs: Expr


@dataclass
class Assign(Expr):
    """Plain or compound assignment."""
    op: str  # "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="
    target: Expr
    value: Expr


@dataclass
class Conditional(Expr):
    """The ternary ``cond ? a : b`` operator."""
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class CallExpr(Expr):
    """Function call by name."""
    callee: str
    args: List[Expr]


@dataclass
class Index(Expr):
    """Array or pointer subscript ``base[index]``."""
    base: Expr
    index: Expr


@dataclass
class Member(Expr):
    """Struct member access (``.`` or ``->``)."""
    base: Expr
    name: str
    arrow: bool  # True for ->


@dataclass
class CastExpr(Expr):
    """Explicit C cast ``(type)expr``."""
    to: CType
    operand: Expr


@dataclass
class PostIncDec(Expr):
    """Postfix ``x++`` / ``x--``."""
    op: str  # "++" or "--"
    target: Expr


@dataclass
class PreIncDec(Expr):
    """Prefix ``++x`` / ``--x``."""
    op: str
    target: Expr


# ----- statements -------------------------------------------------------------


class Stmt:
    """Base class of statements."""

    line: int = 0


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its effects."""
    expr: Expr


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration with optional initializer."""
    ctype: CType
    name: str
    init: Optional[Expr]


@dataclass
class Block(Stmt):
    """A brace-enclosed statement list."""
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    """``if``/``else`` statement."""
    cond: Expr
    then: Stmt
    otherwise: Optional[Stmt]


@dataclass
class While(Stmt):
    """``while`` loop."""
    cond: Expr
    body: Stmt


@dataclass
class DoWhile(Stmt):
    """``do { } while`` loop."""
    body: Stmt
    cond: Expr


@dataclass
class For(Stmt):
    """C-style ``for`` loop."""
    init: Optional[Union[Stmt, Expr]]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    """``return`` with optional value."""
    value: Optional[Expr]


@dataclass
class Break(Stmt):
    """``break`` out of the innermost loop."""
    pass


@dataclass
class Continue(Stmt):
    """``continue`` to the innermost loop's latch."""
    pass


# ----- top level ------------------------------------------------------------


@dataclass
class Param:
    """One formal parameter (type + name)."""
    ctype: CType
    name: str


@dataclass
class FunctionDef:
    """A function definition or extern prototype."""
    return_type: CType
    name: str
    params: List[Param]
    body: Optional[Block]  # None for extern prototypes
    attributes: List[str] = field(default_factory=list)


@dataclass
class GlobalDef:
    """A global variable definition."""
    ctype: CType
    name: str
    init: Optional[Expr]  # or InitList
    is_extern: bool = False
    is_const: bool = False


@dataclass
class InitList(Expr):
    """Brace initializer list ``{a, b, ...}``."""
    elements: List[Expr]


@dataclass
class StructDef:
    """A named struct definition."""
    name: str
    fields: List[Tuple[str, CType]]


@dataclass
class TranslationUnit:
    """The parsed contents of one source file."""
    items: List[Union[FunctionDef, GlobalDef, StructDef]] = field(
        default_factory=list
    )
