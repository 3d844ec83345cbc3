"""Parser for the textual IR emitted by :mod:`repro.ir.printer`.

A hand-written lexer and recursive-descent parser for the
LLVM-flavoured syntax, engineered for batch throughput: difftest
campaigns and batch drivers parse thousands of module variants, so the
parser is the single hottest component of an end-to-end run.

Two structural decisions keep it fast:

* **Array tokens.** The lexer produces three parallel arrays (integer
  kinds, interned texts, source offsets) instead of per-token objects,
  and never tracks line numbers on the hot path -- ``line:column``
  positions are recovered lazily from the token offset only when a
  :class:`ParseError` is actually raised.  Token arrays are memoized in
  a small keyed-by-source cache, because some texts are parsed more
  than once in one process: a serve parent re-fingerprints an exact
  repeat of a job, a serial session parses a job once to fingerprint
  it and once to optimize it, and the bisector and minimizer re-parse
  one text per stage.  Lexing is about 40% of parsing (0.2-0.26 s of
  the 0.6 s it takes to parse the 128 ``serve-mixed`` benchmark texts
  on one core), so each repeat the cache serves skips that share.

* **Interning.**  Token texts are interned process-wide; types are
  interned by the type system itself; integer/float constants and the
  ``undef``/``null``/``zeroinitializer`` singletons are interned in a
  module-wide :class:`InternTable`, so a constant that appears a
  hundred times in a module is one object with one parse of its text.

A module parses in two phases.  The first scans the top level: struct
definitions, globals and every ``declare``/``define`` signature enter
one symbol table (which rejects redefinitions and conflicting
signatures), and each ``define`` body is recorded as a token span.  The
second parses every span into its function, so a body may call a
function defined further down the text.

Forward references (phi operands, branch targets, values used before
their definition line) are resolved through placeholder values that are
patched once the function body is complete.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    FCmp,
    GetElementPtr,
    ICmp,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
    BINARY_OPCODES,
    CAST_OPCODES,
)
from .module import BasicBlock, Function, Module
from .types import (
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    PointerType,
    StructType,
    Type,
    F32,
    F64,
    I1,
    I8,
    I16,
    I32,
    I64,
    VOID,
)
from .values import (
    Constant,
    ConstantAggregate,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantZero,
    UndefValue,
    Value,
)


class ParseError(Exception):
    """Raised on malformed IR text, carrying ``line``/``column``."""

    def __init__(self, message: str, line: int, column: Optional[int] = None) -> None:
        where = f"line {line}" if column is None else f"line {line}:{column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


# ----- lexer ----------------------------------------------------------------

# Group numbers double as token kinds; ``match.lastindex`` is the kind.
# Whitespace has no group: the lexer matches real tokens only and
# verifies the gaps between them are blank, so roughly half the match
# objects of a ws-as-token scheme are never created.
_K_EOF = 0
_K_COMMENT = 1
_K_LOCAL = 2
_K_GLOBAL = 3
_K_FLOAT = 4
_K_INT = 5
_K_IDENT = 6
_K_ELLIPSIS = 7
_K_PUNCT = 8

_KIND_NAMES = {
    _K_EOF: "eof",
    _K_LOCAL: "local",
    _K_GLOBAL: "global",
    _K_FLOAT: "float",
    _K_INT: "int",
    _K_IDENT: "ident",
    _K_ELLIPSIS: "ellipsis",
    _K_PUNCT: "punct",
}

# One capture group around the whole alternation: ``re.split`` then
# hands back ``[gap, token, gap, token, ..., gap]`` at C speed, with
# no per-token Match object.  The token's *kind* is recovered from its
# first character (see ``_KIND_BY_CHAR``); only numeric tokens need a
# second look (all digits is an int, anything else a float).  Float
# literals take every spelling the printer's ``repr`` gives: ``1.5``,
# ``1e+20``, ``5e-324``, ``-inf``; ``inf`` and ``nan`` lex as
# identifiers and become constants in ``parse_constant``.
_TOKEN_RE = re.compile(
    r"""(
      ;[^\n]*
    | %[A-Za-z0-9._$-]+
    | @[A-Za-z0-9._$-]+
    | -?\d+(?:\.\d+)?(?:e[+-]?\d+)?
    | -inf
    | [A-Za-z_][A-Za-z0-9._]*
    | \.\.\.
    | [()\[\]{}<>,=:*]
    )""",
    re.VERBOSE,
)

#: First token character -> kind.  ``-1`` flags numeric tokens, whose
#: kind depends on whether the literal is all digits.
_KIND_BY_CHAR: Dict[str, int] = {
    ";": _K_COMMENT,
    "%": _K_LOCAL,
    "@": _K_GLOBAL,
    ".": _K_ELLIPSIS,
    "-": -1,
    "_": _K_IDENT,
}
_KIND_BY_CHAR.update({c: -1 for c in "0123456789"})
_KIND_BY_CHAR.update(
    {c: _K_IDENT for c in "abcdefghijklmnopqrstuvwxyz"}
)
_KIND_BY_CHAR.update(
    {c: _K_IDENT for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"}
)
_KIND_BY_CHAR.update({c: _K_PUNCT for c in "()[]{}<>,=:*"})

#: Process-wide text intern pool, bounded so adversarial inputs cannot
#: grow it without limit (past the cap, texts are simply not shared).
_TEXT_INTERN: Dict[str, str] = {}
_TEXT_INTERN_CAP = 1 << 16

#: Token-array memo keyed by source text (see the module docstring for
#: who parses one text twice); sharing the token arrays lexes each text
#: once.  Entries are immutable.
_TOKEN_CACHE: Dict[str, Tuple[List[int], List[str], List[int]]] = {}
_TOKEN_CACHE_MAX = 32

_Tokens = Tuple[List[int], List[str], List[int]]


def _location(source: str, offset: int) -> Tuple[int, int]:
    """(line, column) of a byte offset, 1-based, computed on demand."""
    line = source.count("\n", 0, offset) + 1
    column = offset - source.rfind("\n", 0, offset)
    return line, column


def _lex(source: str) -> _Tokens:
    kinds: List[int] = []
    texts: List[str] = []
    starts: List[int] = []
    kinds_append = kinds.append
    texts_append = texts.append
    starts_append = starts.append
    intern = _TEXT_INTERN
    intern_get = intern.get
    kind_by_char = _KIND_BY_CHAR
    parts = _TOKEN_RE.split(source)
    pos = 0
    for i in range(0, len(parts) - 1, 2):
        gap = parts[i]
        if gap:
            if not gap.isspace():
                offset = pos + len(gap) - len(gap.lstrip())
                line, column = _location(source, offset)
                raise ParseError(
                    f"unexpected character {source[offset]!r}", line, column
                )
            pos += len(gap)
        text = parts[i + 1]
        start = pos
        pos += len(text)
        kind = kind_by_char[text[0]]
        if kind < 0:
            kind = _K_INT if text.lstrip("-").isdigit() else _K_FLOAT
        elif kind == _K_COMMENT:
            continue
        shared = intern_get(text)
        if shared is None:
            if len(intern) < _TEXT_INTERN_CAP:
                intern[text] = text
            shared = text
        kinds_append(kind)
        texts_append(shared)
        starts_append(start)
    tail = parts[-1]
    if tail and not tail.isspace():
        offset = pos + len(tail) - len(tail.lstrip())
        line, column = _location(source, offset)
        raise ParseError(
            f"unexpected character {source[offset]!r}", line, column
        )
    kinds_append(_K_EOF)
    texts_append("")
    starts_append(len(source))
    return kinds, texts, starts


def _tokens_for(source: str) -> _Tokens:
    cached = _TOKEN_CACHE.get(source)
    if cached is not None:
        return cached
    tokens = _lex(source)
    if len(_TOKEN_CACHE) >= _TOKEN_CACHE_MAX:
        _TOKEN_CACHE.pop(next(iter(_TOKEN_CACHE)))
    _TOKEN_CACHE[source] = tokens
    return tokens


# ----- interning ------------------------------------------------------------


class InternTable:
    """Module-wide value interning: one object per distinct constant.

    Keys combine the (already interned) type object with the literal
    text, so parsing a constant that occurred before is a dict hit with
    no integer/float conversion.  Sharing constant *objects* across
    uses is safe: use lists record (user, index) pairs, and every
    use-count heuristic in the compiler guards on ``isinstance(...,
    Instruction)`` first.
    """

    __slots__ = ("constants",)

    def __init__(self) -> None:
        self.constants: Dict[tuple, Constant] = {}

    def int_constant(self, ty: IntType, text: str) -> ConstantInt:
        key = (ty, text)
        c = self.constants.get(key)
        if c is None:
            c = self.constants[key] = ConstantInt(ty, int(text))
        return c  # type: ignore[return-value]

    def float_constant(self, ty: Type, text: str) -> ConstantFloat:
        key = (ty, text)
        c = self.constants.get(key)
        if c is None:
            c = self.constants[key] = ConstantFloat(ty, float(text))
        return c  # type: ignore[return-value]

    def singleton(self, cls, ty: Type) -> Constant:
        key = (cls, ty)
        c = self.constants.get(key)
        if c is None:
            c = self.constants[key] = cls(ty)
        return c


# ----- forward references ---------------------------------------------------


class _Forward(Value):
    """Placeholder for a value referenced before its definition."""

    def __init__(self, name: str) -> None:
        super().__init__(VOID, name)


def _coerce(value: Value, ty: Type) -> Value:
    """Give forward placeholders their real type once it is known."""
    if isinstance(value, _Forward) and value.type.is_void:
        value.type = ty
    return value


# ----- parser ---------------------------------------------------------------

_SIMPLE_TYPES: Dict[str, Type] = {
    "void": VOID,
    "float": F32,
    "double": F64,
    "i1": I1,
    "i8": I8,
    "i16": I16,
    "i32": I32,
    "i64": I64,
}


class Parser:
    """Parses a whole module.  Use :func:`parse_module` instead."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.kinds, self.texts, self.starts = _tokens_for(source)
        self.pos = 0
        self.module = Module()
        self.interns = InternTable()
        # The module's symbol table (its own lookups are linear scans,
        # far too slow for call-heavy bodies), and each define's body
        # span in text order.
        self._symbols: Dict[str, Value] = {}
        self._bodies: Dict[str, Tuple[Function, int, int]] = {}

    # ----- errors ---------------------------------------------------------

    def error(self, message: str, pos: Optional[int] = None) -> ParseError:
        """A ParseError located at token ``pos`` (default: current)."""
        index = self.pos if pos is None else pos
        if index >= len(self.starts):
            index = len(self.starts) - 1
        line, column = _location(self.source, self.starts[index])
        return ParseError(message, line, column)

    def _expected(self, want: str) -> ParseError:
        pos = self.pos
        if self.kinds[pos] == _K_EOF:
            got = "end of input"
        else:
            got = repr(self.texts[pos])
        return self.error(f"expected {want!r}, got {got}")

    # ----- token helpers --------------------------------------------------

    def expect_punct(self, text: str) -> None:
        pos = self.pos
        if self.kinds[pos] == _K_PUNCT and self.texts[pos] == text:
            self.pos = pos + 1
            return
        raise self._expected(text)

    def accept_punct(self, text: str) -> bool:
        pos = self.pos
        if self.kinds[pos] == _K_PUNCT and self.texts[pos] == text:
            self.pos = pos + 1
            return True
        return False

    def expect_ident(self, text: Optional[str] = None) -> str:
        pos = self.pos
        if self.kinds[pos] == _K_IDENT:
            got = self.texts[pos]
            if text is None or got == text:
                self.pos = pos + 1
                return got
        raise self._expected(text or "ident")

    def accept_ident(self, text: str) -> bool:
        pos = self.pos
        if self.kinds[pos] == _K_IDENT and self.texts[pos] == text:
            self.pos = pos + 1
            return True
        return False

    def expect_kind(self, kind: int) -> str:
        pos = self.pos
        if self.kinds[pos] == kind:
            self.pos = pos + 1
            return self.texts[pos]
        raise self._expected(_KIND_NAMES[kind])

    # ----- types ----------------------------------------------------------

    def parse_type(self) -> Type:
        """Parse a type (with pointer suffixes)."""
        pos = self.pos
        kinds = self.kinds
        texts = self.texts
        kind = kinds[pos]
        if kind == _K_IDENT:
            text = texts[pos]
            ty = _SIMPLE_TYPES.get(text)
            if ty is None:
                if text[0] == "i" and text[1:].isdigit():
                    try:
                        ty = IntType(int(text[1:]))
                    except ValueError as error:
                        raise self.error(str(error)) from None
                else:
                    raise self.error(f"unknown type {text!r}")
            pos += 1
        elif kind == _K_LOCAL and texts[pos].startswith("%struct."):
            name = texts[pos][len("%struct."):]
            struct = StructType.get_named(name)
            if struct is None:
                struct = StructType((), name)
            ty = struct
            pos += 1
        elif kind == _K_PUNCT and texts[pos] == "[":
            self.pos = pos + 1
            count_text = self.expect_kind(_K_INT)
            self.expect_ident("x")
            element = self.parse_type()
            self.expect_punct("]")
            try:
                ty = ArrayType(element, int(count_text))
            except ValueError as error:
                raise self.error(str(error)) from None
            pos = self.pos
        elif kind == _K_PUNCT and texts[pos] == "{":
            self.pos = pos + 1
            fields = []
            if not self.accept_punct("}"):
                fields.append(self.parse_type())
                while self.accept_punct(","):
                    fields.append(self.parse_type())
                self.expect_punct("}")
            ty = StructType(fields)
            pos = self.pos
        else:
            raise self._expected("type")
        while kinds[pos] == _K_PUNCT and texts[pos] == "*":
            pos += 1
            ty = PointerType(ty)
        self.pos = pos
        return ty

    # ----- module level ---------------------------------------------------

    def parse_module(self) -> Module:
        """Parse the whole module: top level first, then every body."""
        kinds = self.kinds
        texts = self.texts
        while True:
            kind = kinds[self.pos]
            if kind == _K_EOF:
                break
            text = texts[self.pos]
            if kind == _K_LOCAL and text.startswith("%struct."):
                self._parse_struct_def()
            elif kind == _K_GLOBAL:
                self._parse_global()
            elif kind == _K_IDENT and text == "define":
                self._parse_define()
            elif kind == _K_IDENT and text == "declare":
                self._parse_declare()
            else:
                raise self.error(f"unexpected top-level token {text!r}")
        for fn, start, end in self._bodies.values():
            self._parse_body(fn, start, end)
        return self.module

    def _parse_struct_def(self) -> None:
        name = self.texts[self.pos][len("%struct."):]
        self.pos += 1
        self.expect_punct("=")
        self.expect_ident("type")
        self.expect_punct("{")
        fields = []
        if not self.accept_punct("}"):
            fields.append(self.parse_type())
            while self.accept_punct(","):
                fields.append(self.parse_type())
            self.expect_punct("}")
        try:
            struct = StructType(fields, name)
        except ValueError as error:
            raise self.error(str(error)) from None
        self.module.register_struct(struct)

    def _parse_global(self) -> None:
        name_pos = self.pos
        name = self.texts[name_pos][1:]
        self.pos += 1
        self.expect_punct("=")
        external = self.accept_ident("external")
        is_const = False
        if self.accept_ident("constant"):
            is_const = True
        else:
            self.expect_ident("global")
        value_type = self.parse_type()
        initializer: Optional[Constant] = None
        if not external:
            initializer = self.parse_constant(value_type)
        if name in self._symbols:
            raise self.error(f"redefinition of @{name}", name_pos)
        self._symbols[name] = self.module.add_global(
            name, value_type, initializer, is_const
        )

    def parse_constant(self, ty: Type) -> Constant:
        """Parse a constant of the given type."""
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == _K_INT:
            if not isinstance(ty, IntType):
                raise self.error(f"integer literal for non-integer type {ty}")
            self.pos = pos + 1
            return self.interns.int_constant(ty, text)
        if kind == _K_FLOAT:
            if not isinstance(ty, FloatType):
                raise self.error(f"float literal for non-float type {ty}")
            self.pos = pos + 1
            return self.interns.float_constant(ty, text)
        if kind == _K_IDENT:
            if text == "true" or text == "false":
                self.pos = pos + 1
                return self.interns.int_constant(I1, "1" if text == "true" else "0")
            if text == "undef":
                self.pos = pos + 1
                return self.interns.singleton(UndefValue, ty)
            if text == "null":
                self.pos = pos + 1
                return self.interns.singleton(ConstantNull, ty)
            if text == "zeroinitializer":
                self.pos = pos + 1
                return self.interns.singleton(ConstantZero, ty)
            if (text == "inf" or text == "nan") and isinstance(ty, FloatType):
                self.pos = pos + 1
                return self.interns.float_constant(ty, text)
        if kind == _K_PUNCT and (text == "[" or text == "{"):
            close = "]" if text == "[" else "}"
            self.pos = pos + 1
            elements = []
            if not self.accept_punct(close):
                while True:
                    elem_ty = self.parse_type()
                    elements.append(self.parse_constant(elem_ty))
                    if not self.accept_punct(","):
                        break
                self.expect_punct(close)
            return ConstantAggregate(ty, elements)
        raise self._expected("constant")

    def _parse_function_header(self, is_define: bool) -> Function:
        """Parse ``declare``/``define`` up to ``)`` and bind the function.

        A function may be declared any number of times and defined once,
        all with one type; the definition names the arguments.
        """
        self.pos += 1  # 'declare' / 'define'
        return_type = self.parse_type()
        name_pos = self.pos
        name = self.expect_kind(_K_GLOBAL)[1:]
        self.expect_punct("(")
        params: List[Type] = []
        arg_names: List[str] = []
        vararg = False
        if not self.accept_punct(")"):
            while True:
                if self.kinds[self.pos] == _K_ELLIPSIS:
                    self.pos += 1
                    vararg = True
                    break
                params.append(self.parse_type())
                if self.kinds[self.pos] == _K_LOCAL:
                    arg_names.append(self.texts[self.pos][1:])
                    self.pos += 1
                elif is_define:
                    raise self._expected("local")
                if not self.accept_punct(","):
                    break
            self.expect_punct(")")
        function_type = FunctionType(return_type, params, vararg)
        fn = self._symbols.get(name)
        if fn is None:
            fn = Function(name, function_type, self.module, arg_names)
            self.module.functions.append(fn)
            self._symbols[name] = fn
        elif not isinstance(fn, Function) or (
            is_define and name in self._bodies
        ):
            raise self.error(f"redefinition of @{name}", name_pos)
        elif fn.function_type is not function_type:
            raise self.error(
                f"conflicting types for @{name}: {function_type} "
                f"after {fn.function_type}",
                name_pos,
            )
        elif is_define:
            for argument, arg_name in zip(fn.arguments, arg_names):
                argument.name = arg_name
        return fn

    def _parse_declare(self) -> None:
        fn = self._parse_function_header(is_define=False)
        while self.kinds[self.pos] == _K_IDENT and self.texts[self.pos] in (
            "readnone",
            "readonly",
        ):
            fn.attributes.add(self.texts[self.pos])
            self.pos += 1

    def _parse_define(self) -> None:
        fn = self._parse_function_header(is_define=True)
        self.expect_punct("{")
        body_start = self.pos
        self._bodies[fn.name] = (fn, body_start, self._skip_body())

    def _skip_body(self) -> int:
        """Advance past a brace-balanced body; return the index of ``}``."""
        kinds = self.kinds
        texts = self.texts
        pos = self.pos
        depth = 1
        while True:
            kind = kinds[pos]
            if kind == _K_PUNCT:
                text = texts[pos]
                if text == "{":
                    depth += 1
                elif text == "}":
                    depth -= 1
                    if depth == 0:
                        self.pos = pos + 1
                        return pos
            elif kind == _K_EOF:
                raise self.error("unterminated function body", pos)
            pos += 1

    # ----- function body --------------------------------------------------

    def _parse_body(self, fn: Function, start: int, end: int) -> None:
        self.pos = start
        kinds = self.kinds
        texts = self.texts
        values: Dict[str, Value] = {f"%{a.name}": a for a in fn.arguments}
        forwards: Dict[str, _Forward] = {}

        def lookup_block(label: str) -> BasicBlock:
            key = f"%{label}"
            existing = values.get(key)
            if isinstance(existing, BasicBlock):
                return existing
            placeholder = forwards.get(key)
            if placeholder is None:
                placeholder = forwards[key] = _Forward(label)
            return placeholder  # type: ignore[return-value]

        def lookup_local(name: str) -> Value:
            value = values.get(name)
            if value is not None:
                return value
            placeholder = forwards.get(name)
            if placeholder is None:
                placeholder = forwards[name] = _Forward(name[1:])
            return placeholder

        def define(name: str, value: Value) -> None:
            if name in values:
                raise self.error(f"redefinition of {name}")
            values[name] = value
            pending = forwards.pop(name, None)
            if pending is not None:
                pending.replace_all_uses_with(value)

        block: Optional[BasicBlock] = None
        while self.pos < end:
            pos = self.pos
            kind = kinds[pos]
            # A label introduces a new block: `name:`
            if (
                (kind == _K_IDENT or kind == _K_INT)
                and kinds[pos + 1] == _K_PUNCT
                and texts[pos + 1] == ":"
            ):
                label = texts[pos]
                self.pos = pos + 2
                block = fn.add_block(label)
                define(f"%{label}", block)
                continue
            if block is None:
                block = fn.add_block("entry")
                define("%entry", block)
            name: Optional[str] = None
            if kind == _K_LOCAL:
                name = texts[pos]
                self.pos = pos + 1
                self.expect_punct("=")
            inst = self._parse_instruction_rhs(lookup_local, lookup_block)
            if name is not None:
                inst.name = name[1:]
                define(name, inst)
            block.append(inst)

        if forwards:
            raise self.error(
                f"unresolved references: {', '.join(forwards)}", end
            )

    def _parse_operand(self, ty: Type, lookup_local) -> Value:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == _K_LOCAL:
            self.pos = pos + 1
            return lookup_local(self.texts[pos])
        if kind == _K_GLOBAL:
            self.pos = pos + 1
            name = self.texts[pos][1:]
            target = self._symbols.get(name)
            if target is None:
                raise self.error(f"unknown global @{name}", pos)
            return target
        return self.parse_constant(ty)

    def _parse_instruction_rhs(self, lookup_local, lookup_block) -> "Value":
        pos = self.pos
        if self.kinds[pos] != _K_IDENT:
            raise self._expected("instruction")
        op = self.texts[pos]

        if op in BINARY_OPCODES:
            self.pos = pos + 1
            ty = self.parse_type()
            lhs = self._parse_operand(ty, lookup_local)
            self.expect_punct(",")
            rhs = self._parse_operand(ty, lookup_local)
            return BinaryOp(op, _coerce(lhs, ty), _coerce(rhs, ty))

        if op == "icmp" or op == "fcmp":
            self.pos = pos + 1
            predicate = self.expect_kind(_K_IDENT)
            ty = self.parse_type()
            lhs = self._parse_operand(ty, lookup_local)
            self.expect_punct(",")
            rhs = self._parse_operand(ty, lookup_local)
            cls = ICmp if op == "icmp" else FCmp
            try:
                return cls(predicate, _coerce(lhs, ty), _coerce(rhs, ty))
            except ValueError as error:
                raise self.error(str(error), pos) from None

        if op == "load":
            self.pos = pos + 1
            ty = self.parse_type()
            self.expect_punct(",")
            ptr_ty = self.parse_type()
            pointer = self._parse_operand(ptr_ty, lookup_local)
            return Load(ty, _coerce(pointer, ptr_ty))

        if op == "store":
            self.pos = pos + 1
            val_ty = self.parse_type()
            value = self._parse_operand(val_ty, lookup_local)
            self.expect_punct(",")
            ptr_ty = self.parse_type()
            pointer = self._parse_operand(ptr_ty, lookup_local)
            return Store(_coerce(value, val_ty), _coerce(pointer, ptr_ty))

        if op == "getelementptr":
            self.pos = pos + 1
            source_type = self.parse_type()
            self.expect_punct(",")
            ptr_ty = self.parse_type()
            pointer = self._parse_operand(ptr_ty, lookup_local)
            indices = []
            while self.accept_punct(","):
                idx_ty = self.parse_type()
                indices.append(self._parse_operand(idx_ty, lookup_local))
            try:
                return GetElementPtr(source_type, _coerce(pointer, ptr_ty), indices)
            except ValueError as error:
                raise self.error(str(error), pos) from None

        if op == "br":
            self.pos = pos + 1
            if self.accept_ident("label"):
                label = self.expect_kind(_K_LOCAL)[1:]
                return Br(lookup_block(label))
            cond_ty = self.parse_type()
            cond = self._parse_operand(cond_ty, lookup_local)
            self.expect_punct(",")
            self.expect_ident("label")
            true_label = self.expect_kind(_K_LOCAL)[1:]
            self.expect_punct(",")
            self.expect_ident("label")
            false_label = self.expect_kind(_K_LOCAL)[1:]
            return Br(
                _coerce(cond, cond_ty),
                lookup_block(true_label),
                lookup_block(false_label),
            )

        if op == "phi":
            self.pos = pos + 1
            ty = self.parse_type()
            phi = Phi(ty)
            while True:
                self.expect_punct("[")
                value = self._parse_operand(ty, lookup_local)
                self.expect_punct(",")
                label = self.expect_kind(_K_LOCAL)[1:]
                self.expect_punct("]")
                phi.add_incoming(_coerce(value, ty), lookup_block(label))
                if not self.accept_punct(","):
                    break
            return phi

        if op == "call":
            self.pos = pos + 1
            self.parse_type()  # return type (redundant with callee)
            callee_name = self.expect_kind(_K_GLOBAL)[1:]
            callee = self._symbols.get(callee_name)
            if not isinstance(callee, Function):
                raise self.error(f"unknown function @{callee_name}")
            self.expect_punct("(")
            args = []
            if not self.accept_punct(")"):
                while True:
                    arg_ty = self.parse_type()
                    args.append(
                        _coerce(self._parse_operand(arg_ty, lookup_local), arg_ty)
                    )
                    if not self.accept_punct(","):
                        break
                self.expect_punct(")")
            return Call(callee, args)

        if op in CAST_OPCODES:
            self.pos = pos + 1
            from_ty = self.parse_type()
            value = self._parse_operand(from_ty, lookup_local)
            self.expect_ident("to")
            to_ty = self.parse_type()
            return Cast(op, _coerce(value, from_ty), to_ty)

        if op == "select":
            self.pos = pos + 1
            cond_ty = self.parse_type()
            cond = self._parse_operand(cond_ty, lookup_local)
            self.expect_punct(",")
            a_ty = self.parse_type()
            a = self._parse_operand(a_ty, lookup_local)
            self.expect_punct(",")
            b_ty = self.parse_type()
            b = self._parse_operand(b_ty, lookup_local)
            return Select(_coerce(cond, cond_ty), _coerce(a, a_ty), _coerce(b, b_ty))

        if op == "ret":
            self.pos = pos + 1
            if self.accept_ident("void"):
                return Ret()
            ty = self.parse_type()
            value = self._parse_operand(ty, lookup_local)
            return Ret(_coerce(value, ty))

        if op == "unreachable":
            self.pos = pos + 1
            return Unreachable()

        if op == "alloca":
            self.pos = pos + 1
            ty = self.parse_type()
            return Alloca(ty)

        raise self.error(f"unknown instruction {op!r}")


def parse_module(source: str) -> Module:
    """Parse IR text into a :class:`Module`, every body included."""
    return Parser(source).parse_module()


def parse_function(source: str) -> Function:
    """Parse IR text expected to contain exactly one function definition."""
    module = parse_module(source)
    defs = [f for f in module.functions if not f.is_declaration]
    if len(defs) != 1:
        raise ValueError("expected exactly one function definition")
    return defs[0]


def rename_function_locals(
    source: str, renames: Dict[str, Dict[str, str]]
) -> str:
    """Rewrite local names inside function bodies, textually.

    ``renames`` maps function name -> {old local name -> new local
    name}; locals cover argument names, instruction results, and block
    labels.  The rewrite works on the token stream (comments and
    whitespace are untouched), which is how the driver's in-batch
    dedupe translates a computed result into the namespace of a
    structurally identical duplicate without a parse/print round-trip.

    Unmapped locals that would collide with a new name are deterministically
    renamed out of the way (``x`` -> ``x.r0``, ...).  Names shaped like
    ``struct.*`` are never rewritten: that spelling references a named
    struct type, which the lexer cannot distinguish from a local.
    """
    kinds, texts, starts = _tokens_for(source)
    splices: List[Tuple[int, int, str]] = []
    i = 0
    n = len(kinds)
    while i < n:
        if not (kinds[i] == _K_IDENT and texts[i] == "define"):
            i += 1
            continue
        # Locate the function name and the body's brace span.
        j = i + 1
        while j < n and kinds[j] != _K_GLOBAL:
            j += 1
        if j >= n:
            break
        fn_name = texts[j][1:]
        body_start = j
        while body_start < n and not (
            kinds[body_start] == _K_PUNCT and texts[body_start] == "{"
        ):
            body_start += 1
        if body_start >= n:
            break
        depth = 1
        end = body_start + 1
        while end < n and depth:
            if kinds[end] == _K_PUNCT:
                if texts[end] == "{":
                    depth += 1
                elif texts[end] == "}":
                    depth -= 1
            end += 1
        mapping = renames.get(fn_name)
        if mapping:
            region = range(i + 1, end)
            # Pass 1: collect every local defined/used in this function
            # (argument list included) so capture avoidance can steer
            # unmapped names away from the mapping's image.
            local_names = set()
            for k in region:
                if kinds[k] == _K_LOCAL:
                    local_names.add(texts[k][1:])
                elif (
                    kinds[k] in (_K_IDENT, _K_INT)
                    and k + 1 < n
                    and kinds[k + 1] == _K_PUNCT
                    and texts[k + 1] == ":"
                ):
                    local_names.add(texts[k])
            effective = {
                old: new
                for old, new in mapping.items()
                if old in local_names
                and not old.startswith("struct.")
                and not new.startswith("struct.")
            }
            image = set(effective.values())
            taken = local_names | image
            fresh = 0
            for name in sorted(local_names - set(effective)):
                if name in image:
                    candidate = f"{name}.r{fresh}"
                    while candidate in taken:
                        fresh += 1
                        candidate = f"{name}.r{fresh}"
                    taken.add(candidate)
                    fresh += 1
                    effective[name] = candidate
            # Pass 2: splice the renames in by source offset.
            for k in region:
                if kinds[k] == _K_LOCAL:
                    new = effective.get(texts[k][1:])
                    if new is not None:
                        splices.append(
                            (starts[k], starts[k] + len(texts[k]), "%" + new)
                        )
                elif (
                    kinds[k] in (_K_IDENT, _K_INT)
                    and k + 1 < n
                    and kinds[k + 1] == _K_PUNCT
                    and texts[k + 1] == ":"
                ):
                    new = effective.get(texts[k])
                    if new is not None:
                        splices.append(
                            (starts[k], starts[k] + len(texts[k]), new)
                        )
        i = end
    if not splices:
        return source
    pieces: List[str] = []
    pos = 0
    for start, stop, replacement in splices:
        pieces.append(source[pos:start])
        pieces.append(replacement)
        pos = stop
    pieces.append(source[pos:])
    return "".join(pieces)


def rename_globals(source: str, renames: Dict[str, str]) -> str:
    """Rewrite ``@`` symbol references, textually.

    Companion to :func:`rename_function_locals` for the module level:
    the driver's dedupe uses it to retarget a computed result's
    defined-function names into a structurally identical duplicate's
    namespace (extern and global-variable names hash by content and
    are never in ``renames``).  All occurrences are rewritten --
    definition lines and call sites alike.  The mapping is applied
    simultaneously (splice by source offset), so swaps are safe.
    """
    if not renames:
        return source
    kinds, texts, starts = _tokens_for(source)
    splices: List[Tuple[int, int, str]] = []
    for k in range(len(kinds)):
        if kinds[k] != _K_GLOBAL:
            continue
        new = renames.get(texts[k][1:])
        if new is not None:
            splices.append((starts[k], starts[k] + len(texts[k]), "@" + new))
    if not splices:
        return source
    pieces: List[str] = []
    pos = 0
    for start, stop, replacement in splices:
        pieces.append(source[pos:start])
        pieces.append(replacement)
        pos = stop
    pieces.append(source[pos:])
    return "".join(pieces)
