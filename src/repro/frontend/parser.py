"""Recursive-descent parser for mini-C."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from . import ast
from .ctypes import (
    CArray,
    CInt,
    CPtr,
    CStruct,
    CType,
    DOUBLE,
    FLOAT,
    VOIDT,
)
from .lexer import lex


class CParseError(Exception):
    """Raised on malformed mini-C source."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_BINARY_PRECEDENCE = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Binding level of every binary operator: its index in
#: ``_BINARY_PRECEDENCE`` (higher binds tighter).
_BINARY_LEVEL = {
    op: level for level, ops in enumerate(_BINARY_PRECEDENCE) for op in ops
}


class CParser:
    """Parses a translation unit.  Use :func:`parse` instead.

    The tokens are the lexer's parallel arrays (``kinds``, ``texts``,
    ``lines``), read by index; ``pos`` is the current token.
    """

    def __init__(self, source: str) -> None:
        self.kinds, self.texts, self.lines = lex(source)
        self.pos = 0
        self.structs: Dict[str, CStruct] = {}

    # ----- token plumbing ----------------------------------------------------

    def peek_text(self, offset: int = 1) -> str:
        """The text ``offset`` tokens ahead, without consuming."""
        return self.texts[min(self.pos + offset, len(self.texts) - 1)]

    def advance(self) -> str:
        """Consume the current token and return its text."""
        pos = self.pos
        self.pos = pos + 1
        return self.texts[pos]

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        """Consume the token if it matches; report whether it did."""
        pos = self.pos
        if self.kinds[pos] == kind and (text is None or self.texts[pos] == text):
            self.pos = pos + 1
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> str:
        """Consume a required token and return its text, or raise
        CParseError."""
        pos = self.pos
        if self.kinds[pos] == kind and (text is None or self.texts[pos] == text):
            self.pos = pos + 1
            return self.texts[pos]
        raise CParseError(
            f"expected {text or kind!r}, got {self.texts[pos]!r}",
            self.lines[pos],
        )

    def error(self, message: str) -> CParseError:
        """A CParseError at the current position."""
        return CParseError(message, self.lines[self.pos])

    # ----- types ----------------------------------------------------------------

    def at_type(self) -> bool:
        """Whether the current token starts a type."""
        pos = self.pos
        if self.kinds[pos] != "keyword":
            return False
        return self.texts[pos] in (
            "int", "unsigned", "signed", "char", "short", "long",
            "float", "double", "void", "struct", "const",
        )

    def parse_type(self) -> CType:
        """Parse a (possibly pointer) type."""
        while self.accept("keyword", "const"):
            pass
        base = self._parse_base_type()
        while self.accept("op", "*"):
            base = CPtr(base)
            while self.accept("keyword", "const"):
                pass
        return base

    def _parse_base_type(self) -> CType:
        kinds, texts = self.kinds, self.texts
        text = texts[self.pos]
        if kinds[self.pos] != "keyword":
            raise self.error(f"expected type, got {text!r}")
        if text == "struct":
            self.pos += 1
            name = self.expect("ident")
            struct = self.structs.get(name)
            if struct is None:
                struct = CStruct(name)
                self.structs[name] = struct
            return struct
        if text == "void":
            self.pos += 1
            return VOIDT
        if text == "float":
            self.pos += 1
            return FLOAT
        if text == "double":
            self.pos += 1
            return DOUBLE

        signed = True
        bits = 32
        saw_any = False
        while kinds[self.pos] == "keyword" and texts[self.pos] in (
            "unsigned", "signed", "int", "char", "short", "long"
        ):
            word = self.advance()
            saw_any = True
            if word == "unsigned":
                signed = False
            elif word == "signed":
                signed = True
            elif word == "char":
                bits = 8
            elif word == "short":
                bits = 16
            elif word == "long":
                bits = 64
            elif word == "int":
                pass
        if not saw_any:
            raise self.error(f"expected type, got {text!r}")
        return CInt(bits, signed)

    # ----- top level -------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        """Parse the whole file."""
        kinds, texts = self.kinds, self.texts
        unit = ast.TranslationUnit()
        while kinds[self.pos] != "eof":
            pos = self.pos
            if (
                kinds[pos] == "keyword"
                and texts[pos] == "struct"
                and kinds[pos + 1] == "ident"
                and self.peek_text(2) == "{"
            ):
                unit.items.append(self._parse_struct_def())
                continue
            unit.items.append(self._parse_declaration())
        return unit

    def _parse_array_suffix(self, base: CType) -> CType:
        """``T name[A][B]`` is an A-array of B-arrays of T."""
        counts: List[int] = []
        while self.accept("op", "["):
            line = self.lines[self.pos]
            counts.append(self._int_value(self.expect("int"), line))
            self.expect("op", "]")
        ctype = base
        for count in reversed(counts):
            ctype = CArray(ctype, count)
        return ctype

    @staticmethod
    def _int_value(text: str, line: int) -> int:
        """The value of an integer literal: hex after ``0x``, octal
        after any other leading zero, as in C."""
        digits = text.rstrip("uUlL")
        octal = len(digits) > 1 and digits[0] == "0" and digits[1] not in "xX"
        try:
            return int(digits, 8 if octal else 0)
        except ValueError:
            raise CParseError(
                f"invalid integer literal {text!r}", line
            ) from None

    def _parse_struct_def(self) -> ast.StructDef:
        self.expect("keyword", "struct")
        name = self.expect("ident")
        self.expect("op", "{")
        fields: List[Tuple[str, CType]] = []
        while not self.accept("op", "}"):
            base = self.parse_type()
            while True:
                field_name = self.expect("ident")
                ctype = self._parse_array_suffix(base)
                fields.append((field_name, ctype))
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        self.expect("op", ";")
        struct = self.structs.get(name)
        if struct is None:
            struct = CStruct(name)
            self.structs[name] = struct
        struct.set_fields(fields)
        return ast.StructDef(name, fields)

    def _parse_declaration(self) -> Union[ast.FunctionDef, ast.GlobalDef]:
        kinds, texts = self.kinds, self.texts
        is_extern = False
        is_const = False
        attributes: List[str] = []
        while kinds[self.pos] == "keyword" and texts[self.pos] in (
            "extern", "static", "const"
        ):
            word = self.advance()
            if word == "extern":
                is_extern = True
            elif word == "const":
                is_const = True
        ctype = self.parse_type()
        name = self.expect("ident")

        if self.accept("op", "("):
            params: List[ast.Param] = []
            if not self.accept("op", ")"):
                if kinds[self.pos] == "keyword" and texts[self.pos] == "void" \
                        and self.peek_text() == ")":
                    self.pos += 1
                else:
                    while True:
                        param_type = self.parse_type()
                        param_name = ""
                        if kinds[self.pos] == "ident":
                            param_name = self.advance()
                        while self.accept("op", "["):
                            # Array parameters decay to pointers.
                            if kinds[self.pos] == "int":
                                self.pos += 1
                            self.expect("op", "]")
                            param_type = CPtr(param_type)
                        params.append(ast.Param(param_type, param_name))
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
            if self.accept("op", ";"):
                return ast.FunctionDef(ctype, name, params, None, attributes)
            body = self._parse_block()
            return ast.FunctionDef(ctype, name, params, body, attributes)

        ctype = self._parse_array_suffix(ctype)
        init: Optional[ast.Expr] = None
        if self.accept("op", "="):
            init = self._parse_initializer()
        self.expect("op", ";")
        return ast.GlobalDef(ctype, name, init, is_extern, is_const)

    def _parse_initializer(self) -> ast.Expr:
        if self.accept("op", "{"):
            elements: List[ast.Expr] = []
            if not self.accept("op", "}"):
                while True:
                    elements.append(self._parse_initializer())
                    if not self.accept("op", ","):
                        break
                self.expect("op", "}")
            return ast.InitList(elements)
        return self.parse_assignment()

    # ----- statements --------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        self.expect("op", "{")
        block = ast.Block()
        while not self.accept("op", "}"):
            block.statements.append(self.parse_statement())
        return block

    def parse_statement(self) -> ast.Stmt:
        """Parse one statement."""
        kind = self.kinds[self.pos]
        text = self.texts[self.pos]
        if kind == "op" and text == "{":
            return self._parse_block()
        if kind == "keyword":
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "do":
                return self._parse_do_while()
            if text == "for":
                return self._parse_for()
            if text == "return":
                self.pos += 1
                value = None
                if not (
                    self.kinds[self.pos] == "op" and self.texts[self.pos] == ";"
                ):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.Return(value)
            if text == "break":
                self.pos += 1
                self.expect("op", ";")
                return ast.Break()
            if text == "continue":
                self.pos += 1
                self.expect("op", ";")
                return ast.Continue()
            if self.at_type():
                return self._parse_decl_stmt()
        stmt = ast.ExprStmt(self.parse_expression())
        self.expect("op", ";")
        return stmt

    def _parse_decl_stmt(self) -> ast.Stmt:
        ctype = self.parse_type()
        decls: List[ast.Stmt] = []
        while True:
            name = self.expect("ident")
            this_type = self._parse_array_suffix(ctype)
            init = None
            if self.accept("op", "="):
                init = self._parse_initializer()
            decls.append(ast.DeclStmt(this_type, name, init))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(decls)

    def _parse_if(self) -> ast.If:
        self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self.parse_statement()
        otherwise = None
        if self.accept("keyword", "else"):
            otherwise = self.parse_statement()
        return ast.If(cond, then, otherwise)

    def _parse_while(self) -> ast.While:
        self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.While(cond, body)

    def _parse_do_while(self) -> ast.DoWhile:
        self.expect("keyword", "do")
        body = self.parse_statement()
        self.expect("keyword", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(body, cond)

    def _parse_for(self) -> ast.For:
        self.expect("keyword", "for")
        self.expect("op", "(")
        init: Optional[Union[ast.Stmt, ast.Expr]] = None
        if not self.accept("op", ";"):
            if self.at_type():
                init = self._parse_decl_stmt()  # consumes the ';'
            else:
                init = ast.ExprStmt(self.parse_expression())
                self.expect("op", ";")
        cond = None
        if not self.accept("op", ";"):
            cond = self.parse_expression()
            self.expect("op", ";")
        step = None
        if not self.accept("op", ")"):
            step = self.parse_expression()
            self.expect("op", ")")
        body = self.parse_statement()
        return ast.For(init, cond, step, body)

    # ----- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        """Parse a full (comma) expression."""
        expr = self.parse_assignment()
        while self.accept("op", ","):
            rhs = self.parse_assignment()
            expr = ast.Binary(",", expr, rhs)
        return expr

    def parse_assignment(self) -> ast.Expr:
        """Parse an assignment-level expression."""
        lhs = self._parse_conditional()
        pos = self.pos
        if self.kinds[pos] == "op" and self.texts[pos] in _ASSIGN_OPS:
            op = self.advance()
            rhs = self.parse_assignment()
            return ast.Assign(op, lhs, rhs)
        return lhs

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self.accept("op", "?"):
            if_true = self.parse_assignment()
            self.expect("op", ":")
            if_false = self._parse_conditional()
            return ast.Conditional(cond, if_true, if_false)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing: a unary operand, then every operator
        binding at ``min_level`` or tighter, grouped to the left."""
        kinds, texts = self.kinds, self.texts
        lhs = self._parse_unary()
        while True:
            pos = self.pos
            op = texts[pos]
            level = _BINARY_LEVEL.get(op) if kinds[pos] == "op" else None
            if level is None or level < min_level:
                return lhs
            self.pos = pos + 1
            rhs = self._parse_binary(level + 1)
            lhs = ast.Binary(op, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        pos = self.pos
        if self.kinds[pos] == "op":
            text = self.texts[pos]
            if text in ("-", "!", "~", "&", "*", "+"):
                self.pos = pos + 1
                operand = self._parse_unary()
                if text == "+":
                    return operand
                return ast.Unary(text, operand)
            if text in ("++", "--"):
                self.pos = pos + 1
                target = self._parse_unary()
                return ast.PreIncDec(text, target)
            if text == "(":
                # Either a cast or a parenthesised expression.
                self.pos = pos + 1
                if self.at_type():
                    ctype = self.parse_type()
                    if self.texts[self.pos] == ")":
                        self.pos += 1
                        operand = self._parse_unary()
                        return ast.CastExpr(ctype, operand)
                self.pos = pos
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        kinds, texts = self.kinds, self.texts
        expr = self._parse_primary()
        while True:
            pos = self.pos
            if kinds[pos] != "op":
                return expr
            text = texts[pos]
            if text == "[":
                self.pos = pos + 1
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(expr, index)
            elif text == ".":
                self.pos = pos + 1
                expr = ast.Member(expr, self.expect("ident"), False)
            elif text == "->":
                self.pos = pos + 1
                expr = ast.Member(expr, self.expect("ident"), True)
            elif text == "++" or text == "--":
                self.pos = pos + 1
                expr = ast.PostIncDec(text, expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == "int":
            self.pos = pos + 1
            lower = text.lower()
            return ast.IntLit(
                self._int_value(text, self.lines[pos]),
                "u" in lower, "l" in lower, text[0] != "0",
            )
        if kind == "float":
            self.pos = pos + 1
            return ast.FloatLit(float(text.rstrip("fF")), text[-1] in "fF")
        if kind == "char":
            self.pos = pos + 1
            body = text[1:-1]
            if body.startswith("\\"):
                table = {"\\n": 10, "\\t": 9, "\\0": 0, "\\r": 13, "\\\\": 92, "\\'": 39}
                value = table.get(body, ord(body[1]))
            else:
                value = ord(body)
            return ast.IntLit(value)
        if kind == "ident":
            self.pos = pos + 1
            if self.accept("op", "("):
                args: List[ast.Expr] = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                    self.expect("op", ")")
                return ast.CallExpr(text, args)
            return ast.NameRef(text)
        if kind == "op" and text == "(":
            self.pos = pos + 1
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {text!r}")


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C source into an AST."""
    return CParser(source).parse_translation_unit()
