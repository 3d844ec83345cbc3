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
from .lexer import Token, tokenize


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
    """Parses a translation unit.  Use :func:`parse` instead."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0
        self.structs: Dict[str, CStruct] = {}

    # ----- token plumbing ----------------------------------------------------

    @property
    def tok(self) -> Token:
        """The current token."""
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        """Look ahead without consuming."""
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        """Consume and return the current token."""
        token = self.tok
        self.pos += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """Consume the token if it matches; else None."""
        token = self.tok
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        """Consume a required token or raise CParseError."""
        token = self.accept(kind, text)
        if token is None:
            want = text or kind
            raise CParseError(
                f"expected {want!r}, got {self.tok.text!r}", self.tok.line
            )
        return token

    def error(self, message: str) -> CParseError:
        """A CParseError at the current position."""
        return CParseError(message, self.tok.line)

    # ----- types ----------------------------------------------------------------

    def at_type(self) -> bool:
        """Whether the current token starts a type."""
        token = self.tok
        if token.kind != "keyword":
            return False
        return token.text in (
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
        token = self.tok
        if token.kind != "keyword":
            raise self.error(f"expected type, got {token.text!r}")
        text = token.text
        if text == "struct":
            self.advance()
            name = self.expect("ident").text
            struct = self.structs.get(name)
            if struct is None:
                struct = CStruct(name)
                self.structs[name] = struct
            return struct
        if text == "void":
            self.advance()
            return VOIDT
        if text == "float":
            self.advance()
            return FLOAT
        if text == "double":
            self.advance()
            return DOUBLE

        signed = True
        bits = 32
        saw_any = False
        while self.tok.kind == "keyword" and self.tok.text in (
            "unsigned", "signed", "int", "char", "short", "long"
        ):
            word = self.advance().text
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
        unit = ast.TranslationUnit()
        while self.tok.kind != "eof":
            if (
                self.tok.kind == "keyword"
                and self.tok.text == "struct"
                and self.peek().kind == "ident"
                and self.peek(2).text == "{"
            ):
                unit.items.append(self._parse_struct_def())
                continue
            unit.items.append(self._parse_declaration())
        return unit

    def _parse_array_suffix(self, base: CType) -> CType:
        """``T name[A][B]`` is an A-array of B-arrays of T."""
        counts: List[int] = []
        while self.accept("op", "["):
            counts.append(self._int_value(self.expect("int")))
            self.expect("op", "]")
        ctype = base
        for count in reversed(counts):
            ctype = CArray(ctype, count)
        return ctype

    @staticmethod
    def _int_value(token: Token) -> int:
        """The value of an integer literal: hex after ``0x``, octal
        after any other leading zero, as in C."""
        digits = token.text.rstrip("uUlL")
        octal = len(digits) > 1 and digits[0] == "0" and digits[1] not in "xX"
        try:
            return int(digits, 8 if octal else 0)
        except ValueError:
            raise CParseError(
                f"invalid integer literal {token.text!r}", token.line
            ) from None

    def _parse_struct_def(self) -> ast.StructDef:
        self.expect("keyword", "struct")
        name = self.expect("ident").text
        self.expect("op", "{")
        fields: List[Tuple[str, CType]] = []
        while not self.accept("op", "}"):
            base = self.parse_type()
            while True:
                field_name = self.expect("ident").text
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
        is_extern = False
        is_const = False
        attributes: List[str] = []
        while self.tok.kind == "keyword" and self.tok.text in (
            "extern", "static", "const"
        ):
            word = self.advance().text
            if word == "extern":
                is_extern = True
            elif word == "const":
                is_const = True
        ctype = self.parse_type()
        name = self.expect("ident").text

        if self.accept("op", "("):
            params: List[ast.Param] = []
            if not self.accept("op", ")"):
                if self.tok.kind == "keyword" and self.tok.text == "void" \
                        and self.peek().text == ")":
                    self.advance()
                else:
                    while True:
                        param_type = self.parse_type()
                        param_name = ""
                        if self.tok.kind == "ident":
                            param_name = self.advance().text
                        while self.accept("op", "["):
                            # Array parameters decay to pointers.
                            if self.tok.kind == "int":
                                self.advance()
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
        token = self.tok
        if token.kind == "op" and token.text == "{":
            return self._parse_block()
        if token.kind == "keyword":
            text = token.text
            if text == "if":
                return self._parse_if()
            if text == "while":
                return self._parse_while()
            if text == "do":
                return self._parse_do_while()
            if text == "for":
                return self._parse_for()
            if text == "return":
                self.advance()
                value = None
                if not (self.tok.kind == "op" and self.tok.text == ";"):
                    value = self.parse_expression()
                self.expect("op", ";")
                return ast.Return(value)
            if text == "break":
                self.advance()
                self.expect("op", ";")
                return ast.Break()
            if text == "continue":
                self.advance()
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
            name = self.expect("ident").text
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
        if self.tok.kind == "op" and self.tok.text in _ASSIGN_OPS:
            op = self.advance().text
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
        lhs = self._parse_unary()
        while True:
            token = self.tok
            level = _BINARY_LEVEL.get(token.text) if token.kind == "op" else None
            if level is None or level < min_level:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(level + 1)
            lhs = ast.Binary(token.text, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        token = self.tok
        if token.kind == "op":
            if token.text in ("-", "!", "~", "&", "*", "+"):
                self.advance()
                operand = self._parse_unary()
                if token.text == "+":
                    return operand
                return ast.Unary(token.text, operand)
            if token.text in ("++", "--"):
                self.advance()
                target = self._parse_unary()
                return ast.PreIncDec(token.text, target)
            if token.text == "(":
                # Either a cast or a parenthesised expression.
                saved = self.pos
                self.advance()
                if self.at_type():
                    ctype = self.parse_type()
                    if self.tok.text == ")":
                        self.advance()
                        operand = self._parse_unary()
                        return ast.CastExpr(ctype, operand)
                self.pos = saved
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self.accept("op", "["):
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(expr, index)
            elif self.accept("op", "."):
                name = self.expect("ident").text
                expr = ast.Member(expr, name, False)
            elif self.accept("op", "->"):
                name = self.expect("ident").text
                expr = ast.Member(expr, name, True)
            elif self.tok.kind == "op" and self.tok.text in ("++", "--"):
                op = self.advance().text
                expr = ast.PostIncDec(op, expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self.tok
        if token.kind == "int":
            self.advance()
            text = token.text
            unsigned = "u" in text.lower()
            is_long = "l" in text.lower()
            return ast.IntLit(
                self._int_value(token), unsigned, is_long, text[0] != "0"
            )
        if token.kind == "float":
            self.advance()
            text = token.text
            is_f32 = text[-1] in "fF"
            return ast.FloatLit(float(text.rstrip("fF")), is_f32)
        if token.kind == "char":
            self.advance()
            body = token.text[1:-1]
            if body.startswith("\\"):
                table = {"\\n": 10, "\\t": 9, "\\0": 0, "\\r": 13, "\\\\": 92, "\\'": 39}
                value = table.get(body, ord(body[1]))
            else:
                value = ord(body)
            return ast.IntLit(value)
        if token.kind == "ident":
            name = self.advance().text
            if self.accept("op", "("):
                args: List[ast.Expr] = []
                if not self.accept("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                    self.expect("op", ")")
                return ast.CallExpr(name, args)
            return ast.NameRef(name)
        if token.kind == "op" and token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {token.text!r}")


def parse(source: str) -> ast.TranslationUnit:
    """Parse mini-C source into an AST."""
    return CParser(source).parse_translation_unit()
