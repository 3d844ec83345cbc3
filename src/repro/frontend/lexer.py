"""Lexer for the mini-C language."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List


KEYWORDS = frozenset(
    {
        "int", "unsigned", "signed", "char", "short", "long", "float",
        "double", "void", "struct", "if", "else", "while", "for", "do",
        "return", "break", "continue", "extern", "static", "const",
        "sizeof",
    }
)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<float>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\d+[fF])
    | (?P<hex>0[xX][0-9a-fA-F]+[uUlL]*)
    | (?P<int>\d+[uUlL]*)
    | (?P<char>'(\\.|[^'\\])')
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|[-+*/%<>=!&|^~?:;,.(){}\[\]])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class Token:
    """One lexed token: kind, text, and source line."""
    kind: str  # "int" | "float" | "char" | "ident" | "keyword" | "op" | "eof"
    text: str
    line: int


class LexError(Exception):
    """Raised on characters the lexer cannot tokenize."""


def tokenize(source: str) -> List[Token]:
    """Split mini-C source into tokens (comments and whitespace dropped)."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise LexError(f"line {line}: unexpected character {source[pos]!r}")
        kind = match.lastgroup
        text = match.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            elif kind == "hex":
                kind = "int"
            tokens.append(Token(kind, text, line))
        line += text.count("\n")
        pos = match.end()
    tokens.append(Token("eof", "", line))
    return tokens
