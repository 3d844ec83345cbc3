"""Lexer for the mini-C language.

The lexer shares :mod:`repro.ir.parser`'s design: one
``re.split`` over a pattern with a single capture group hands back
``[gap, token, gap, token, ..., gap]`` at C speed, with no per-token
Match object.  Whitespace has no alternative; each gap between two
tokens must be blank (``str.isspace``), and the first character of a
gap that is not is the one no token starts with.  Line numbers come
from accumulated newline counts of the gaps (and of the comments and
character literals that may span a newline).  A token's kind follows
from its text alone, so it resolves through a bounded per-text memo.

:func:`lex` returns three parallel arrays (kinds, texts, lines), which
:class:`repro.frontend.parser.CParser` reads by index;
:func:`tokenize` is a :class:`Token` view over the same arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple


KEYWORDS = frozenset(
    {
        "int", "unsigned", "signed", "char", "short", "long", "float",
        "double", "void", "struct", "if", "else", "while", "for", "do",
        "return", "break", "continue", "extern", "static", "const",
        "sizeof",
    }
)

# One capture group around the whole alternation (see the module
# docstring).  Alternatives are tried in order: float and hex before
# int, so ``1.5`` and ``0x10`` are one token each.
_TOKEN_RE = re.compile(
    r"""(
      //[^\n]*|/\*.*?\*/
    | (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\d+[fF]
    | 0[xX][0-9a-fA-F]+[uUlL]*
    | \d+[uUlL]*
    | '(?:\\.|[^'\\])'
    | [A-Za-z_][A-Za-z0-9_]*
    | <<=|>>=|<<|>>|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->
    | [-+*/%<>=!&|^~?:;,.(){}\[\]]
    )""",
    re.VERBOSE | re.DOTALL,
)

#: Token text -> kind, bounded so adversarial inputs cannot grow it
#: without limit (past the cap, kinds are classified every time).
_KIND_MEMO: Dict[str, str] = {}
_KIND_MEMO_CAP = 1 << 14

_Tokens = Tuple[List[str], List[str], List[int]]


@dataclass
class Token:
    """One lexed token: kind, text, and source line."""
    kind: str  # "int" | "float" | "char" | "ident" | "keyword" | "op" | "eof"
    text: str
    line: int


class LexError(Exception):
    """Raised on characters the lexer cannot tokenize."""


def _classify(text: str) -> str:
    """The kind of one token text (``"comment"`` for a comment)."""
    first = text[0]
    if first.isdigit() or (first == "." and len(text) > 1):
        if text[:2] in ("0x", "0X"):
            return "int"
        for mark in ".eEfF":
            if mark in text:
                return "float"
        return "int"
    if first == "'":
        return "char"
    if first == "_" or first.isalpha():
        return "keyword" if text in KEYWORDS else "ident"
    if first == "/" and text[1:2] in ("/", "*"):
        return "comment"
    return "op"


def _stray(gap: str, line: int) -> LexError:
    """The error for the first non-blank character of ``gap``."""
    offset = len(gap) - len(gap.lstrip())
    line += gap.count("\n", 0, offset)
    return LexError(f"line {line}: unexpected character {gap[offset]!r}")


def lex(source: str) -> _Tokens:
    """Split mini-C source into parallel (kinds, texts, lines) arrays.

    Comments and whitespace are dropped; the arrays end with one
    ``"eof"`` token.
    """
    kinds: List[str] = []
    texts: List[str] = []
    lines: List[int] = []
    kinds_append = kinds.append
    texts_append = texts.append
    lines_append = lines.append
    memo = _KIND_MEMO
    memo_get = memo.get
    parts = _TOKEN_RE.split(source)
    line = 1
    for i in range(0, len(parts) - 1, 2):
        gap = parts[i]
        if gap:
            if not gap.isspace():
                raise _stray(gap, line)
            line += gap.count("\n")
        text = parts[i + 1]
        kind = memo_get(text)
        if kind is None:
            kind = _classify(text)
            if kind == "comment":
                line += text.count("\n")
                continue
            if len(memo) < _KIND_MEMO_CAP:
                memo[text] = kind
        kinds_append(kind)
        texts_append(text)
        lines_append(line)
        if kind == "char":
            line += text.count("\n")
    tail = parts[-1]
    if tail:
        if not tail.isspace():
            raise _stray(tail, line)
        line += tail.count("\n")
    kinds_append("eof")
    texts_append("")
    lines_append(line)
    return kinds, texts, lines


def tokenize(source: str) -> List[Token]:
    """Split mini-C source into tokens (comments and whitespace dropped)."""
    return [Token(*token) for token in zip(*lex(source))]
