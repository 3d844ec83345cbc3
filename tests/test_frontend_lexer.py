"""The array lexer against a per-match reference tokenizer.

:func:`repro.frontend.lexer.lex` splits a source with one ``re.split``
and classifies token texts through a memo.  The reference below is the
straightforward design it replaced: one ``Match`` per token, the kind
read from the alternative that matched, whitespace and comments
matched as tokens and dropped.  Both must give the same
(kind, text, line) stream, and the same error, on every corpus the
frontend compiles, and the parser reading the arrays by index must
report the same errors at the same lines.
"""

import ast as pyast
import glob
import os
import re

import pytest

from repro.bench import angha, tsvc
from repro.frontend import CParseError, LexError, parse, tokenize
from repro.frontend.lexer import KEYWORDS, lex

_REFERENCE_RE = re.compile(
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


def reference_tokens(source):
    """(kind, text, line) triples, one ``Match`` per token."""
    tokens = []
    pos = 0
    line = 1
    while pos < len(source):
        match = _REFERENCE_RE.match(source, pos)
        if match is None:
            raise LexError(f"line {line}: unexpected character {source[pos]!r}")
        kind = match.lastgroup
        text = match.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and text in KEYWORDS:
                kind = "keyword"
            elif kind == "hex":
                kind = "int"
            tokens.append((kind, text, line))
        line += text.count("\n")
        pos = match.end()
    tokens.append(("eof", "", line))
    return tokens


def outcome(lexer, source):
    try:
        return lexer(source)
    except LexError as error:
        return ("LexError", str(error))


def array_tokens(source):
    return list(zip(*lex(source)))


def frontend_test_strings():
    """Every string literal in the frontend test modules."""
    here = os.path.dirname(__file__)
    strings = []
    for path in sorted(glob.glob(os.path.join(here, "test_frontend*.py"))):
        with open(path) as handle:
            tree = pyast.parse(handle.read())
        strings += [
            node.value
            for node in pyast.walk(tree)
            if isinstance(node, pyast.Constant) and isinstance(node.value, str)
        ]
    return strings


def assert_same_streams(sources):
    for source in sources:
        assert outcome(array_tokens, source) == outcome(reference_tokens, source), (
            source[:200]
        )


class TestSameStreamAsReference:
    def test_angha_draw_of_400(self):
        sources = [cs.source for cs in angha.generate_sources(count=400, seed=2022)]
        assert_same_streams(sources)

    def test_every_tsvc_kernel(self):
        assert_same_streams(tsvc.kernel_source(n) for n in tsvc.kernel_names())

    def test_frontend_test_corpora(self):
        strings = frontend_test_strings()
        assert len(strings) > 500
        assert_same_streams(strings)

    @pytest.mark.parametrize("source", [
        "",
        "   \n\t ",
        "a /* x\ny */ b // z\n c",
        "'\n' x\n y",              # a character literal holding a newline
        "1.5 2.0f .25 1e3 3f 1. 0x1e5 0XfFuL 10ul 017 . .. ...",
        "a<<=b>>=c->d||e&&f++--g",
        "/* never closed\n x",
        "x\n\n  #",
        "x `",
        "int \u0663\u0664 = 1;",   # Unicode decimal digits match \d
        "x\u2003y\n\u00a0z",          # Unicode blanks
        "return 0x;",
    ])
    def test_edge_cases(self, source):
        assert_same_streams([source])

    def test_tokenize_is_a_view_over_the_arrays(self):
        source = "int f(int a) {\n  return a + 0x10u; /* c\n */ }\n"
        view = [(t.kind, t.text, t.line) for t in tokenize(source)]
        assert view == array_tokens(source) == reference_tokens(source)


# Each source's error is pinned to the message and line the per-match
# tokenizer and the Token-object parser gave.
ERRORS = [
    ("int f(void) {\n  int x;\n  x = `1;\n  return x;\n}\n",
     LexError, "line 3: unexpected character '`'"),
    ("int f(void) {\n  return 1;\n}\n\n@\n",
     LexError, "line 5: unexpected character '@'"),
    ("int f(void) {\n  char c = '\n';\n  return c $ 1;\n}\n",
     LexError, "line 4: unexpected character '$'"),
    ("int f(void) {\n  int x = 1;\n  /* never closed\n  return x;\n}\n",
     CParseError, "line 3: unexpected token '/'"),
    ("int f(void) {\n  int x = 1; /* closed */\n  return x; /*\n}\n",
     CParseError, "line 3: unexpected token '/'"),
    ("int g;\n\nint a[\n09];\n",
     CParseError, "line 4: invalid integer literal '09'"),
    ("int f(void) {\n\n\n  return 0778;\n}\n",
     CParseError, "line 4: invalid integer literal '0778'"),
    ("int f(void) {\n  int x = 1;\n  return x +;\n}\n",
     CParseError, "line 3: unexpected token ';'"),
    ("int f(int x) {\n  return x\n}\n",
     CParseError, "line 3: expected ';', got '}'"),
    ("/* a\nb\nc */ int f(void) { return 0x; }\n",
     CParseError, "line 3: expected ';', got 'x'"),
]


@pytest.mark.parametrize("source,error,message", ERRORS)
def test_errors_keep_their_text_and_line(source, error, message):
    with pytest.raises(error) as raised:
        parse(source)
    assert str(raised.value) == message
    if error is LexError:
        assert outcome(array_tokens, source) == ("LexError", message)
        assert outcome(reference_tokens, source) == ("LexError", message)
