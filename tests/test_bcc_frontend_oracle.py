"""Oracles for the compile front end.

* :func:`_oracle_tokenize` is the character-loop lexer that the regex
  scanner of :mod:`repro.bcc.lexer` replaced, kept verbatim. Both must
  give equal token lists, or both raise a :class:`CompileError` with the
  same message, line and column. The one allowed difference: where the
  oracle's ``int()``/``float()`` raised ``ValueError`` on a malformed
  number, the scanner raises :class:`CompileError`.
* :class:`_LevelParser` keeps the one-call-per-precedence-level
  ``parse_binary`` that precedence climbing replaced; both must build equal
  ASTs (or raise equal errors).
* The runtime is parsed once per process (:func:`runtime_decls`), so the
  freshness tests check that no two compiles share an AST node.

Inputs: the runtime, the 22 suite programs, three generated corpora,
Hypothesis BLC programs, random expressions, random operator chains cut
into statements, and random text over BLC's alphabet with the characters
and fragments that trip scanners.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bcc import ast_nodes as A
from repro.bcc.driver import analyze_source, compile_and_link, runtime_decls
from repro.bcc.errors import CompileError
from repro.bcc.lexer import (
    _ESCAPES, _OPERATORS, KEYWORDS, Token, TokenKind, tokenize,
)
from repro.bcc.parser import _BINARY_LEVELS, _Parser, parse, parse_tokens
from repro.bcc.runtime import RUNTIME_BLC
from repro.bcc.sema import analyze
from repro.bcc.types import TypeSpec
from repro.bench.suite import suite
from repro.gen.corpus import generate_corpus
from repro.testing.strategies import blc_programs


def _oracle_tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize *source*; the returned list always ends with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def error(msg: str) -> CompileError:
        return CompileError(msg, line=line, col=col, filename=filename)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        # whitespace
        if ch in " \t\r\n":
            advance()
            continue
        # comments
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance()
            if i >= n:
                raise CompileError("unterminated /* comment", line=start_line,
                                   col=start_col, filename=filename)
            advance(2)
            continue

        tok_line, tok_col = line, col

        # identifiers / keywords
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
            if text == "NULL":
                tokens.append(Token(TokenKind.INT, text, 0, tok_line, tok_col,
                                    filename))
            else:
                tokens.append(Token(kind, text, None, tok_line, tok_col,
                                    filename))
            advance(j - i)
            continue

        # numbers
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_double = False
            if source.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and source[j] in "0123456789abcdefABCDEF":
                    j += 1
                text = source[i:j]
                tokens.append(Token(TokenKind.INT, text, int(text, 16),
                                    tok_line, tok_col, filename))
                advance(j - i)
                continue
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                is_double = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                is_double = True
                j += 1
                if j < n and source[j] in "+-":
                    j += 1
                while j < n and source[j].isdigit():
                    j += 1
            text = source[i:j]
            if is_double:
                tokens.append(Token(TokenKind.DOUBLE, text, float(text),
                                    tok_line, tok_col, filename))
            else:
                tokens.append(Token(TokenKind.INT, text, int(text),
                                    tok_line, tok_col, filename))
            advance(j - i)
            continue

        # char literal
        if ch == "'":
            j = i + 1
            if j < n and source[j] == "\\":
                if j + 1 >= n or source[j + 1] not in _ESCAPES:
                    raise error("bad escape in char literal")
                value = ord(_ESCAPES[source[j + 1]])
                j += 2
            elif j < n and source[j] != "'":
                value = ord(source[j])
                j += 1
            else:
                raise error("empty char literal")
            if j >= n or source[j] != "'":
                raise error("unterminated char literal")
            j += 1
            tokens.append(Token(TokenKind.CHAR, source[i:j], value,
                                tok_line, tok_col, filename))
            advance(j - i)
            continue

        # string literal
        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\":
                    if j + 1 >= n or source[j + 1] not in _ESCAPES:
                        raise error("bad escape in string literal")
                    chars.append(_ESCAPES[source[j + 1]])
                    j += 2
                elif source[j] == "\n":
                    raise error("newline in string literal")
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            j += 1
            tokens.append(Token(TokenKind.STRING, source[i:j], "".join(chars),
                                tok_line, tok_col, filename))
            advance(j - i)
            continue

        # operators
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token(TokenKind.OP, op, None, tok_line, tok_col,
                                    filename))
                advance(len(op))
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token(TokenKind.EOF, "", None, line, col, filename))
    return tokens


class _LevelParser(_Parser):
    """The parser with one ``parse_binary`` call per precedence level."""

    def parse_binary(self, level: int) -> A.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        ops = _BINARY_LEVELS[level]
        while self.tok.kind == TokenKind.OP and self.tok.text in ops:
            op_tok = self.advance()
            right = self.parse_binary(level + 1)
            left = A.Binary(op_tok.text, left, right,
                            **self._pos_kwargs(op_tok))
        return left


def _error(exc: CompileError) -> tuple:
    return ("CompileError", exc.message, exc.line, exc.col, exc.filename)


def _lexed(lexer, source: str):
    """Tokens (with each value's type, so 1 and 1.0 differ), or the error."""
    try:
        return [(tok, type(tok.value)) for tok in lexer(source, "f.blc")]
    except CompileError as exc:
        return _error(exc)
    except ValueError:
        return "ValueError"


def assert_same_tokens(source: str) -> None:
    expected = _lexed(_oracle_tokenize, source)
    actual = _lexed(tokenize, source)
    if expected == "ValueError":
        assert actual[0] == "CompileError", (source, actual)
    else:
        assert actual == expected, source


def _parsed(parse_program, source: str):
    try:
        tokens = tokenize(source, "f.blc")
    except CompileError:
        return None  # the lexer oracle covers this input
    try:
        return parse_program(tokens)
    except CompileError as exc:
        return _error(exc)


def assert_same_ast(source: str) -> None:
    expected = _parsed(lambda toks: _LevelParser(toks).parse_program(),
                       source)
    actual = _parsed(parse_tokens, source)
    assert actual == expected, source
    assert repr(actual) == repr(expected)


def _sources(group: str) -> list[str]:
    if group == "suite":
        return [RUNTIME_BLC] + [b.source() for b in suite()]
    return [gp.source for gp in generate_corpus(int(group), 64)]


@pytest.mark.parametrize("group", ["suite", "7", "11", "13"])
def test_lexer_matches_the_oracle_on_real_programs(group):
    for source in _sources(group):
        assert_same_tokens(source)


@pytest.mark.parametrize("group", ["suite", "7", "11", "13"])
def test_parser_matches_the_oracle_on_real_programs(group):
    for source in _sources(group):
        assert_same_ast(source)


@settings(max_examples=25, deadline=None)
@given(blc_programs())
def test_front_end_matches_the_oracles_on_generated_programs(program):
    assert_same_tokens(program.source)
    assert_same_ast(program.source)


#: BLC's alphabet, plus what trips scanners: carriage returns and tabs,
#: non-ASCII letters and digits ("²" and "½" are digits or numerals to
#: str but not decimal), unterminated comments, strings and char
#: literals, bad escapes, and malformed numbers
_FRAGMENTS = (
    list("abxyzXE_019 \t\r\n+-*/%=<>!~&|^()[]{};,.?:'\"\\@$#")
    + ["²", "½", "é", "٣", "\xa0", "/*", "*/", "//", "/* a\n */",
       "/*\n\n*/", "// c\n", "0x", "0X1f", "1e", "1.5e+", "2E-3", ".5",
       "1.", "'\\n'", "'a'", "'\n'", '"s\\t"', '"s\n', '"\\q"', "\\q",
       "int", "NULL", "while", "return", "->", "<<=", ">>=", "++"]
)
_text = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(_text)
def test_lexer_matches_the_oracle_on_random_text(text):
    assert_same_tokens(text)


_BINARY_OPS = [op for level in _BINARY_LEVELS for op in level]
_leaves = st.sampled_from(["a", "b", "1", "2.5", "'c'", "NULL", "p[1]",
                           "s.x", "q->y", "f(a, 2)", "i++"])
_chains = st.tuples(_leaves, st.lists(
    st.tuples(st.sampled_from(_BINARY_OPS), _leaves), max_size=5)).map(
    lambda t: t[0] + "".join(f" {op} {e}" for op, e in t[1]))
#: operator chains cut into statements, with stray tokens between them,
#: so that random token text gets past its first few tokens
_token_text = st.lists(st.one_of(
    _chains.map(lambda e: e + ";"),
    st.sampled_from(["int", "if", "else", "while", "return", "(", ")", "{",
                     "}", "[", "]", ";", ",", "?", ":", "=", "+=", "!",
                     "(int)"])), max_size=10).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(_text, _token_text)
def test_parser_matches_the_oracle_on_random_text(text, tokens):
    assert_same_ast(text)
    assert_same_ast(f"int main() {{ {text} }}")
    assert_same_ast(f"int main() {{ {tokens} }}")


def _compound(inner):
    chain = st.tuples(inner, st.lists(
        st.tuples(st.sampled_from(_BINARY_OPS), inner), max_size=5))
    return st.one_of(
        chain.map(lambda t: t[0] + "".join(f" {op} {e}" for op, e in t[1])),
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["-", "!", "~", "*", "&", "+", "++", "--",
                                   "(int)", "(char *)"]), inner)
        .map(" ".join),
        st.tuples(inner, inner, inner).map(
            lambda t: f"{t[0]} ? {t[1]} : {t[2]}"),
        st.tuples(inner, st.sampled_from(["=", "+=", "<<="]), inner)
        .map(" ".join),
    )


_expressions = st.recursive(_leaves, _compound, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_precedence_climbing_matches_the_level_parser(expr):
    assert_same_ast(f"int main() {{ return {expr}; }}")


# -- the runtime template -----------------------------------------------------


def _nodes(root) -> list:
    """Every AST node and type spec reachable from *root*."""
    found, stack = [], [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, (A.Node, TypeSpec)):
            found.append(obj)
            stack.extend(vars(obj).values())
    return found


def _annotations(nodes) -> list:
    """(node type, field) of every field that sema has filled in: a type,
    a symbol, or a resolved ``target_type`` where the parser left a
    :class:`TypeSpec`."""
    found = [(type(node).__name__, name) for node in nodes
             for name in ("ctype", "symbol")
             if getattr(node, name, None) is not None]
    found += [(type(node).__name__, "target_type") for node in nodes
              if isinstance(node, (A.Cast, A.SizeofType))
              and not isinstance(node.target_type, TypeSpec)]
    return found


_MAIN = "int main() { char *p = malloc(8); return strlen(p); }"


def test_two_compiles_share_no_ast_node():
    first = analyze_source(_MAIN, "one.blc").program
    second = analyze_source(_MAIN, "two.blc").program
    first_ids = {id(node) for node in _nodes(first)}
    second_ids = {id(node) for node in _nodes(second)}
    assert len(first_ids) > 400
    assert not first_ids & second_ids


def test_sema_on_one_copy_leaves_the_other_unannotated():
    first, second = runtime_decls(), runtime_decls()
    analyze(A.Program(first + parse(_MAIN).decls))
    assert _annotations(_nodes(first))
    assert _annotations(_nodes(second)) == []
    assert second == runtime_decls()


def test_a_second_compile_gives_the_same_executable():
    source = suite()[0].source()
    first, second = compile_and_link(source), compile_and_link(source)
    assert first.instructions == second.instructions
    assert [(p.name, p.start_index, p.end_index) for p in first.procedures] \
        == [(p.name, p.start_index, p.end_index) for p in second.procedures]
    assert (first.data, first.symbols, first.entry) == \
        (second.data, second.symbols, second.entry)
