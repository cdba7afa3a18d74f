"""Lexer for BLC, the mini-C language of the benchmark suite.

Tokens carry their source position for diagnostics. Comments are ``//`` to
end of line and ``/* ... */`` (non-nesting).

The scanner is one compiled regular expression (:data:`_TOKEN_RE`), one
named group per token form, matched at successive positions; the rules it
encodes are in docs/blc-language.md ("Lexical structure").
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.bcc.errors import CompileError

__all__ = ["Token", "TokenKind", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset({
    "int", "char", "double", "void", "struct", "if", "else", "while", "for",
    "do", "break", "continue", "return", "sizeof", "NULL",
})

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "->",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
)


class TokenKind:
    """Token categories (plain strings keep match statements readable)."""

    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int_lit"
    DOUBLE = "double_lit"
    CHAR = "char_lit"
    STRING = "string_lit"
    OP = "op"
    EOF = "eof"


class Token(NamedTuple):
    kind: str
    text: str
    value: object = None  #: parsed value for literals
    line: int = 0
    col: int = 0
    filename: str = "<input>"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r} @{self.line}:{self.col})"


_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", '"': '"', "'": "'",
            "r": "\r"}
_ESCAPE = r"\\[" + re.escape("".join(_ESCAPES)) + "]"
#: a string literal up to, not including, its closing quote
_STRING_BODY = rf'"(?:{_ESCAPE}|[^"\\\n])*'

#: One alternative per token form, tried in order at each position.
#: ``word`` catches a token that starts with a non-ASCII letter, or with
#: a digit or numeral that is not decimal, and its handler accepts only a
#: letter (``str.isalpha()``); anything else falls through to ``other``,
#: whose handler names the error. ``\w`` is ``str.isalnum()`` or ``_``
#: and ``\d`` is ``str.isdecimal()``, character for character.
_TOKEN_RE = re.compile("|".join((
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<ident>[A-Za-z_]\w*)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<block>/\*[\s\S]*?\*/)",
    r"(?P<open>/\*)",
    r"(?P<hex>0[xX][0-9a-fA-F]*)",
    r"(?P<double>(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d*)?)",
    r"(?P<int>\d+)",
    "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
    rf"(?P<char>'(?:{_ESCAPE}|[^\\'])')",
    rf'(?P<string>{_STRING_BODY}")',
    r"(?P<word>[^\W\d]\w*)",
    r"(?P<other>[\s\S])",
)))
_STRING_BODY_RE = re.compile(_STRING_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape(body: str) -> str:
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda m: _ESCAPES[m[1]], body)


def _literal_error(source: str, i: int) -> str:
    """Why the char or string literal starting at *i* does not lex."""
    if source[i] == '"':
        end = _STRING_BODY_RE.match(source, i).end()
        if end == len(source):
            return "unterminated string literal"
        if source[end] == "\n":
            return "newline in string literal"
        return "bad escape in string literal"
    first = source[i + 1:i + 2]
    if first == "\\" and source[i + 2:i + 3] not in _ESCAPES:
        return "bad escape in char literal"
    if first in ("", "'"):
        return "empty char literal"
    return "unterminated char literal"


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize *source*; the returned list always ends with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index of the first character of the current line
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "space" or kind == "block":
            if "\n" in text:
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
            continue
        if kind == "comment":
            continue
        i = m.start()
        col = i - line_start + 1
        if kind == "ident":
            if text in KEYWORDS:
                if text == "NULL":
                    append(Token(TokenKind.INT, text, 0, line, col,
                                 filename))
                else:
                    append(Token(TokenKind.KEYWORD, text, None, line, col,
                                 filename))
            else:
                append(Token(TokenKind.IDENT, text, None, line, col,
                             filename))
        elif kind == "op":
            append(Token(TokenKind.OP, text, None, line, col, filename))
        elif kind == "int" or kind == "double" or kind == "hex":
            end = m.end()
            if kind != "hex" and source[end:end + 1].isdigit():
                text += source[end]  # "1²": a digit, but not a decimal one
            try:
                if kind == "int":
                    value = int(text)
                elif kind == "double":
                    value = float(text)
                else:
                    value = int(text, 16)
            except ValueError:
                raise CompileError(f"malformed number literal {text!r}",
                                   line=line, col=col,
                                   filename=filename) from None
            append(Token(TokenKind.DOUBLE if kind == "double"
                         else TokenKind.INT, text, value, line, col,
                         filename))
        elif kind == "char":
            value = text[1] if len(text) == 3 else _ESCAPES[text[2]]
            append(Token(TokenKind.CHAR, text, ord(value), line, col,
                         filename))
            if text[1] == "\n":  # a raw newline between the quotes
                line += 1
                line_start = i + 2
        elif kind == "string":
            append(Token(TokenKind.STRING, text, _unescape(text[1:-1]), line,
                         col, filename))
        elif kind == "open":
            raise CompileError("unterminated /* comment", line=line, col=col,
                               filename=filename)
        elif kind == "word" and text[0].isalpha():
            # an identifier that starts with a non-ASCII letter
            append(Token(TokenKind.IDENT, text, None, line, col, filename))
        else:
            ch = text[0]
            if ch in "'\"":
                message = _literal_error(source, i)
            elif ch.isdigit():
                message = f"malformed number literal {ch!r}"
            else:
                message = f"unexpected character {ch!r}"
            raise CompileError(message, line=line, col=col, filename=filename)
    append(Token(TokenKind.EOF, "", None, line, len(source) - line_start + 1,
                 filename))
    return tokens
