"""Tests for the BLC lexer."""

import pytest

from repro.bcc.errors import CompileError
from repro.bcc.lexer import Token, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input_gives_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == TokenKind.EOF

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo while whilex _bar")
        assert [t.kind for t in toks[:-1]] == [
            TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.KEYWORD,
            TokenKind.IDENT, TokenKind.IDENT]

    def test_null_is_int_zero(self):
        tok = tokenize("NULL")[0]
        assert tok.kind == TokenKind.INT
        assert tok.value == 0

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].col) == (1, 1)
        assert (toks[1].line, toks[1].col) == (2, 3)

    def test_filename_recorded(self):
        tok = tokenize("x", filename="prog.blc")[0]
        assert tok.filename == "prog.blc"


class TestNumbers:
    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("42", 42), ("0x10", 16), ("0XFF", 255),
    ])
    def test_int_literals(self, text, value):
        tok = tokenize(text)[0]
        assert tok.kind == TokenKind.INT
        assert tok.value == value

    @pytest.mark.parametrize("text,value", [
        ("1.5", 1.5), ("0.25", 0.25), (".5", 0.5), ("2e3", 2000.0),
        ("1.5e-2", 0.015), ("3E+2", 300.0),
    ])
    def test_double_literals(self, text, value):
        tok = tokenize(text)[0]
        assert tok.kind == TokenKind.DOUBLE
        assert tok.value == value

    def test_int_dot_member_not_double(self):
        # "a.b" must lex as ident, dot, ident
        assert kinds("a.b") == [TokenKind.IDENT, TokenKind.OP,
                                TokenKind.IDENT]

    @pytest.mark.parametrize("literal", ["0x", "1e", "1.5e+", "\u00b2",
                                         "1\u00b2"])
    def test_malformed_literal_is_a_compile_error(self, literal):
        # "²" is a digit to str.isdigit() but not a decimal one, so no
        # int() or float() accepts it
        with pytest.raises(CompileError, match="malformed number") as info:
            tokenize(f"int x;\nx = {literal};", filename="n.blc")
        assert (info.value.line, info.value.col) == (2, 5)
        assert info.value.filename == "n.blc"

    def test_non_ascii_decimal_digits_are_decimal(self):
        # like int(): any Unicode decimal digit counts, as before
        tok = tokenize("1\u0663")[0]
        assert (tok.kind, tok.value) == (TokenKind.INT, 13)


class TestCharsAndStrings:
    @pytest.mark.parametrize("text,value", [
        ("'a'", 97), ("'0'", 48), ("'\\n'", 10), ("'\\t'", 9),
        ("'\\0'", 0), ("'\\\\'", 92), ("'\\''", 39),
    ])
    def test_char_literals(self, text, value):
        tok = tokenize(text)[0]
        assert tok.kind == TokenKind.CHAR
        assert tok.value == value

    def test_string_literal(self):
        tok = tokenize('"hi\\n"')[0]
        assert tok.kind == TokenKind.STRING
        assert tok.value == "hi\n"

    def test_unterminated_string(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize('"abc')

    def test_newline_in_string(self):
        with pytest.raises(CompileError, match="newline"):
            tokenize('"ab\ncd"')

    def test_empty_char(self):
        with pytest.raises(CompileError, match="empty"):
            tokenize("''")

    def test_bad_escape(self):
        with pytest.raises(CompileError, match="escape"):
            tokenize("'\\q'")


class TestOperators:
    def test_maximal_munch(self):
        assert texts("a<<=b") == ["a", "<<=", "b"]
        assert texts("a<<b") == ["a", "<<", "b"]
        assert texts("a<b") == ["a", "<", "b"]
        assert texts("p->x") == ["p", "->", "x"]
        assert texts("a- -b") == ["a", "-", "-", "b"]
        assert texts("i++ +j") == ["i", "++", "+", "j"]

    def test_all_compound_assignments(self):
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                   "<<=", ">>="]:
            assert texts(f"a {op} b")[1] == op

    def test_unknown_character(self):
        with pytest.raises(CompileError, match="unexpected"):
            tokenize("a @ b")


class TestComments:
    def test_line_comment(self):
        assert texts("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize("a /* oops")

    def test_comment_position_tracking(self):
        toks = tokenize("/* a\nb */ x")
        assert toks[0].line == 2
        assert toks[0].col == 6


class TestTokenRecord:
    def test_token_is_an_immutable_record(self):
        tok = tokenize("x", filename="f.blc")[0]
        assert tok == Token(TokenKind.IDENT, "x", None, 1, 1, "f.blc")
        assert Token("op", "+").filename == "<input>"
        with pytest.raises(AttributeError):
            tok.text = "y"

    def test_eof_position_follows_the_last_line(self):
        eof = tokenize("a\n  bc")[-1]
        assert (eof.kind, eof.line, eof.col) == (TokenKind.EOF, 2, 5)
