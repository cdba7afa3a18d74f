"""Recursive-descent parser for BLC.

Produces the AST of :mod:`repro.bcc.ast_nodes`. Types appear in the AST as
syntactic :class:`~repro.bcc.types.TypeSpec` values; the semantic analyzer
resolves them (struct names may be used before their definition only behind a
pointer).

Binary operators are parsed by precedence climbing (one loop per operand,
not one call per precedence level). Statements, expressions, prefix
operators and ``?:`` else-arms nest at most :data:`MAX_NESTING` levels
deep in total, and a path from an expression's root to a leaf crosses at
most :data:`MAX_OPERATOR_DEPTH` binary operators; one more of either is a
:class:`CompileError`, never a ``RecursionError``.
"""

from __future__ import annotations

from repro.bcc import ast_nodes as A
from repro.bcc.errors import CompileError
from repro.bcc.lexer import Token, TokenKind, tokenize
from repro.bcc.types import TypeSpec

__all__ = ["parse", "parse_tokens", "MAX_NESTING", "MAX_OPERATOR_DEPTH"]

#: How deep statements and expressions may nest, together. Every statement,
#: every expression (a parenthesized one, an index, a call argument, the
#: right side of an assignment, the then-arm of ``?:``), every prefix
#: operator or cast, and every ``?:`` else-arm opens one level. C99 asks
#: for 127 nested blocks and 63 nested parentheses. A level costs the
#: parser at most six Python frames, so the deepest input stays under 800,
#: inside Python's default recursion limit of 1000.
MAX_NESTING = 127

#: How many binary operators one root-to-leaf path of an expression tree
#: may cross. Precedence climbing folds a flat chain (``a + a + ... + a``)
#: in a loop, so MAX_NESTING never sees it, but every later pass walks the
#: tree recursively, about two Python frames per level. Together with
#: MAX_NESTING that keeps the deepest tree under 800 frames.
MAX_OPERATOR_DEPTH = 127

_TYPE_KEYWORDS = frozenset({"int", "char", "double", "void", "struct"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                         "<<=", ">>="})

#: binary operator precedence levels, low to high
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)
#: binary operator -> its index in :data:`_BINARY_LEVELS`
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS)
               for op in ops}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        #: the current token, ``tokens[pos]``
        self.tok = tokens[0]
        #: levels of nesting open at the current token (see MAX_NESTING)
        self.depth = 0
        #: the most binary operators on one path of any expression tree
        #: completed since :meth:`parse_binary` last cleared it
        self.height = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def error(self, message: str, tok: Token | None = None) -> CompileError:
        tok = tok or self.tok
        return CompileError(message, line=tok.line, col=tok.col,
                            filename=tok.filename)

    def at_op(self, *ops: str) -> bool:
        return self.tok.kind == TokenKind.OP and self.tok.text in ops

    def at_keyword(self, *kws: str) -> bool:
        return self.tok.kind == TokenKind.KEYWORD and self.tok.text in kws

    def advance(self) -> Token:
        tok = self.tok
        if tok.kind != TokenKind.EOF:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def enter(self) -> None:
        """Open one level of nesting at the current token; the caller
        closes it with ``self.depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels")

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self.error(f"expected {op!r}, found {self.tok.text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.tok.kind != TokenKind.IDENT:
            raise self.error(f"expected identifier, found {self.tok.text!r}")
        return self.advance()

    def _pos_kwargs(self, tok: Token) -> dict:
        return {"line": tok.line, "col": tok.col, "filename": tok.filename}

    # -- types --------------------------------------------------------------

    def at_type_start(self) -> bool:
        return self.at_keyword(*_TYPE_KEYWORDS)

    def parse_base_type(self) -> TypeSpec:
        tok = self.tok
        if self.at_keyword("struct"):
            self.advance()
            name = self.expect_ident().text
            base: object = ("struct", name)
        elif self.at_keyword("int", "char", "double", "void"):
            base = self.advance().text
        else:
            raise self.error(f"expected type, found {tok.text!r}")
        return TypeSpec(base, line=tok.line, col=tok.col, filename=tok.filename)

    def parse_pointers(self, spec: TypeSpec) -> TypeSpec:
        while self.at_op("*"):
            self.advance()
            spec.pointer_depth += 1
        return spec

    def parse_array_dims(self, spec: TypeSpec) -> TypeSpec:
        while self.at_op("["):
            self.advance()
            if self.tok.kind != TokenKind.INT:
                raise self.error("array dimension must be an integer literal")
            dim = self.advance().value
            if dim <= 0:
                raise self.error("array dimension must be positive")
            spec.array_dims.append(dim)
            self.expect_op("]")
        return spec

    def parse_full_type(self) -> TypeSpec:
        """A complete type usable in casts and sizeof: base + pointers."""
        return self.parse_pointers(self.parse_base_type())

    # -- top level ------------------------------------------------------------

    def parse_program(self) -> A.Program:
        decls: list[A.Node] = []
        while self.tok.kind != TokenKind.EOF:
            decls.extend(self.parse_top_decl())
        return A.Program(decls)

    def parse_top_decl(self) -> list[A.Node]:
        if (self.at_keyword("struct") and self.peek().kind == TokenKind.IDENT
                and self.peek(2).kind == TokenKind.OP
                and self.peek(2).text == "{"):
            return [self.parse_struct_def()]
        base = self.parse_base_type()
        spec = self.parse_pointers(
            TypeSpec(base.base, base.pointer_depth, [], base.line, base.col,
                     base.filename))
        name_tok = self.expect_ident()
        if self.at_op("("):
            return [self.parse_func_def(spec, name_tok)]
        return self.parse_global_tail(base, spec, name_tok)

    def parse_struct_def(self) -> A.StructDef:
        start = self.advance()  # 'struct'
        name = self.expect_ident().text
        self.expect_op("{")
        fields: list[tuple[str, TypeSpec]] = []
        while not self.at_op("}"):
            fbase = self.parse_base_type()
            while True:
                fspec = self.parse_pointers(
                    TypeSpec(fbase.base, 0, [], fbase.line, fbase.col,
                             fbase.filename))
                fname = self.expect_ident().text
                self.parse_array_dims(fspec)
                fields.append((fname, fspec))
                if self.at_op(","):
                    self.advance()
                    continue
                break
            self.expect_op(";")
        self.expect_op("}")
        self.expect_op(";")
        return A.StructDef(name, fields, **self._pos_kwargs(start))

    def parse_func_def(self, spec: TypeSpec, name_tok: Token) -> A.FuncDef:
        self.expect_op("(")
        params: list[A.Param] = []
        if not self.at_op(")"):
            if self.at_keyword("void") and self.peek().kind == TokenKind.OP \
                    and self.peek().text == ")":
                self.advance()
            else:
                while True:
                    ptok = self.tok
                    pspec = self.parse_full_type()
                    pname = self.expect_ident().text
                    # array params decay to pointers
                    if self.at_op("["):
                        self.advance()
                        if self.tok.kind == TokenKind.INT:
                            self.advance()
                        self.expect_op("]")
                        pspec.pointer_depth += 1
                    params.append(A.Param(pname, pspec,
                                          **self._pos_kwargs(ptok)))
                    if self.at_op(","):
                        self.advance()
                        continue
                    break
        self.expect_op(")")
        body = self.parse_block()
        return A.FuncDef(name_tok.text, spec, params, body,
                         **self._pos_kwargs(name_tok))

    def parse_global_tail(self, base: TypeSpec, first_spec: TypeSpec,
                          first_name: Token) -> list[A.Node]:
        decls: list[A.Node] = []
        spec, name_tok = first_spec, first_name
        while True:
            self.parse_array_dims(spec)
            init = None
            if self.at_op("="):
                self.advance()
                init = self.parse_assignment()
            decls.append(A.GlobalVar(name_tok.text, spec, init,
                                     **self._pos_kwargs(name_tok)))
            if self.at_op(","):
                self.advance()
                spec = self.parse_pointers(
                    TypeSpec(base.base, 0, [], base.line, base.col,
                             base.filename))
                name_tok = self.expect_ident()
                continue
            break
        self.expect_op(";")
        return decls

    # -- statements -----------------------------------------------------------

    def parse_block(self) -> A.Block:
        start = self.expect_op("{")
        statements: list[A.Stmt] = []
        while not self.at_op("}"):
            statements.extend(self.parse_statement())
        self.expect_op("}")
        return A.Block(statements, **self._pos_kwargs(start))

    def parse_statement(self) -> list[A.Stmt]:
        """Parse one statement. Returns a list because a declaration with
        multiple declarators desugars into several VarDecl statements."""
        self.enter()
        statements = self._statement()
        self.depth -= 1
        return statements

    def _statement(self) -> list[A.Stmt]:
        tok = self.tok
        if self.at_op("{"):
            return [self.parse_block()]
        if self.at_op(";"):
            self.advance()
            return [A.Empty(**self._pos_kwargs(tok))]
        if self.at_keyword("if"):
            return [self.parse_if()]
        if self.at_keyword("while"):
            return [self.parse_while()]
        if self.at_keyword("do"):
            return [self.parse_do_while()]
        if self.at_keyword("for"):
            return [self.parse_for()]
        if self.at_keyword("break"):
            self.advance()
            self.expect_op(";")
            return [A.Break(**self._pos_kwargs(tok))]
        if self.at_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return [A.Continue(**self._pos_kwargs(tok))]
        if self.at_keyword("return"):
            self.advance()
            value = None if self.at_op(";") else self.parse_expr()
            self.expect_op(";")
            return [A.Return(value, **self._pos_kwargs(tok))]
        if self.at_type_start():
            decls = self.parse_local_decls()
            self.expect_op(";")
            return decls
        expr = self.parse_expr()
        self.expect_op(";")
        return [A.ExprStmt(expr, **self._pos_kwargs(tok))]

    def parse_local_decls(self) -> list[A.Stmt]:
        base = self.parse_base_type()
        decls: list[A.Stmt] = []
        while True:
            spec = self.parse_pointers(
                TypeSpec(base.base, 0, [], base.line, base.col, base.filename))
            name_tok = self.expect_ident()
            self.parse_array_dims(spec)
            init = None
            if self.at_op("="):
                self.advance()
                init = self.parse_assignment()
            decls.append(A.VarDecl(name_tok.text, spec, init,
                                   **self._pos_kwargs(name_tok)))
            if self.at_op(","):
                self.advance()
                continue
            break
        return decls

    def parse_if(self) -> A.If:
        tok = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        then = self._single_statement()
        otherwise = None
        if self.at_keyword("else"):
            self.advance()
            otherwise = self._single_statement()
        return A.If(cond, then, otherwise, **self._pos_kwargs(tok))

    def _single_statement(self) -> A.Stmt:
        stmts = self.parse_statement()
        if len(stmts) == 1:
            return stmts[0]
        return A.Block(stmts, **self._pos_kwargs(self.tok))

    def parse_while(self) -> A.While:
        tok = self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        body = self._single_statement()
        return A.While(cond, body, **self._pos_kwargs(tok))

    def parse_do_while(self) -> A.DoWhile:
        tok = self.advance()
        body = self._single_statement()
        if not self.at_keyword("while"):
            raise self.error("expected 'while' after do-body")
        self.advance()
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        self.expect_op(";")
        return A.DoWhile(body, cond, **self._pos_kwargs(tok))

    def parse_for(self) -> A.For:
        tok = self.advance()
        self.expect_op("(")
        init: A.Stmt | None = None
        if not self.at_op(";"):
            if self.at_type_start():
                decls = self.parse_local_decls()
                init = decls[0] if len(decls) == 1 else A.Block(
                    decls, **self._pos_kwargs(tok))
            else:
                init = A.ExprStmt(self.parse_expr(), **self._pos_kwargs(tok))
        self.expect_op(";")
        cond = None if self.at_op(";") else self.parse_expr()
        self.expect_op(";")
        step = None if self.at_op(")") else self.parse_expr()
        self.expect_op(")")
        body = self._single_statement()
        return A.For(init, cond, step, body, **self._pos_kwargs(tok))

    # -- expressions -----------------------------------------------------------

    def parse_assignment(self) -> A.Expr:
        self.enter()
        left = self.parse_conditional()
        if self.tok.kind == TokenKind.OP and self.tok.text in _ASSIGN_OPS:
            op_tok = self.advance()
            value = self.parse_assignment()
            compound = None if op_tok.text == "=" else op_tok.text[:-1]
            left = A.Assign(left, value, compound, **self._pos_kwargs(op_tok))
        self.depth -= 1
        return left

    #: BLC has no comma operator; an alias, not a wrapper, keeps one
    #: Python frame off every level of parenthesized nesting
    parse_expr = parse_assignment

    def parse_conditional(self) -> A.Expr:
        cond = self.parse_binary(0)
        if self.at_op("?"):
            tok = self.advance()
            then = self.parse_expr()
            self.expect_op(":")
            self.enter()
            otherwise = self.parse_conditional()
            self.depth -= 1
            return A.Cond(cond, then, otherwise, **self._pos_kwargs(tok))
        return cond

    def parse_binary(self, min_level: int) -> A.Expr:
        """Binary operators of level *min_level* (:data:`_BINARY_LEVELS`)
        and up, by precedence climbing: a right operand takes only
        operators that bind tighter, so every level is left-associative.

        Leaves in ``self.height`` the larger of its value on entry and the
        result's operator depth (see :data:`MAX_OPERATOR_DEPTH`)."""
        outer = self.height
        self.height = 0
        left = self.parse_unary()
        height = self.height
        tok = self.tok
        while tok.kind == TokenKind.OP and \
                _PRECEDENCE.get(tok.text, -1) >= min_level:
            self.advance()
            right = self.parse_binary(_PRECEDENCE[tok.text] + 1)
            height = max(height, self.height) + 1
            if height > MAX_OPERATOR_DEPTH:
                raise self.error(f"more than {MAX_OPERATOR_DEPTH} binary "
                                 f"operators deep", tok)
            left = A.Binary(tok.text, left, right, **self._pos_kwargs(tok))
            tok = self.tok
        self.height = max(outer, height)
        return left

    def _prefix_operand(self) -> A.Expr:
        """The operand of a prefix operator or cast, one level deeper."""
        self.enter()
        operand = self.parse_unary()
        self.depth -= 1
        return operand

    def parse_unary(self) -> A.Expr:
        tok = self.tok
        if self.at_op("-", "!", "~", "&", "*"):
            self.advance()
            operand = self._prefix_operand()
            return A.Unary(tok.text, operand, **self._pos_kwargs(tok))
        if self.at_op("+"):
            self.advance()
            return self._prefix_operand()
        if self.at_op("++", "--"):
            self.advance()
            operand = self._prefix_operand()
            return A.IncDec(tok.text, operand, True, **self._pos_kwargs(tok))
        if self.at_keyword("sizeof"):
            self.advance()
            self.expect_op("(")
            spec = self.parse_full_type()
            self.parse_array_dims(spec)
            self.expect_op(")")
            return A.SizeofType(spec, **self._pos_kwargs(tok))
        if self.at_op("(") and self.peek().kind == TokenKind.KEYWORD \
                and self.peek().text in _TYPE_KEYWORDS:
            self.advance()
            spec = self.parse_full_type()
            self.expect_op(")")
            operand = self._prefix_operand()
            return A.Cast(spec, operand, **self._pos_kwargs(tok))
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.tok
            if self.at_op("["):
                self.advance()
                index = self.parse_expr()
                self.expect_op("]")
                expr = A.Index(expr, index, **self._pos_kwargs(tok))
            elif self.at_op("."):
                self.advance()
                name = self.expect_ident().text
                expr = A.Member(expr, name, False, **self._pos_kwargs(tok))
            elif self.at_op("->"):
                self.advance()
                name = self.expect_ident().text
                expr = A.Member(expr, name, True, **self._pos_kwargs(tok))
            elif self.at_op("++", "--"):
                self.advance()
                expr = A.IncDec(tok.text, expr, False, **self._pos_kwargs(tok))
            elif self.at_op("(") and isinstance(expr, A.Ident):
                self.advance()
                args: list[A.Expr] = []
                if not self.at_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if self.at_op(","):
                            self.advance()
                            continue
                        break
                self.expect_op(")")
                expr = A.Call(expr.name, args, **self._pos_kwargs(tok))
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.tok
        if tok.kind == TokenKind.INT:
            self.advance()
            return A.IntLit(tok.value, **self._pos_kwargs(tok))
        if tok.kind == TokenKind.DOUBLE:
            self.advance()
            return A.DoubleLit(tok.value, **self._pos_kwargs(tok))
        if tok.kind == TokenKind.CHAR:
            self.advance()
            return A.CharLit(tok.value, **self._pos_kwargs(tok))
        if tok.kind == TokenKind.STRING:
            self.advance()
            return A.StringLit(tok.value, **self._pos_kwargs(tok))
        if tok.kind == TokenKind.IDENT:
            self.advance()
            return A.Ident(tok.text, **self._pos_kwargs(tok))
        if self.at_op("("):
            self.advance()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        raise self.error(f"unexpected token {tok.text!r} in expression")


def parse_tokens(tokens: list[Token]) -> A.Program:
    """Parse a token stream into a :class:`~repro.bcc.ast_nodes.Program`."""
    parser = _Parser(tokens)
    return parser.parse_program()


def parse(source: str, filename: str = "<input>") -> A.Program:
    """Tokenize and parse *source*."""
    from repro import telemetry
    tm = telemetry.get()
    with tm.span("bcc.lex", category="compile", file=filename):
        tokens = tokenize(source, filename)
    tm.counter("bcc.tokens").inc(len(tokens))
    return parse_tokens(tokens)
