"""Tests for the BLC parser."""

import pytest

from repro.bcc import ast_nodes as A, compile_and_link
from repro.bcc.errors import CompileError
from repro.bcc.parser import MAX_NESTING, MAX_OPERATOR_DEPTH, parse
from repro.sim import Machine


def parse_expr(text: str) -> A.Expr:
    program = parse(f"int main() {{ return {text}; }}")
    (func,) = program.decls
    (ret,) = func.body.statements
    return ret.value


def parse_body(text: str):
    program = parse(f"int main() {{ {text} }}")
    return program.decls[0].body.statements


class TestExpressions:
    def test_precedence_mul_over_add(self):
        e = parse_expr("1 + 2 * 3")
        assert isinstance(e, A.Binary) and e.op == "+"
        assert isinstance(e.right, A.Binary) and e.right.op == "*"

    def test_left_associativity(self):
        e = parse_expr("1 - 2 - 3")
        assert e.op == "-" and isinstance(e.left, A.Binary)
        assert e.left.op == "-"

    def test_parentheses(self):
        e = parse_expr("(1 + 2) * 3")
        assert e.op == "*" and isinstance(e.left, A.Binary)

    def test_comparison_below_logic(self):
        e = parse_expr("a < b && c > d")
        assert e.op == "&&"
        assert e.left.op == "<" and e.right.op == ">"

    def test_or_below_and(self):
        e = parse_expr("a || b && c")
        assert e.op == "||"
        assert e.right.op == "&&"

    def test_bitwise_between(self):
        e = parse_expr("a | b ^ c & d")
        assert e.op == "|"
        assert e.right.op == "^"
        assert e.right.right.op == "&"

    def test_shift(self):
        e = parse_expr("a << 2 + 1")
        assert e.op == "<<"
        assert e.right.op == "+"

    def test_assignment_right_associative(self):
        e = parse_expr("a = b = 1")
        assert isinstance(e, A.Assign)
        assert isinstance(e.value, A.Assign)

    def test_compound_assignment(self):
        e = parse_expr("a += 2")
        assert isinstance(e, A.Assign) and e.op == "+"

    def test_ternary(self):
        e = parse_expr("a ? b : c ? d : e")
        assert isinstance(e, A.Cond)
        assert isinstance(e.otherwise, A.Cond)

    def test_unary_chain(self):
        e = parse_expr("-!~*p")
        assert e.op == "-"
        assert e.operand.op == "!"
        assert e.operand.operand.op == "~"
        assert e.operand.operand.operand.op == "*"

    def test_unary_plus_is_noop(self):
        e = parse_expr("+x")
        assert isinstance(e, A.Ident)

    def test_prefix_postfix_incdec(self):
        pre = parse_expr("++x")
        post = parse_expr("x++")
        assert isinstance(pre, A.IncDec) and pre.is_prefix
        assert isinstance(post, A.IncDec) and not post.is_prefix

    def test_call_args(self):
        e = parse_expr("f(1, g(2), 3)")
        assert isinstance(e, A.Call) and len(e.args) == 3
        assert isinstance(e.args[1], A.Call)

    def test_index_and_member_chain(self):
        e = parse_expr("a[1].f->g[2]")
        assert isinstance(e, A.Index)
        assert isinstance(e.base, A.Member) and e.base.arrow
        assert isinstance(e.base.base, A.Member) and not e.base.base.arrow

    def test_cast(self):
        e = parse_expr("(char *)p")
        assert isinstance(e, A.Cast)
        assert e.target_type.base == "char"
        assert e.target_type.pointer_depth == 1

    def test_cast_struct_pointer(self):
        e = parse_expr("(struct Foo *)p")
        assert isinstance(e, A.Cast)
        assert e.target_type.base == ("struct", "Foo")

    def test_sizeof_type(self):
        e = parse_expr("sizeof(int)")
        assert isinstance(e, A.SizeofType)

    def test_sizeof_struct(self):
        e = parse_expr("sizeof(struct Foo)")
        assert e.target_type.base == ("struct", "Foo")

    def test_string_literal(self):
        e = parse_expr('"abc"')
        assert isinstance(e, A.StringLit) and e.value == "abc"

    def test_error_position(self):
        with pytest.raises(CompileError, match="2:"):
            parse("int main() {\n return ); }")


class TestStatements:
    def test_if_else(self):
        (stmt,) = parse_body("if (a) x = 1; else x = 2;")
        assert isinstance(stmt, A.If)
        assert stmt.otherwise is not None

    def test_dangling_else_binds_inner(self):
        (stmt,) = parse_body("if (a) if (b) x = 1; else x = 2;")
        assert stmt.otherwise is None
        assert stmt.then.otherwise is not None

    def test_while(self):
        (stmt,) = parse_body("while (a) { x = 1; }")
        assert isinstance(stmt, A.While)
        assert isinstance(stmt.body, A.Block)

    def test_do_while(self):
        (stmt,) = parse_body("do x = 1; while (a);")
        assert isinstance(stmt, A.DoWhile)

    def test_for_full(self):
        (stmt,) = parse_body("for (i = 0; i < 10; i++) x += i;")
        assert isinstance(stmt, A.For)
        assert stmt.init is not None and stmt.cond is not None
        assert stmt.step is not None

    def test_for_empty_parts(self):
        (stmt,) = parse_body("for (;;) break;")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_for_with_declaration(self):
        (stmt,) = parse_body("for (int i = 0; i < 3; i++) ;")
        assert isinstance(stmt.init, A.VarDecl)

    def test_break_continue_return(self):
        stmts = parse_body("while (1) { break; continue; } return 0;")
        assert isinstance(stmts[-1], A.Return)

    def test_return_void(self):
        program = parse("void f() { return; }")
        (ret,) = program.decls[0].body.statements
        assert ret.value is None

    def test_empty_statement(self):
        (stmt,) = parse_body(";")
        assert isinstance(stmt, A.Empty)

    def test_multi_declarator(self):
        stmts = parse_body("int a, b = 2, *p;")
        assert len(stmts) == 3
        assert all(isinstance(s, A.VarDecl) for s in stmts)
        assert stmts[1].init is not None
        assert stmts[2].declared_type.pointer_depth == 1

    def test_local_array(self):
        (stmt,) = parse_body("double m[4][5];")
        assert stmt.declared_type.array_dims == [4, 5]

    def test_array_dim_must_be_literal(self):
        with pytest.raises(CompileError, match="integer literal"):
            parse_body("int a[n];")

    def test_array_dim_must_be_positive(self):
        with pytest.raises(CompileError, match="positive"):
            parse_body("int a[0];")


class TestTopLevel:
    def test_function_with_params(self):
        program = parse("int f(int a, char *b, double c) { return a; }")
        func = program.decls[0]
        assert [p.name for p in func.params] == ["a", "b", "c"]
        assert func.params[1].declared_type.pointer_depth == 1

    def test_void_param_list(self):
        program = parse("int f(void) { return 0; }")
        assert program.decls[0].params == []

    def test_array_param_decays(self):
        program = parse("int f(int a[]) { return a[0]; }")
        assert program.decls[0].params[0].declared_type.pointer_depth == 1

    def test_array_param_with_size_decays(self):
        program = parse("int f(int a[10]) { return a[0]; }")
        assert program.decls[0].params[0].declared_type.pointer_depth == 1

    def test_globals(self):
        program = parse("int x = 5;\ndouble d;\nchar *s = \"hi\";\n"
                        "int arr[10];")
        assert len(program.decls) == 4
        assert isinstance(program.decls[0].init, A.IntLit)
        assert program.decls[3].declared_type.array_dims == [10]

    def test_multiple_global_declarators(self):
        program = parse("int a, b = 1;")
        assert len(program.decls) == 2

    def test_struct_definition(self):
        program = parse("struct P { int x; int y; double w; };")
        (struct,) = program.decls
        assert isinstance(struct, A.StructDef)
        assert [f[0] for f in struct.fields] == ["x", "y", "w"]

    def test_struct_multi_field_declarators(self):
        program = parse("struct P { int x, y; };")
        assert len(program.decls[0].fields) == 2

    def test_struct_with_pointer_field(self):
        program = parse("struct N { int v; struct N *next; };")
        fields = program.decls[0].fields
        assert fields[1][1].pointer_depth == 1

    def test_struct_array_field(self):
        program = parse("struct B { char name[16]; };")
        assert program.decls[0].fields[0][1].array_dims == [16]

    def test_struct_global_variable(self):
        program = parse("struct P { int x; };\nstruct P origin;")
        assert isinstance(program.decls[1], A.GlobalVar)

    def test_missing_semicolon(self):
        with pytest.raises(CompileError):
            parse("int main() { return 0 }")

    def test_unclosed_block(self):
        with pytest.raises(CompileError):
            parse("int main() { if (1) {")


#: k nested constructs inside one statement and its expression: each
#: program nests k + 2 levels (the statement and its expression root)
_NESTED = {
    "parentheses": lambda k: "int main() { return " + "(" * k + "1"
                             + ")" * k + "; }",
    "prefix operators": lambda k: "int main() { return " + "- " * k
                                  + "1; }",
    "casts": lambda k: "int main() { return " + "(int)" * k + "1; }",
    "indexes": lambda k: "int a[4]; int main() { return " + "a[" * k
                         + "0" + "]" * k + "; }",
    "call arguments": lambda k: "int f(int x) { return x; } "
                                "int main() { return " + "f(" * k + "0"
                                + ")" * k + "; }",
    "assignments": lambda k: "int main() { int a; return " + "a = " * k
                             + "1; }",
    "else-arms": lambda k: "int main() { int a = 1; return "
                           + "a ? 1 : " * k + "2; }",
    "blocks": lambda k: "int main() { " + "{ " * k + "return 0; "
                        + "} " * k + "}",
    "ifs": lambda k: "int main() { int a = 1; " + "if (a) " * k
                     + "return 0; return 1; }",
}


class TestNestingLimit:
    """Past MAX_NESTING levels the parser raises a CompileError at the
    offending token; it never runs out of Python stack."""

    def test_c99_parenthesis_nesting_compiles(self):
        # C99 5.2.4.1: 63 nested parenthesized expressions
        compile_and_link(_NESTED["parentheses"](63))

    @pytest.mark.parametrize("construct", sorted(_NESTED))
    def test_compiles_at_the_limit(self, construct):
        compile_and_link(_NESTED[construct](MAX_NESTING - 2))

    @pytest.mark.parametrize("construct", sorted(_NESTED))
    def test_one_level_more_is_a_compile_error(self, construct):
        with pytest.raises(CompileError,
                           match=f"nesting deeper than {MAX_NESTING}"):
            compile_and_link(_NESTED[construct](MAX_NESTING - 1))

    def test_error_points_at_the_innermost_expression(self):
        k = MAX_NESTING - 1
        source = _NESTED["parentheses"](k)
        with pytest.raises(CompileError) as info:
            parse(source)
        assert (info.value.line, info.value.col) == (1, source.index("1") + 1)


def _sum(terms: int) -> str:
    """``a + a + ... + a``: a flat chain of ``terms - 1`` operators, one
    tree level each."""
    return " + ".join(["a"] * terms)


class TestOperatorDepthLimit:
    """A path through more than MAX_OPERATOR_DEPTH binary operators is a
    CompileError at the operator that crosses it, wherever the chain sits;
    later passes never see a tree deep enough to run out of stack."""

    def test_flat_chain_at_the_limit_compiles_and_runs(self):
        terms = MAX_OPERATOR_DEPTH + 1
        exe = compile_and_link("int main() { int a = 1; print_int("
                               + _sum(terms) + "); return 0; }")
        assert Machine(exe).run().output == str(terms)

    def test_one_operator_more_is_a_compile_error(self):
        source = ("int main() { int a = 1; return "
                  + _sum(MAX_OPERATOR_DEPTH + 2) + "; }")
        with pytest.raises(CompileError,
                           match=f"more than {MAX_OPERATOR_DEPTH} binary"
                                 " operators deep") as info:
            compile_and_link(source)
        # the last `+` is the one that crosses the limit
        assert (info.value.line, info.value.col) == \
            (1, source.rindex("+") + 1)

    @pytest.mark.parametrize("at_limit,past", [
        ("(({chain}) + a)", "(({chain}) + a) * a"),
        ("f({chain}) + a", "f({chain} - a) + a"),
        ("a - f(({chain}))", "a - f(a & ({chain}))"),
        ("g({chain}, a) + a", "g({chain} - a, a) + a"),
    ])
    def test_depth_adds_up_through_parentheses_and_calls(self, at_limit,
                                                         past):
        chain = _sum(MAX_OPERATOR_DEPTH)  # one operator short
        def program(expr):
            return ("int f(int x) { return x; } "
                    "int g(int x, int y) { return x; } "
                    "int main() { int a = 1; return " + expr + "; }")
        compile_and_link(program(at_limit.format(chain=chain)))
        with pytest.raises(CompileError, match="binary operators deep"):
            compile_and_link(program(past.format(chain=chain)))

    def test_siblings_do_not_add_up(self):
        """Only one path counts: two chains side by side (call arguments,
        statements) may each reach the limit."""
        chain = _sum(MAX_OPERATOR_DEPTH + 1)
        compile_and_link(
            "int f(int x, int y) { return x; } int main() { int a = 1; "
            f"a = {chain}; return f({chain}, {chain}); }}")
