"""MiniC parser: AST shapes and syntax errors."""

import pytest

from repro.frontend import ast
from repro.frontend.lexer import CompileError
from repro.frontend.parser import parse


class TestTopLevel:
    def test_struct_def(self):
        prog = parse("struct p { int x; int y; };")
        assert len(prog.structs) == 1
        assert prog.structs[0].name == "p"
        assert [f[1] for f in prog.structs[0].fields] == ["x", "y"]

    def test_recursive_struct_pointer(self):
        prog = parse("struct n { int v; struct n* next; };")
        fty, fname = prog.structs[0].fields[1]
        assert fname == "next" and fty.pointer_depth == 1 and fty.is_struct

    def test_global_scalar(self):
        prog = parse("int g;")
        assert prog.globals[0].name == "g"

    def test_global_array(self):
        prog = parse("double m[4][8];")
        assert prog.globals[0].type.array_dims == (4, 8)

    def test_global_with_init(self):
        prog = parse("int g = 42;")
        assert isinstance(prog.globals[0].init, ast.IntLit)

    def test_const_global(self):
        prog = parse("const int g = 1;")
        assert prog.globals[0].is_const

    def test_function(self):
        prog = parse("int f(int a, double b) { return a; }")
        fn = prog.functions[0]
        assert fn.name == "f"
        assert [p.name for p in fn.params] == ["a", "b"]

    def test_void_params(self):
        prog = parse("void f(void) { }")
        assert prog.functions[0].params == []

    def test_pointer_return(self):
        prog = parse("int* f() { return 0; }")
        assert prog.functions[0].return_type.pointer_depth == 1


class TestStatements:
    def _body(self, src):
        return parse("void f() { " + src + " }").functions[0].body.statements

    def test_decl_with_init(self):
        (stmt,) = self._body("int x = 1;")
        assert isinstance(stmt, ast.DeclStmt) and stmt.name == "x"

    def test_multi_decl(self):
        (stmt,) = self._body("int x = 1, y = 2;")
        assert isinstance(stmt, ast.Block)
        assert [s.name for s in stmt.statements] == ["x", "y"]

    def test_multi_decl_with_star(self):
        (stmt,) = self._body("int x, *p;")
        assert stmt.statements[1].type.pointer_depth == 1

    def test_if_else(self):
        (stmt,) = self._body("if (1) { } else { }")
        assert isinstance(stmt, ast.If) and stmt.otherwise is not None

    def test_dangling_else(self):
        (stmt,) = self._body("if (1) if (2) ; else ;")
        assert stmt.otherwise is None  # else binds to inner if
        assert stmt.then.otherwise is not None

    def test_while(self):
        (stmt,) = self._body("while (x) { }")
        assert isinstance(stmt, ast.While)

    def test_for_full(self):
        (stmt,) = self._body("for (int i = 0; i < 10; i++) { }")
        assert isinstance(stmt.init, ast.DeclStmt)
        assert isinstance(stmt.cond, ast.Binary)
        assert isinstance(stmt.step, ast.Unary)

    def test_for_empty_clauses(self):
        (stmt,) = self._body("for (;;) { break; }")
        assert stmt.init is None and stmt.cond is None and stmt.step is None

    def test_break_continue_return(self):
        stmts = self._body("while (1) { break; continue; } return 3;")
        assert isinstance(stmts[1], ast.Return)


class TestExpressions:
    def _expr(self, src):
        body = parse(f"void f() {{ x = {src}; }}").functions[0].body
        return body.statements[0].expr.value

    def test_precedence_mul_over_add(self):
        e = self._expr("1 + 2 * 3")
        assert e.op == "+" and e.rhs.op == "*"

    def test_precedence_shift_vs_add(self):
        e = self._expr("1 << 2 + 3")
        assert e.op == "<<" and e.rhs.op == "+"

    def test_logical_lowest(self):
        e = self._expr("a == 1 && b == 2")
        assert e.op == "&&"

    def test_assignment_right_associative(self):
        body = parse("void f() { a = b = 1; }").functions[0].body
        outer = body.statements[0].expr
        assert isinstance(outer.value, ast.Assign)

    def test_ternary(self):
        e = self._expr("a ? 1 : 2")
        assert isinstance(e, ast.Conditional)

    def test_unary_chain(self):
        e = self._expr("-~!x")
        assert e.op == "-" and e.operand.op == "~" and e.operand.operand.op == "!"

    def test_deref_and_addr(self):
        e = self._expr("*&y")
        assert e.op == "*" and e.operand.op == "&"

    def test_postfix_increment(self):
        e = self._expr("y++")
        assert e.op == "p++"

    def test_index_chain(self):
        e = self._expr("a[1][2]")
        assert isinstance(e, ast.Index) and isinstance(e.base, ast.Index)

    def test_member_and_arrow(self):
        e = self._expr("a.b->c")
        assert e.arrow and not e.base.arrow

    def test_call_args(self):
        e = self._expr("f(1, g(2), 3)")
        assert isinstance(e, ast.CallExpr) and len(e.args) == 3
        assert isinstance(e.args[1], ast.CallExpr)

    def test_cast(self):
        e = self._expr("(double)y")
        assert isinstance(e, ast.CastExpr) and e.type.base == "double"

    def test_cast_to_struct_pointer(self):
        e = self._expr("(struct n*)p")
        assert e.type.is_struct and e.type.pointer_depth == 1

    def test_parenthesized_not_cast(self):
        e = self._expr("(y) + 1")
        assert e.op == "+"

    def test_sizeof(self):
        e = self._expr("sizeof(int)")
        assert isinstance(e, ast.SizeofExpr)

    def test_compound_assign(self):
        body = parse("void f() { a += 2; }").functions[0].body
        assert body.statements[0].expr.op == "+="


class TestErrors:
    @pytest.mark.parametrize("src", [
        "int f( { }",
        "int f() { return }",
        "int f() { int 3x; }",
        "struct { int x; };",
        "int f() { a[1; }",
        "int a[x];",
    ])
    def test_rejected(self, src):
        with pytest.raises(CompileError):
            parse(src)


class TestNesting:
    """Deep nesting is a positioned CompileError, never a RecursionError."""

    def test_a_hundred_nested_parentheses_compile(self):
        from repro.frontend import compile_minic

        src = "int main(int c) { return " + "c + (" * 100 + "c" + ")" * 100 + "; }"
        compile_minic(src, "parens")

    @pytest.mark.parametrize("src", [
        "int main() { return " + "(" * 10_000 + "1" + ")" * 10_000 + "; }",
        "int main() { " + "{" * 10_000 + "}" * 10_000 + " return 0; }",
        "int main(int c) { return " + "-" * 10_000 + "c; }",
        "int main(int c) { return " + "c ? 1 : " * 10_000 + "2; }",
    ], ids=["parens", "blocks", "unary", "conditional"])
    def test_ten_thousand_levels_are_a_compile_error(self, src):
        from repro.frontend import compile_minic

        with pytest.raises(CompileError, match="nesting too deep") as e:
            compile_minic(src, "deep")
        assert e.value.line == 1 and e.value.col > 1
