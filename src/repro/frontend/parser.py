"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from . import ast
from .lexer import CompileError, TokKind, Token, tokenize

_TYPE_KEYWORDS = {"void", "char", "int", "unsigned", "long", "double", "struct"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# Binary operator -> precedence level; a higher level binds tighter.
# Every binary operator is left-associative.
_BINARY_LEVELS = {
    "||": 0,
    "&&": 1,
    "|": 2,
    "^": 3,
    "&": 4,
    "==": 5, "!=": 5,
    "<": 6, "<=": 6, ">": 6, ">=": 6,
    "<<": 7, ">>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}

_PREFIX_OPS = {"-", "!", "~", "*", "&", "++", "--"}

#: Deepest nesting the parser accepts.  Each recursive step counts one
#: level: a statement, an expression, a unary or cast operand, a
#: conditional's arm (so a parenthesised operand costs two).  Neither the
#: parser nor the lowering spends more than two and a half Python frames
#: a level, so past this depth a program gets a CompileError, not a
#: RecursionError, wherever the caller's stack stands below 200 frames.
MAX_NESTING = 300


class Parser:
    """Recursive-descent MiniC parser with C operator precedence,
    producing the AST consumed by semantic analysis.
    """
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.last = len(tokens) - 1  # the EOF token
        self.depth = 0
        self.struct_names: Set[str] = set()

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = self.pos + offset
        return self.tokens[i if i < self.last else self.last]

    def _enter(self) -> None:
        """One level deeper; see ``MAX_NESTING``.  Callers step back out
        with ``self.depth -= 1`` (a CompileError abandons the parse)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error("nesting too deep")

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def _error(self, message: str, tok: Optional[Token] = None) -> CompileError:
        tok = tok or self._peek()
        return CompileError(message, tok.line, tok.col)

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if not tok.is_punct(text):
            raise self._error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def _expect_ident(self) -> Token:
        tok = self._next()
        if tok.kind is not TokKind.IDENT:
            raise self._error(f"expected identifier, found {tok.text!r}", tok)
        return tok

    def _accept_punct(self, text: str) -> bool:
        if self._peek().is_punct(text):
            self.pos += 1
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self.pos += 1
            return True
        return False

    # -- types ---------------------------------------------------------------

    def _at_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        return tok.kind is TokKind.KEYWORD and tok.text in _TYPE_KEYWORDS

    def parse_type(self) -> ast.TypeExpr:
        tok = self._peek()
        self._accept_keyword("const")
        tok = self._peek()
        if not self._at_type():
            raise self._error(f"expected type, found {tok.text!r}")
        base = self._next().text
        is_struct = False
        if base == "struct":
            name = self._expect_ident()
            base = name.text
            is_struct = True
        elif base == "unsigned":
            # Accept "unsigned [int|long|char]" and bare "unsigned".
            if self._peek().is_keyword("int"):
                self._next()
            elif self._peek().is_keyword("long"):
                self._next()
                base = "unsigned_long"
            elif self._peek().is_keyword("char"):
                self._next()
                base = "unsigned_char"
        elif base == "long":
            if self._peek().is_keyword("long"):
                self._next()
        ty = ast.TypeExpr(tok.line, tok.col, base, is_struct)
        while self._accept_punct("*"):
            ty = ty.with_pointer()
        return ty

    def _parse_array_dims(self) -> Tuple[int, ...]:
        dims: List[int] = []
        while self._accept_punct("["):
            tok = self._next()
            if tok.kind is not TokKind.INT:
                raise self._error("array dimension must be an integer literal", tok)
            dims.append(int(tok.value))  # type: ignore[arg-type]
            self._expect_punct("]")
        return tuple(dims)

    # -- top level -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while self._peek().kind is not TokKind.EOF:
            if self._peek().is_keyword("struct") and self._peek(2).is_punct("{"):
                program.structs.append(self._parse_struct())
                continue
            is_const = self._peek().is_keyword("const")
            ty = self.parse_type()
            name = self._expect_ident()
            if self._peek().is_punct("("):
                program.functions.append(self._parse_function(ty, name))
            else:
                program.globals.append(self._parse_global(ty, name, is_const))
        return program

    def _parse_struct(self) -> ast.StructDef:
        kw = self._next()  # struct
        name = self._expect_ident()
        self.struct_names.add(name.text)
        self._expect_punct("{")
        fields: List[Tuple[ast.TypeExpr, str]] = []
        while not self._accept_punct("}"):
            fty = self.parse_type()
            fname = self._expect_ident()
            dims = self._parse_array_dims()
            if dims:
                fty = ast.TypeExpr(fty.line, fty.col, fty.base, fty.is_struct,
                                   fty.pointer_depth, dims)
            self._expect_punct(";")
            fields.append((fty, fname.text))
        self._expect_punct(";")
        return ast.StructDef(kw.line, kw.col, name.text, fields)

    def _parse_global(self, ty: ast.TypeExpr, name: Token,
                      is_const: bool) -> ast.GlobalDef:
        dims = self._parse_array_dims()
        if dims:
            ty = ast.TypeExpr(ty.line, ty.col, ty.base, ty.is_struct,
                              ty.pointer_depth, dims)
        init = None
        if self._accept_punct("="):
            init = self.parse_expr()
        self._expect_punct(";")
        return ast.GlobalDef(name.line, name.col, ty, name.text, init, is_const)

    def _parse_function(self, ret: ast.TypeExpr, name: Token) -> ast.FunctionDef:
        self._expect_punct("(")
        params: List[ast.Param] = []
        if not self._accept_punct(")"):
            if self._peek().is_keyword("void") and self._peek(1).is_punct(")"):
                self._next()
                self._next()
            else:
                while True:
                    pty = self.parse_type()
                    pname = self._expect_ident()
                    params.append(ast.Param(pname.line, pname.col, pty, pname.text))
                    if self._accept_punct(")"):
                        break
                    self._expect_punct(",")
        body = self.parse_block()
        return ast.FunctionDef(name.line, name.col, ret, name.text, params, body)

    # -- statements --------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        open_tok = self._expect_punct("{")
        block = ast.Block(open_tok.line, open_tok.col)
        while not self._accept_punct("}"):
            block.statements.append(self.parse_statement())
        return block

    def parse_statement(self) -> ast.Stmt:
        self._enter()
        tok = self._peek()
        stmt: ast.Stmt
        if tok.is_punct("{"):
            stmt = self.parse_block()
        elif tok.is_keyword("if"):
            stmt = self._parse_if()
        elif tok.is_keyword("while"):
            stmt = self._parse_while()
        elif tok.is_keyword("for"):
            stmt = self._parse_for()
        elif tok.is_keyword("return"):
            self._next()
            value = None if self._peek().is_punct(";") else self.parse_expr()
            self._expect_punct(";")
            stmt = ast.Return(tok.line, tok.col, value)
        elif tok.is_keyword("break"):
            self._next()
            self._expect_punct(";")
            stmt = ast.Break(tok.line, tok.col)
        elif tok.is_keyword("continue"):
            self._next()
            self._expect_punct(";")
            stmt = ast.Continue(tok.line, tok.col)
        elif self._at_type():
            stmt = self._parse_decl_statement()
        elif tok.is_punct(";"):
            self._next()
            stmt = ast.Block(tok.line, tok.col)
        else:
            expr = self.parse_expr()
            self._expect_punct(";")
            stmt = ast.ExprStmt(tok.line, tok.col, expr)
        self.depth -= 1
        return stmt

    def _parse_decl_statement(self) -> ast.Stmt:
        ty = self.parse_type()
        name = self._expect_ident()
        dims = self._parse_array_dims()
        if dims:
            ty = ast.TypeExpr(ty.line, ty.col, ty.base, ty.is_struct,
                              ty.pointer_depth, dims)
        init = None
        if self._accept_punct("="):
            init = self.parse_expr()
        # Comma-separated declarators share the base type.
        decls: List[ast.Stmt] = [ast.DeclStmt(name.line, name.col, ty, name.text, init)]
        while self._accept_punct(","):
            extra_ty = ty
            depth = 0
            while self._accept_punct("*"):
                depth += 1
            if depth:
                extra_ty = ast.TypeExpr(ty.line, ty.col, ty.base, ty.is_struct,
                                        ty.pointer_depth + depth, ())
            n2 = self._expect_ident()
            d2 = self._parse_array_dims()
            if d2:
                extra_ty = ast.TypeExpr(extra_ty.line, extra_ty.col, extra_ty.base,
                                        extra_ty.is_struct, extra_ty.pointer_depth, d2)
            i2 = None
            if self._accept_punct("="):
                i2 = self.parse_expr()
            decls.append(ast.DeclStmt(n2.line, n2.col, extra_ty, n2.text, i2))
        self._expect_punct(";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(ty.line, ty.col, decls)

    def _parse_if(self) -> ast.If:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expr()
        self._expect_punct(")")
        then = self.parse_statement()
        otherwise = None
        if self._accept_keyword("else"):
            otherwise = self.parse_statement()
        return ast.If(tok.line, tok.col, cond, then, otherwise)

    def _parse_while(self) -> ast.While:
        tok = self._next()
        self._expect_punct("(")
        cond = self.parse_expr()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.While(tok.line, tok.col, cond, body)

    def _parse_for(self) -> ast.For:
        tok = self._next()
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._accept_punct(";"):
            if self._at_type():
                init = self._parse_decl_statement()
            else:
                expr = self.parse_expr()
                self._expect_punct(";")
                init = ast.ExprStmt(tok.line, tok.col, expr)
        cond = None
        if not self._peek().is_punct(";"):
            cond = self.parse_expr()
        self._expect_punct(";")
        step = None
        if not self._peek().is_punct(")"):
            step = self.parse_expr()
        self._expect_punct(")")
        body = self.parse_statement()
        return ast.For(tok.line, tok.col, init, cond, step, body)

    # -- expressions -----------------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        """An assignment expression: a conditional expression, possibly
        assigned to (right-associative)."""
        self._enter()
        expr = self._parse_binary(0)
        tok = self._peek()
        if tok.is_punct("?"):
            expr = self._parse_conditional(expr)
            tok = self._peek()
        if tok.kind is TokKind.PUNCT and tok.text in _ASSIGN_OPS:
            self.pos += 1
            expr = ast.Assign(tok.line, tok.col, tok.text, expr,
                              self.parse_expr())
        self.depth -= 1
        return expr

    def _parse_conditional(self, cond: ast.Expr) -> ast.Expr:
        """``cond ? a : b ? c : ... : z``, right-associative: the arms are
        read in a loop and folded from the right."""
        arms: List[Tuple[Token, ast.Expr, ast.Expr]] = []
        while self._peek().is_punct("?"):
            self._enter()
            tok = self._next()
            then = self.parse_expr()
            self._expect_punct(":")
            arms.append((tok, cond, then))
            cond = self._parse_binary(0)
        for tok, test, then in reversed(arms):
            cond = ast.Conditional(tok.line, tok.col, test, then, cond)
        self.depth -= len(arms)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_BINARY_LEVELS``: operators at
        ``min_level`` or tighter, left-associative."""
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            level = _BINARY_LEVELS.get(tok.text) if tok.kind is TokKind.PUNCT else None
            if level is None or level < min_level:
                return lhs
            self.pos += 1
            rhs = self._parse_binary(level + 1)
            lhs = ast.Binary(tok.line, tok.col, tok.text, lhs, rhs)

    def _at_cast(self) -> bool:
        if not self._peek().is_punct("("):
            return False
        nxt = self._peek(1)
        return nxt.kind is TokKind.KEYWORD and nxt.text in _TYPE_KEYWORDS

    def _parse_unary(self) -> ast.Expr:
        self._enter()
        tok = self._peek()
        if tok.kind is TokKind.PUNCT and tok.text in _PREFIX_OPS:
            self.pos += 1
            expr = ast.Unary(tok.line, tok.col, tok.text, self._parse_unary())
        elif tok.is_keyword("sizeof"):
            self._next()
            self._expect_punct("(")
            ty = self.parse_type()
            dims = self._parse_array_dims()
            if dims:
                ty = ast.TypeExpr(ty.line, ty.col, ty.base, ty.is_struct,
                                  ty.pointer_depth, dims)
            self._expect_punct(")")
            expr = ast.SizeofExpr(tok.line, tok.col, ty)
        elif self._at_cast():
            self._next()  # (
            ty = self.parse_type()
            self._expect_punct(")")
            expr = ast.CastExpr(tok.line, tok.col, ty, self._parse_unary())
        else:
            expr = self._parse_postfix(self._parse_primary())
        self.depth -= 1
        return expr

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        while True:
            tok = self._peek()
            if tok.kind is not TokKind.PUNCT:
                return expr
            if tok.text == "[":
                self._next()
                index = self.parse_expr()
                self._expect_punct("]")
                expr = ast.Index(tok.line, tok.col, expr, index)
            elif tok.text == ".":
                self._next()
                name = self._expect_ident()
                expr = ast.Member(tok.line, tok.col, expr, name.text, arrow=False)
            elif tok.text == "->":
                self._next()
                name = self._expect_ident()
                expr = ast.Member(tok.line, tok.col, expr, name.text, arrow=True)
            elif tok.text == "++" or tok.text == "--":
                self._next()
                expr = ast.Unary(tok.line, tok.col, "p" + tok.text, expr)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._next()
        if tok.kind is TokKind.IDENT:
            if self._peek().is_punct("("):
                self._next()
                args: List[ast.Expr] = []
                if not self._accept_punct(")"):
                    while True:
                        args.append(self.parse_expr())
                        if self._accept_punct(")"):
                            break
                        self._expect_punct(",")
                return ast.CallExpr(tok.line, tok.col, tok.text, args)
            return ast.Ident(tok.line, tok.col, tok.text)
        if tok.kind is TokKind.INT or tok.kind is TokKind.CHAR:
            return ast.IntLit(tok.line, tok.col, int(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokKind.FLOAT:
            return ast.FloatLit(tok.line, tok.col, float(tok.value))  # type: ignore[arg-type]
        if tok.kind is TokKind.STRING:
            return ast.StringLit(tok.line, tok.col, str(tok.value))
        if tok.is_punct("("):
            expr = self.parse_expr()
            self._expect_punct(")")
            return expr
        raise self._error(f"unexpected token {tok.text!r} in expression", tok)


def parse(source: str, filename: str = "<minic>") -> ast.Program:
    return Parser(tokenize(source, filename)).parse_program()
