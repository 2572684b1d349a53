"""Lowering from the MiniC AST to the mini-IR, with C-style type checking.

Follows the clang/LLVM playbook: every local variable becomes an ``alloca``
in the function's entry block with explicit loads/stores, arrays decay to
pointers, struct member access becomes byte-offset pointer arithmetic, and
short-circuit operators become control flow.  The mem2reg pass
(:mod:`repro.analysis.mem2reg`) later promotes scalar allocas to SSA.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.builder import IRBuilder
from ..ir.instructions import ALL_INTRINSICS, BinOpKind, CastKind, CmpPred
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import (
    BOOL,
    F64,
    I8,
    I32,
    I64,
    U8,
    U32,
    U64,
    ArrayType,
    FloatType,
    FunctionType,
    IntType,
    IRTypeError,
    PointerType,
    StructField,
    StructType,
    Type,
    VOID,
)
from ..ir.values import ConstFloat, ConstInt, ConstNull, GlobalVariable, Value
from . import ast
from .lexer import CompileError

_BASE_TYPES: Dict[str, Type] = {
    "void": VOID,
    "char": I8,
    "int": I32,
    "unsigned": U32,
    "unsigned_char": U8,
    "long": I64,
    "unsigned_long": U64,
    "double": F64,
}

_ARITH_BINOPS = {
    "+": (BinOpKind.ADD, BinOpKind.FADD),
    "-": (BinOpKind.SUB, BinOpKind.FSUB),
    "*": (BinOpKind.MUL, BinOpKind.FMUL),
    "/": (BinOpKind.DIV, BinOpKind.FDIV),
    "%": (BinOpKind.REM, None),
    "&": (BinOpKind.AND, None),
    "|": (BinOpKind.OR, None),
    "^": (BinOpKind.XOR, None),
    "<<": (BinOpKind.SHL, None),
    ">>": (BinOpKind.SHR, None),
}

_CMP_OPS = {
    "==": CmpPred.EQ, "!=": CmpPred.NE, "<": CmpPred.LT,
    "<=": CmpPred.LE, ">": CmpPred.GT, ">=": CmpPred.GE,
}

#: Typed signatures for the library intrinsics (argument coercion).
_PTR = PointerType()
_INTRINSIC_SIGS: Dict[str, Tuple[Tuple[Type, ...], bool]] = {
    "malloc": ((I64,), False),
    "calloc": ((I64, I64), False),
    "free": ((_PTR,), False),
    "memset": ((_PTR, I32, I64), False),
    "memcpy": ((_PTR, _PTR, I64), False),
    "printf": ((_PTR,), True),
    "puts": ((_PTR,), False),
    "exit": ((I32,), False),
    "abs": ((I64,), False),
    "sqrt": ((F64,), False),
    "exp": ((F64,), False),
    "log": ((F64,), False),
    "sin": ((F64,), False),
    "cos": ((F64,), False),
    "pow": ((F64, F64), False),
    "fabs": ((F64,), False),
    "floor": ((F64,), False),
    "rand_seed": ((I64,), False),
    "rand_int": ((), False),
}


class _RV:
    """An rvalue: IR value plus its MiniC-level type."""

    __slots__ = ("value", "type")

    def __init__(self, value: Value, type_: Type):
        self.value = value
        self.type = type_


class _LV:
    """An lvalue: the address of a location plus the located type."""

    __slots__ = ("addr", "type")

    def __init__(self, addr: Value, type_: Type):
        self.addr = addr
        self.type = type_


class Lowerer:
    """Lowers a type-checked MiniC AST to the typed mini-IR: control
    flow to blocks/branches, lvalues to addresses, with deterministic
    value numbering so module fingerprints are stable.
    """
    def __init__(self, program: ast.Program, module_name: str = "minic"):
        self.program = program
        self.module = Module(module_name)
        self.builder = IRBuilder(self.module)
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self.scopes: List[Dict[str, _LV]] = []
        self.current_fn: Optional[Function] = None
        self.entry_block: Optional[BasicBlock] = None
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []

    # -- errors / types -----------------------------------------------------

    @staticmethod
    def _error(node: ast.Node, message: str) -> CompileError:
        return CompileError(message, node.line, node.col)

    def resolve_type(self, te: ast.TypeExpr) -> Type:
        if te.is_struct:
            if not self.module.types.has_struct(te.base):
                raise self._error(te, f"unknown struct {te.base!r}")
            base: Type = self.module.types.get_struct(te.base)
        else:
            if te.base not in _BASE_TYPES:
                raise self._error(te, f"unknown type {te.base!r}")
            base = _BASE_TYPES[te.base]
        for _ in range(te.pointer_depth):
            base = PointerType(base)
        for dim in reversed(te.array_dims):
            base = ArrayType(base, dim)
        return base

    # -- entry point --------------------------------------------------------

    def lower(self) -> Module:
        # Pass 1: declare struct names (to allow recursive pointers).
        for sd in self.program.structs:
            self.module.types.declare_struct(sd.name)
        # Pass 2: define struct bodies.
        for sd in self.program.structs:
            fields = [
                StructField(name, self.resolve_type(te)) for te, name in sd.fields
            ]
            self.module.types.define_struct(sd.name, fields)
        # Pass 3: globals.
        for gd in self.program.globals:
            self._lower_global(gd)
        # Pass 4: function signatures (allowing forward references).
        for fd in self.program.functions:
            ret = self.resolve_type(fd.return_type)  # type: ignore[arg-type]
            params = tuple(self.resolve_type(p.type) for p in fd.params)  # type: ignore[arg-type]
            fn = Function(fd.name, FunctionType(ret, params),
                          [p.name for p in fd.params])
            self.module.add_function(fn)
            self.functions[fd.name] = fn
        # Pass 5: bodies.
        for fd in self.program.functions:
            self._lower_function(fd)
        return self.module

    # -- globals -----------------------------------------------------------------

    def _lower_global(self, gd: ast.GlobalDef) -> None:
        ty = self.resolve_type(gd.type)  # type: ignore[arg-type]
        init_bytes: Optional[bytes] = None
        if gd.init is not None:
            value = self._const_eval(gd.init)
            init_bytes = self._scalar_bytes(value, ty, gd)
        gv = GlobalVariable(gd.name, ty, init_bytes, constant=gd.is_const)
        self.module.add_global(gv)
        self.globals[gd.name] = gv

    def _const_eval(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_eval(expr.operand)  # type: ignore[arg-type]
        if isinstance(expr, ast.SizeofExpr):
            return self.resolve_type(expr.type).size  # type: ignore[arg-type]
        if isinstance(expr, ast.Binary):
            a = self._const_eval(expr.lhs)  # type: ignore[arg-type]
            b = self._const_eval(expr.rhs)  # type: ignore[arg-type]
            ops = {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
                   "/": lambda: a // b if isinstance(a, int) else a / b}
            if expr.op in ops:
                return ops[expr.op]()
        raise self._error(expr, "global initializer must be a constant expression")

    def _scalar_bytes(self, value, ty: Type, node: ast.Node) -> bytes:
        import struct as _struct

        if isinstance(ty, IntType):
            return (ty.wrap(int(value)) & ((1 << ty.bits) - 1)).to_bytes(
                ty.size, "little"
            )
        if isinstance(ty, FloatType):
            return _struct.pack("<d" if ty.bits == 64 else "<f", float(value))
        raise self._error(node, f"cannot initialize global of type {ty}")

    # -- functions --------------------------------------------------------------------

    def _lower_function(self, fd: ast.FunctionDef) -> None:
        fn = self.functions[fd.name]
        self.current_fn = fn
        self.entry_block = fn.add_block("entry")
        start = fn.add_block("start")
        self.builder.position_at_end(start)
        self.scopes = [{}]

        # Parameters become mutable locals (mem2reg re-promotes them).
        for formal in fn.args:
            slot = self._entry_alloca(formal.type, formal.name)
            self._emit_store_raw(_RV(formal, formal.type), slot)
            self.scopes[-1][formal.name] = slot

        self._lower_block(fd.body)  # type: ignore[arg-type]

        # Implicit return.
        if not self.builder.block.is_terminated:  # type: ignore[union-attr]
            if fn.return_type.is_void():
                self.builder.ret()
            elif fn.return_type.is_float():
                self.builder.ret(0.0)
            elif fn.return_type.is_pointer():
                self.builder.ret(ConstNull())
            else:
                self.builder.ret(ConstInt(fn.return_type, 0))  # type: ignore[arg-type]

        # Seal the entry block: allocas then a jump to the first real block.
        entry_builder = IRBuilder(self.module, self.entry_block)
        entry_builder.br(start)
        self.current_fn = None

    def _entry_alloca(self, ty: Type, name: str) -> _LV:
        entry_builder = IRBuilder(self.module, self.entry_block)
        alloca = entry_builder.alloca(ty, 1, name=name)
        return _LV(alloca, ty)

    # -- scope helpers -------------------------------------------------------------

    def _declare_local(self, node: ast.Node, name: str, ty: Type) -> _LV:
        if name in self.scopes[-1]:
            raise self._error(node, f"redeclaration of {name!r}")
        slot = self._entry_alloca(ty, name)
        self.scopes[-1][name] = slot
        return slot

    def _lookup(self, node: ast.Node, name: str) -> _LV:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            gv = self.globals[name]
            return _LV(gv, gv.value_type)
        raise self._error(node, f"use of undeclared identifier {name!r}")

    # -- statements ------------------------------------------------------------------

    def _new_block(self, name: str) -> BasicBlock:
        assert self.current_fn is not None
        return self.current_fn.add_block(name)

    def _ensure_block(self) -> None:
        """After a terminator, open a fresh (unreachable) block so later
        statements in the source still lower without error."""
        if self.builder.block.is_terminated:  # type: ignore[union-attr]
            dead = self._new_block("dead")
            self.builder.position_at_end(dead)

    def _lower_block(self, block: ast.Block) -> None:
        self.scopes.append({})
        for stmt in block.statements:
            self._lower_stmt(stmt)
        self.scopes.pop()

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        self._ensure_block()
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.break_targets:
                raise self._error(stmt, "break outside of loop")
            self.builder.br(self.break_targets[-1])
        elif isinstance(stmt, ast.Continue):
            if not self.continue_targets:
                raise self._error(stmt, "continue outside of loop")
            self.builder.br(self.continue_targets[-1])
        else:  # pragma: no cover - exhaustive
            raise self._error(stmt, f"unhandled statement {type(stmt).__name__}")

    def _lower_decl(self, stmt: ast.DeclStmt) -> None:
        ty = self.resolve_type(stmt.type)  # type: ignore[arg-type]
        slot = self._declare_local(stmt, stmt.name, ty)
        if stmt.init is not None:
            value = self._lower_expr(stmt.init)
            self._emit_store(stmt, value, slot)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._condition(stmt.cond)  # type: ignore[arg-type]
        then_bb = self._new_block("if.then")
        merge_bb = self._new_block("if.end")
        else_bb = self._new_block("if.else") if stmt.otherwise else merge_bb
        self.builder.condbr(cond, then_bb, else_bb)

        self.builder.position_at_end(then_bb)
        self._lower_stmt(stmt.then)  # type: ignore[arg-type]
        if not self.builder.block.is_terminated:  # type: ignore[union-attr]
            self.builder.br(merge_bb)

        if stmt.otherwise is not None:
            self.builder.position_at_end(else_bb)
            self._lower_stmt(stmt.otherwise)
            if not self.builder.block.is_terminated:  # type: ignore[union-attr]
                self.builder.br(merge_bb)

        self.builder.position_at_end(merge_bb)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block("while.cond")
        body = self._new_block("while.body")
        exit_bb = self._new_block("while.end")
        self.builder.br(header)

        self.builder.position_at_end(header)
        cond = self._condition(stmt.cond)  # type: ignore[arg-type]
        self.builder.condbr(cond, body, exit_bb)

        self.builder.position_at_end(body)
        self.break_targets.append(exit_bb)
        self.continue_targets.append(header)
        self._lower_stmt(stmt.body)  # type: ignore[arg-type]
        self.continue_targets.pop()
        self.break_targets.pop()
        if not self.builder.block.is_terminated:  # type: ignore[union-attr]
            self.builder.br(header)

        self.builder.position_at_end(exit_bb)

    def _lower_for(self, stmt: ast.For) -> None:
        self.scopes.append({})
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        header = self._new_block("for.cond")
        body = self._new_block("for.body")
        latch = self._new_block("for.inc")
        exit_bb = self._new_block("for.end")
        self.builder.br(header)

        self.builder.position_at_end(header)
        if stmt.cond is not None:
            cond = self._condition(stmt.cond)
            self.builder.condbr(cond, body, exit_bb)
        else:
            self.builder.br(body)

        self.builder.position_at_end(body)
        self.break_targets.append(exit_bb)
        self.continue_targets.append(latch)
        self._lower_stmt(stmt.body)  # type: ignore[arg-type]
        self.continue_targets.pop()
        self.break_targets.pop()
        if not self.builder.block.is_terminated:  # type: ignore[union-attr]
            self.builder.br(latch)

        self.builder.position_at_end(latch)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        self.builder.br(header)

        self.builder.position_at_end(exit_bb)
        self.scopes.pop()

    def _lower_return(self, stmt: ast.Return) -> None:
        assert self.current_fn is not None
        ret_ty = self.current_fn.return_type
        if stmt.value is None:
            if not ret_ty.is_void():
                raise self._error(stmt, "return without value in non-void function")
            self.builder.ret()
            return
        value = self._lower_expr(stmt.value)
        converted = self._convert(stmt, value, ret_ty)
        self.builder.ret(converted.value)

    # -- expression dispatch ------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> _RV:
        if isinstance(expr, ast.IntLit):
            ty = I64 if expr.value > 0x7FFFFFFF or expr.value < -0x80000000 else I32
            return _RV(ConstInt(ty, expr.value), ty)
        if isinstance(expr, ast.FloatLit):
            return _RV(ConstFloat(F64, expr.value), F64)
        if isinstance(expr, ast.StringLit):
            gs = self.module.intern_string(expr.value)
            return _RV(gs, PointerType(I8))
        if isinstance(expr, ast.Ident):
            return self._load_lvalue(expr, self._lvalue(expr))
        if isinstance(expr, (ast.Index, ast.Member)):
            return self._load_lvalue(expr, self._lvalue(expr))
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr)
        if isinstance(expr, ast.CastExpr):
            value = self._lower_expr(expr.operand)  # type: ignore[arg-type]
            return self._convert(expr, value, self.resolve_type(expr.type))  # type: ignore[arg-type]
        if isinstance(expr, ast.SizeofExpr):
            size = self.resolve_type(expr.type).size  # type: ignore[arg-type]
            return _RV(ConstInt(I64, size), I64)
        raise self._error(expr, f"unhandled expression {type(expr).__name__}")

    # -- lvalues --------------------------------------------------------------------------

    def _lvalue(self, expr: ast.Expr) -> _LV:
        if isinstance(expr, ast.Ident):
            return self._lookup(expr, expr.name)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            ptr = self._lower_expr(expr.operand)  # type: ignore[arg-type]
            if not isinstance(ptr.type, PointerType) or ptr.type.pointee is None:
                raise self._error(expr, "dereference of non-pointer")
            return _LV(ptr.value, ptr.type.pointee)
        if isinstance(expr, ast.Index):
            return self._index_lvalue(expr)
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        raise self._error(expr, "expression is not assignable")

    def _index_lvalue(self, expr: ast.Index) -> _LV:
        base_expr = expr.base
        assert base_expr is not None
        # Arrays index in place; pointers index through their value.
        base_ty = self._type_of_lvalue_base(base_expr)
        if base_ty is not None and isinstance(base_ty, ArrayType):
            base = self._lvalue(base_expr)
            elem = base.type.element  # type: ignore[union-attr]
            addr_base = base.addr
        else:
            ptr = self._lower_expr(base_expr)
            if not isinstance(ptr.type, PointerType) or ptr.type.pointee is None:
                raise self._error(expr, "indexing a non-pointer")
            elem = ptr.type.pointee
            addr_base = ptr.value
        index = self._lower_expr(expr.index)  # type: ignore[arg-type]
        idx64 = self._convert(expr, index, I64)
        offset = self.builder.mul(idx64.value, elem.size)
        addr = self.builder.ptradd(addr_base, offset, elem)
        return _LV(addr, elem)

    def _type_of_lvalue_base(self, expr: ast.Expr) -> Optional[Type]:
        """Type of an expression *as an lvalue*, or None if not an lvalue.
        Used to distinguish ``arr[i]`` (in-place) from ``ptr[i]``."""
        try:
            if isinstance(expr, ast.Ident):
                return self._lookup(expr, expr.name).type
            if isinstance(expr, ast.Index):
                base_ty = self._type_of_lvalue_base(expr.base)  # type: ignore[arg-type]
                if isinstance(base_ty, ArrayType):
                    return base_ty.element
                if isinstance(base_ty, PointerType):
                    return base_ty.pointee
                return None
            if isinstance(expr, ast.Member):
                st = self._struct_of_member(expr)
                if st is None:
                    return None
                return st.field_type(st.field_index(expr.field_name))
        except CompileError:
            return None
        return None

    def _struct_of_member(self, expr: ast.Member) -> Optional[StructType]:
        base_expr = expr.base
        assert base_expr is not None
        if expr.arrow:
            try:
                ptr_ty = self._type_of_lvalue_base(base_expr)
            except CompileError:
                ptr_ty = None
            if isinstance(ptr_ty, PointerType) and isinstance(ptr_ty.pointee, StructType):
                return ptr_ty.pointee
            return None
        base_ty = self._type_of_lvalue_base(base_expr)
        return base_ty if isinstance(base_ty, StructType) else None

    def _member_lvalue(self, expr: ast.Member) -> _LV:
        assert expr.base is not None
        if expr.arrow:
            ptr = self._lower_expr(expr.base)
            if not isinstance(ptr.type, PointerType) or not isinstance(
                ptr.type.pointee, StructType
            ):
                raise self._error(expr, "-> on non-struct-pointer")
            st = ptr.type.pointee
            base_addr = ptr.value
        else:
            base = self._lvalue(expr.base)
            if not isinstance(base.type, StructType):
                raise self._error(expr, ". on non-struct value")
            st = base.type
            base_addr = base.addr
        try:
            index = st.field_index(expr.field_name)
        except IRTypeError as e:
            raise self._error(expr, str(e)) from None
        field_ty = st.field_type(index)
        offset = st.field_offset(index)
        addr = self.builder.ptradd(base_addr, offset, field_ty,
                                   name=f"{st.name}.{expr.field_name}")
        return _LV(addr, field_ty)

    def _load_lvalue(self, node: ast.Node, lv: _LV) -> _RV:
        if isinstance(lv.type, ArrayType):
            # Array-to-pointer decay.
            return _RV(lv.addr, PointerType(lv.type.element))
        if isinstance(lv.type, StructType):
            # Struct rvalues are only used for member access / address-of;
            # represent them by their address.
            return _RV(lv.addr, PointerType(lv.type))
        load = self.builder.load(lv.addr, lv.type)
        return _RV(load, lv.type)

    # -- stores / conversions --------------------------------------------------------------

    def _emit_store(self, node: ast.Node, value: _RV, slot: _LV) -> _RV:
        converted = self._convert(node, value, slot.type)
        self.builder.store(converted.value, slot.addr)
        return converted

    def _emit_store_raw(self, value: _RV, slot: _LV) -> None:
        self.builder.store(value.value, slot.addr)

    def _convert(self, node: ast.Node, rv: _RV, to_ty: Type) -> _RV:
        from_ty = rv.type
        if from_ty == to_ty:
            return rv
        b = self.builder
        if isinstance(from_ty, IntType) and isinstance(to_ty, IntType):
            if to_ty.bits > from_ty.bits:
                kind = CastKind.SEXT if from_ty.signed else CastKind.ZEXT
            else:
                kind = CastKind.TRUNC
            return _RV(b.cast(kind, rv.value, to_ty), to_ty)
        if isinstance(from_ty, IntType) and isinstance(to_ty, FloatType):
            kind = CastKind.SITOFP if from_ty.signed else CastKind.UITOFP
            return _RV(b.cast(kind, rv.value, to_ty), to_ty)
        if isinstance(from_ty, FloatType) and isinstance(to_ty, IntType):
            kind = CastKind.FPTOSI if to_ty.signed else CastKind.FPTOUI
            return _RV(b.cast(kind, rv.value, to_ty), to_ty)
        if isinstance(from_ty, FloatType) and isinstance(to_ty, FloatType):
            kind = CastKind.FPEXT if to_ty.bits > from_ty.bits else CastKind.FPTRUNC
            return _RV(b.cast(kind, rv.value, to_ty), to_ty)
        if isinstance(from_ty, PointerType) and isinstance(to_ty, PointerType):
            return _RV(b.cast(CastKind.BITCAST, rv.value, to_ty), to_ty)
        if isinstance(from_ty, IntType) and isinstance(to_ty, PointerType):
            return _RV(b.cast(CastKind.INTTOPTR, rv.value, to_ty), to_ty)
        if isinstance(from_ty, PointerType) and isinstance(to_ty, IntType):
            return _RV(b.cast(CastKind.PTRTOINT, rv.value, to_ty), to_ty)
        raise self._error(node, f"cannot convert {from_ty} to {to_ty}")

    def _condition(self, expr: ast.Expr) -> Value:
        rv = self._lower_expr(expr)
        if rv.type == BOOL:
            return rv.value
        if isinstance(rv.type, IntType):
            return self.builder.icmp(CmpPred.NE, rv.value, ConstInt(rv.type, 0))
        if isinstance(rv.type, PointerType):
            return self.builder.icmp(CmpPred.NE, rv.value, ConstNull(rv.type))
        if isinstance(rv.type, FloatType):
            return self.builder.fcmp(CmpPred.NE, rv.value, ConstFloat(rv.type, 0.0))
        raise self._error(expr, f"type {rv.type} is not a condition")

    # -- unary / binary --------------------------------------------------------------------

    def _lower_unary(self, expr: ast.Unary) -> _RV:
        assert expr.operand is not None
        op = expr.op
        if op == "&":
            lv = self._lvalue(expr.operand)
            return _RV(lv.addr, PointerType(lv.type))
        if op == "*":
            lv = self._lvalue(expr)
            return self._load_lvalue(expr, lv)
        if op in ("++", "--", "p++", "p--"):
            return self._lower_incdec(expr)
        rv = self._lower_expr(expr.operand)
        rv = self._bool_to_int(rv)
        if op == "-":
            if isinstance(rv.type, FloatType):
                return _RV(self.builder.fsub(ConstFloat(rv.type, 0.0), rv.value), rv.type)
            if isinstance(rv.type, IntType):
                return _RV(self.builder.sub(ConstInt(rv.type, 0), rv.value), rv.type)
            raise self._error(expr, "unary - on non-numeric value")
        if op == "!":
            if isinstance(rv.type, PointerType):
                cmp = self.builder.icmp(CmpPred.EQ, rv.value, ConstNull(rv.type))
            elif isinstance(rv.type, FloatType):
                cmp = self.builder.fcmp(CmpPred.EQ, rv.value, ConstFloat(rv.type, 0.0))
            else:
                cmp = self.builder.icmp(CmpPred.EQ, rv.value, ConstInt(rv.type, 0))  # type: ignore[arg-type]
            return _RV(cmp, BOOL)
        if op == "~":
            if not isinstance(rv.type, IntType):
                raise self._error(expr, "~ on non-integer value")
            return _RV(self.builder.xor(rv.value, ConstInt(rv.type, -1)), rv.type)
        raise self._error(expr, f"unhandled unary operator {op!r}")

    def _lower_incdec(self, expr: ast.Unary) -> _RV:
        assert expr.operand is not None
        lv = self._lvalue(expr.operand)
        old = self._load_lvalue(expr, lv)
        is_post = expr.op.startswith("p")
        delta = 1 if expr.op.endswith("++") else -1
        if isinstance(lv.type, PointerType):
            if lv.type.pointee is None:
                raise self._error(expr, "++/-- on opaque pointer")
            new_val = self.builder.ptradd(
                old.value, delta * lv.type.pointee.size, lv.type.pointee
            )
            new = _RV(new_val, lv.type)
        elif isinstance(lv.type, FloatType):
            new = _RV(self.builder.fadd(old.value, ConstFloat(lv.type, float(delta))), lv.type)
        elif isinstance(lv.type, IntType):
            new = _RV(self.builder.add(old.value, ConstInt(lv.type, delta)), lv.type)
        else:
            raise self._error(expr, "++/-- on unsupported type")
        self._emit_store_raw(new, lv)
        return old if is_post else new

    def _bool_to_int(self, rv: _RV) -> _RV:
        if rv.type == BOOL:
            value = self.builder.cast(CastKind.ZEXT, rv.value, I32)
            return _RV(value, I32)
        return rv

    def _promote_pair(self, node: ast.Node, lhs: _RV, rhs: _RV) -> Tuple[_RV, _RV, Type]:
        lhs = self._bool_to_int(lhs)
        rhs = self._bool_to_int(rhs)
        lt, rt = lhs.type, rhs.type
        if isinstance(lt, FloatType) or isinstance(rt, FloatType):
            common: Type = F64
        else:
            assert isinstance(lt, IntType) and isinstance(rt, IntType)
            rank = {(64, False): 5, (64, True): 4, (32, False): 3, (32, True): 2}
            lr = rank.get((lt.bits, lt.signed), 1)
            rr = rank.get((rt.bits, rt.signed), 1)
            best = max(lr, rr, 2)
            common = {5: U64, 4: I64, 3: U32, 2: I32}[best]
        return (
            self._convert(node, lhs, common),
            self._convert(node, rhs, common),
            common,
        )

    def _lower_binary(self, expr: ast.Binary) -> _RV:
        op = expr.op
        assert expr.lhs is not None and expr.rhs is not None
        if op in ("&&", "||"):
            return self._lower_logical(expr)

        lhs = self._lower_expr(expr.lhs)
        rhs = self._lower_expr(expr.rhs)
        return self._binary_values(expr, op, lhs, rhs)

    def _binary_values(self, expr: ast.Node, op: str, lhs: _RV, rhs: _RV) -> _RV:
        # Pointer arithmetic and comparisons.
        lp = isinstance(lhs.type, PointerType)
        rp = isinstance(rhs.type, PointerType)
        if op in _CMP_OPS and (lp or rp):
            lv = lhs.value if lp else self._convert(expr, lhs, PointerType()).value
            rv = rhs.value if rp else self._convert(expr, rhs, PointerType()).value
            return _RV(self.builder.icmp(_CMP_OPS[op], lv, rv), BOOL)
        if op in ("+", "-") and lp and not rp:
            return self._pointer_offset(expr, lhs, rhs, negate=(op == "-"))
        if op == "+" and rp and not lp:
            return self._pointer_offset(expr, rhs, lhs, negate=False)
        if op == "-" and lp and rp:
            if lhs.type.pointee is None:  # type: ignore[union-attr]
                raise self._error(expr, "difference of opaque pointers")
            li = self.builder.cast(CastKind.PTRTOINT, lhs.value, I64)
            ri = self.builder.cast(CastKind.PTRTOINT, rhs.value, I64)
            diff = self.builder.sub(li, ri)
            size = lhs.type.pointee.size  # type: ignore[union-attr]
            return _RV(self.builder.div(diff, size), I64)

        lhs2, rhs2, common = self._promote_pair(expr, lhs, rhs)
        if op in _CMP_OPS:
            if isinstance(common, FloatType):
                return _RV(self.builder.fcmp(_CMP_OPS[op], lhs2.value, rhs2.value), BOOL)
            return _RV(self.builder.icmp(_CMP_OPS[op], lhs2.value, rhs2.value), BOOL)
        if op in _ARITH_BINOPS:
            int_kind, float_kind = _ARITH_BINOPS[op]
            if isinstance(common, FloatType):
                if float_kind is None:
                    raise self._error(expr, f"operator {op!r} on floating-point values")
                return _RV(self.builder.binop(float_kind, lhs2.value, rhs2.value), common)
            return _RV(self.builder.binop(int_kind, lhs2.value, rhs2.value), common)
        raise self._error(expr, f"unhandled binary operator {op!r}")

    def _pointer_offset(self, node: ast.Node, ptr: _RV, idx: _RV, negate: bool) -> _RV:
        assert isinstance(ptr.type, PointerType)
        if ptr.type.pointee is None:
            raise self._error(node, "arithmetic on opaque pointer")
        idx64 = self._convert(node, self._bool_to_int(idx), I64)
        scaled = self.builder.mul(idx64.value, ptr.type.pointee.size)
        if negate:
            scaled = self.builder.sub(ConstInt(I64, 0), scaled)
        return _RV(self.builder.ptradd(ptr.value, scaled, ptr.type.pointee), ptr.type)

    def _lower_logical(self, expr: ast.Binary) -> _RV:
        """Short-circuit && / || via a temporary slot (promoted by mem2reg)."""
        assert expr.lhs is not None and expr.rhs is not None
        slot = self._entry_alloca(I32, f"logical{expr.line}")
        rhs_bb = self._new_block("logic.rhs")
        merge_bb = self._new_block("logic.end")

        lhs_cond = self._condition(expr.lhs)
        if expr.op == "&&":
            self._emit_store_raw(_RV(ConstInt(I32, 0), I32), slot)
            self.builder.condbr(lhs_cond, rhs_bb, merge_bb)
        else:
            self._emit_store_raw(_RV(ConstInt(I32, 1), I32), slot)
            self.builder.condbr(lhs_cond, merge_bb, rhs_bb)

        self.builder.position_at_end(rhs_bb)
        rhs_cond = self._condition(expr.rhs)
        as_int = self.builder.cast(CastKind.ZEXT, rhs_cond, I32)
        self._emit_store_raw(_RV(as_int, I32), slot)
        self.builder.br(merge_bb)

        self.builder.position_at_end(merge_bb)
        return self._load_lvalue(expr, slot)

    # -- assignment / conditional / call ------------------------------------------------------

    def _lower_assign(self, expr: ast.Assign) -> _RV:
        assert expr.target is not None and expr.value is not None
        slot = self._lvalue(expr.target)
        if expr.op == "=":
            value = self._lower_expr(expr.value)
            return self._emit_store(expr, value, slot)
        # Compound assignment: the lvalue is evaluated exactly once (C
        # semantics) — the load and store share the same address value,
        # which is also what the reduction recognizer keys on.
        old = self._load_lvalue(expr, slot)
        rhs = self._lower_expr(expr.value)
        value = self._binary_values(expr, expr.op[:-1], old, rhs)
        return self._emit_store(expr, value, slot)

    def _lower_conditional(self, expr: ast.Conditional) -> _RV:
        assert expr.cond and expr.then and expr.otherwise
        then_bb = self._new_block("sel.then")
        else_bb = self._new_block("sel.else")
        merge_bb = self._new_block("sel.end")
        cond = self._condition(expr.cond)
        self.builder.condbr(cond, then_bb, else_bb)

        # Evaluate both arms into a temporary of the common type.  The
        # common type is discovered from the "then" arm; the else arm is
        # converted to match.
        self.builder.position_at_end(then_bb)
        then_rv = self._bool_to_int(self._lower_expr(expr.then))
        slot = self._entry_alloca(then_rv.type, f"sel{expr.line}")
        self._emit_store_raw(then_rv, slot)
        self.builder.br(merge_bb)

        self.builder.position_at_end(else_bb)
        else_rv = self._lower_expr(expr.otherwise)
        self._emit_store(expr, else_rv, slot)
        self.builder.br(merge_bb)

        self.builder.position_at_end(merge_bb)
        return self._load_lvalue(expr, slot)

    def _lower_call(self, expr: ast.CallExpr) -> _RV:
        args = [self._lower_expr(a) for a in expr.args]
        if expr.name in self.functions:
            fn = self.functions[expr.name]
            if len(args) != len(fn.function_type.param_types):
                raise self._error(
                    expr,
                    f"{expr.name} expects {len(fn.function_type.param_types)} "
                    f"arguments, got {len(args)}",
                )
            converted = [
                self._convert(expr, a, t).value
                for a, t in zip(args, fn.function_type.param_types)
            ]
            call = self.builder.call(fn, converted)
            return _RV(call, fn.return_type)
        if expr.name in ALL_INTRINSICS:
            fn = self.module.get_or_declare_intrinsic(expr.name)
            sig = _INTRINSIC_SIGS.get(expr.name)
            values: List[Value] = []
            for i, a in enumerate(args):
                a = self._bool_to_int(a)
                if sig is not None and i < len(sig[0]):
                    a = self._convert(expr, a, sig[0][i])
                values.append(a.value)
            call = self.builder.call(fn, values)
            return _RV(call, fn.return_type)
        raise self._error(expr, f"call to undeclared function {expr.name!r}")


def _renumber_values(module: Module) -> None:
    """Deterministically renumber value uids in structural order.

    Fresh values draw uids from a process-global counter, so compiling
    the same source twice would otherwise yield different uids — and a
    different module fingerprint, defeating the on-disk profile cache
    (:mod:`repro.bench.cache`) within a process.  Renumbering to 1..N in
    walk order makes the fingerprint a pure function of the source.
    N + 1 is left in ``module.next_uid``: values created *after*
    compilation (by transforms, inside ``module.fresh_uids()``) continue
    from there, so uids stay unique within the module wherever the
    process counter stands — including in a process that received the
    module by unpickling and never advanced its own counter.
    """
    import itertools

    counter = itertools.count(1)
    seen = set()

    def visit(v: Value) -> None:
        if id(v) not in seen:
            seen.add(id(v))
            v.uid = next(counter)

    for gv in module.globals.values():
        visit(gv)
    for fn in module.functions.values():
        visit(fn)
        for arg in fn.args:
            visit(arg)
        for bb in fn.blocks:
            for inst in bb.instructions:
                visit(inst)
        for bb in fn.blocks:
            for inst in bb.instructions:
                for op in inst.operands:
                    visit(op)
    module.next_uid = next(counter)


def compile_minic(source: str, module_name: str = "minic",
                  promote: bool = True, licm: bool = True,
                  verify: bool = True) -> Module:
    """Compile MiniC source text to a verified IR module.

    ``promote`` runs mem2reg and ``licm`` hoists loop invariants (both on
    by default, matching the paper's pipeline where LLVM's standard
    cleanups run before Privateer).
    """
    from ..obs.trace import TRACER
    from .parser import parse

    with TRACER.span("pipeline.compile", cat="pipeline",
                     module=module_name) as sp:
        program = parse(source)
        module = Lowerer(program, module_name).lower()
        if promote:
            from ..analysis.mem2reg import promote_module

            promote_module(module)
        if licm and promote:
            from ..analysis.licm import hoist_module

            hoist_module(module)
        if verify:
            from ..ir.verifier import verify_module

            verify_module(module)
        _renumber_values(module)
        if TRACER.enabled:
            defined = module.defined_functions()
            sp.set(functions=len(defined),
                   instructions=sum(len(bb.instructions)
                                    for fn in defined for bb in fn.blocks))
    return module
