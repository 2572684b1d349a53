"""Generated-source tier of the mini-IR interpreter.

Every basic block is cut into *segments* — at its first non-phi
instruction and again after each call to a *defined* function, where
the frame is suspended — and each segment becomes one generated Python
function ``seg(interp, frame)``:

* operands are read from ``frame.slots`` into Python locals once per
  segment (keeping the reference "use of undefined value" fault for
  values defined outside the segment); results stay in locals and are
  written through to their slot, so a frame can be copied, swapped or
  poked at any segment boundary;
* integer wrap, compare, cast, ptradd and select kernels are inlined as
  expressions, with ``int()``/``float()`` coercions only where the
  producing instruction does not already fix the Python type;
* loads, stores, calls and branches keep the reference order of hook
  notifications, the ``BlockBreakpoint`` test, the atomic phi moves and
  the ``prev_block``/``block``/``index`` bookkeeping;
* steps and cycles of the whole segment are added on entry, and one
  ``try/except BaseException`` rolls the unexecuted tail back from a
  local op index, so totals are exact wherever anything can observe
  them: segment boundaries and raised exceptions.

A segment returns the next segment of the same frame, :data:`STACK` when
it pushed or popped a frame, or None when it refused to start (the step
budget could run out inside it; the reference ``step()`` decides).

Every load and store site carries a one-entry inline cache of its last
resolution (bind kind ``M``, DESIGN.md §7 "Memory access"): a hit reads
or writes ``object.data`` with a pre-built ``struct.Struct`` method and
makes no Python call; a miss asks :class:`AddressSpace` for the next
entry, with the reference path's faults and copy-on-write.

Instrumented sites (DESIGN.md §7 "Instrumented sites") pay for a hook
only where it can change its result: a load or store notifies its
``load``/``store`` subscribers, a branch edge that enters, exits or
iterates a loop (classified here, once per generated function) its loop
edge subscribers and any other edge only the every-edge ones; a call of
``check_heap``, ``private_read``, ``private_write`` or ``redux_update``
runs the intrinsic's common case inline and calls it for anything else.

``compile()`` dominates the cost of this tier, so code objects are
memoised per process by function *content* (:func:`content_key`) in a
fixed-size LRU; IR objects (instructions handed to hooks and intrinsics,
callees, blocks, globals) are free variables of the generated function
and are bound per :class:`Function` instance from block/instruction
coordinates.  :func:`generated_source` is the debugging entry point.
"""

from __future__ import annotations

import builtins
import hashlib
import os
import re
import struct
import threading
from collections import OrderedDict
from contextlib import contextmanager
from types import CellType, CodeType, FunctionType
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.loops import LoopInfo
from ..ir.instructions import (
    Alloca,
    BinOp,
    BinOpKind,
    Br,
    Call,
    Cast,
    CastKind,
    CmpPred,
    CondBr,
    FCmp,
    ICmp,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
)
from ..ir.module import BasicBlock, Function
from ..ir.types import FloatType, IntType, PointerType, Type, VoidType
from ..ir.values import GlobalVariable, Value
from .costs import (
    INTRINSIC_COSTS,
    PRIVATE_BYTE_COST,
    REDUX_BYTE_COST,
    SEPARATION_CHECK_COST,
    instruction_cost,
    intrinsic_cost,
)
from .errors import BlockBreakpoint, GuestFault
from .memory import PAGE_SHIFT, STACK_BASE, TAG_MASK, TAG_SHIFT

_U64 = 0xFFFFFFFFFFFFFFFF

#: Sentinel stored in unassigned register slots; reads of it reproduce the
#: reference path's "use of undefined value" fault.
_UNDEF = object()

#: Returned by a segment that pushed or popped a frame.
STACK = object()

#: Functions whose code objects the memo keeps (least recently used out).
MEMO_SIZE = 128

#: Functions generated (memo misses) in this process; tests read it.
generations = 0

#: The runtime's validation intrinsics whose common case a call site
#: runs inline (``_SegmentWriter.inline_<name>``).
INLINED_INTRINSICS = frozenset(
    ("check_heap", "private_read", "private_write", "redux_update"))

_CMP_OPS = {
    CmpPred.EQ: "==", CmpPred.NE: "!=", CmpPred.LT: "<",
    CmpPred.LE: "<=", CmpPred.GT: ">", CmpPred.GE: ">=",
}
_WRAP_OPS = {
    BinOpKind.ADD: "+", BinOpKind.SUB: "-", BinOpKind.MUL: "*",
    BinOpKind.AND: "&", BinOpKind.OR: "|", BinOpKind.XOR: "^",
}
_FLOAT_OPS = {BinOpKind.FADD: "+", BinOpKind.FSUB: "-", BinOpKind.FMUL: "*"}
_INT_CASTS = (CastKind.TRUNC, CastKind.ZEXT, CastKind.SEXT,
              CastKind.PTRTOINT, CastKind.INTTOPTR,
              CastKind.FPTOSI, CastKind.FPTOUI)
_FLOAT_CASTS = (CastKind.SITOFP, CastKind.UITOFP,
                CastKind.FPEXT, CastKind.FPTRUNC)

# Generated code is attributed to this directory, so profilers that
# bucket calls by source path count segments as interpreter calls.
_FILENAME = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "<generated>")


def _undef_fault(frame, slot: int):
    for v, i in frame.regs._map.items():
        if i == slot:
            raise GuestFault(f"use of undefined value {v.short()} "
                             f"in {frame.function.name}")
    raise GuestFault(f"use of undefined slot {slot} in {frame.function.name}")


def _call_intrinsic(interp, inst: Call, name: str, args: list) -> None:
    """An inlined validation site off its common case: the call every
    other intrinsic site makes in place (``_SegmentWriter.call_intrinsic``)
    — kept out of line, since it is rare and the sites are many."""
    impl = interp.intrinsics.get(name)
    if impl is None:
        raise GuestFault(f"call to unresolved external @{name}")
    interp.cycles += INTRINSIC_COSTS[name]
    impl(interp, inst, args)


#: What every memory site's cache holds until its first miss; entries are
#: ``(space, object, lo, hi, generation)`` (``AddressSpace.load_entry``).
_NO_ENTRY = (None, None, 0, 0, 0)

#: ``struct`` format of a guest scalar by (size, signed); floats by size.
#: Stores mask the value first, so they use the unsigned formats.
_INT_FORMATS = {(1, True): "b", (1, False): "B", (2, True): "h",
                (2, False): "H", (4, True): "i", (4, False): "I",
                (8, True): "q", (8, False): "Q"}
_FLOAT_FORMATS = {4: "f", 8: "d"}

#: Globals of every generated function.
_GLOBALS = {
    "__builtins__": builtins,
    "U": _UNDEF, "STACK": STACK, "undef": _undef_fault,
    "GuestFault": GuestFault, "BlockBreakpoint": BlockBreakpoint,
    "VoidType": VoidType, "intrinsic_cost": intrinsic_cost,
    "STACK_BASE": STACK_BASE, "pack": struct.pack, "unpack": struct.unpack,
    "NAN": float("nan"), "INF": float("inf"), "NINF": float("-inf"),
    "intrinsic": _call_intrinsic,
}
for _f in (*_INT_FORMATS.values(), *_FLOAT_FORMATS.values()):
    _GLOBALS["ld" + _f] = struct.Struct("<" + _f).unpack_from
    _GLOBALS["st" + _f] = struct.Struct("<" + _f).pack_into


# ---------------------------------------------------------------------------
# Register numbering and content identity
# ---------------------------------------------------------------------------


def build_regmap(fn: Function) -> Dict[Value, int]:
    """Assign a flat register slot to every value the function can define:
    formal arguments and every instruction result (void results included —
    the waste is tiny and keeps numbering trivially stable)."""
    regmap: Dict[Value, int] = {}
    for arg in fn.args:
        regmap[arg] = len(regmap)
    for bb in fn.blocks:
        for inst in bb.instructions:
            regmap[inst] = len(regmap)
    return regmap


def _tc(ty: Type) -> str:
    """Type code: exactly what the generator reads off a type."""
    if type(ty) is IntType:
        return f"{'i' if ty.signed else 'u'}{ty.bits}"
    if type(ty) is PointerType:
        return "p"
    if type(ty) is FloatType:
        return f"f{ty.bits}"
    return str(ty)


def _is_defined(callee: Function) -> bool:
    return bool(callee.blocks) and not callee.is_intrinsic


def _baked_cost(name: str) -> Optional[int]:
    """The intrinsic's cycle cost when it is a plain number (baked into
    the source), None when it is computed from the arguments."""
    cost = INTRINSIC_COSTS.get(name, 10)
    return None if callable(cost) else cost


def content_key(fn: Function, regmap: Dict[Value, int]
                ) -> Tuple[bytes, Tuple[int, ...]]:
    """``(digest, idents)`` of one function.

    ``digest`` covers everything the generator bakes into source: block
    layout and names, opcodes and per-class payloads, result and operand
    types, operand slots, constant *values*, alloca element sizes, callee
    names (and whether they are defined, and their baked cost), branch
    targets, phi incomings and site ids.  Two modules compiled from one
    source share it; any in-place IR mutation — including direct
    ``inst.operands[:] = …`` rewrites — changes it.  ``idents`` are the
    identities of the IR objects a bound instance closes over; equal
    content over different objects rebinds the memoised code.
    """
    bindex = {bb: j for j, bb in enumerate(fn.blocks)}
    parts: List[object] = [fn.name, [_tc(a.type) for a in fn.args]]
    idents: List[int] = []
    add = parts.append

    def operand(v: Value):
        cv = v.cval
        if cv is not None:
            return (cv, _tc(v.type))
        slot = regmap.get(v)
        if slot is not None:
            return slot
        idents.append(id(v))
        return (type(v).__name__, v.name, _tc(v.type))

    for bb in fn.blocks:
        idents.append(id(bb))
        add(bb.name)
        for inst in bb.instructions:
            idents.append(id(inst))
            add(inst.opcode.value)
            add(_tc(inst.type))
            if isinstance(inst, Phi):
                add([(bindex.get(pred, pred.name), operand(v))
                     for pred, v in inst.incoming])
                continue
            add([operand(v) for v in inst.operands])
            if isinstance(inst, (BinOp, Cast)):
                add(inst.kind.value)
            elif isinstance(inst, (ICmp, FCmp)):
                add(inst.pred.value)
            elif isinstance(inst, Alloca):
                add((inst.allocated_type.size, inst.uid))
            elif isinstance(inst, Call):
                callee = inst.callee
                idents.append(id(callee))
                add((callee.name, _is_defined(callee),
                     _baked_cost(callee.name), inst.uid))
            elif isinstance(inst, Br):
                add(bindex.get(inst.target, inst.target.name))
            elif isinstance(inst, CondBr):
                add((bindex.get(inst.if_true, inst.if_true.name),
                     bindex.get(inst.if_false, inst.if_false.name)))
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=16).digest()
    return digest, tuple(idents)


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _pykind(v: Value) -> Optional[str]:
    """``"i"``/``"f"`` when the producer of ``v`` fixes its Python type
    (int/float), None when it does not: formal arguments and results of
    defined calls hold whatever the caller or callee passed."""
    if not isinstance(v, Instruction):
        return None
    if isinstance(v, BinOp):
        return "f" if v.float_op else "i"
    if isinstance(v, (ICmp, FCmp, PtrAdd, Alloca)):
        return "i"
    if isinstance(v, Cast):
        if v.kind in _INT_CASTS:
            return "i"
        if v.kind in _FLOAT_CASTS:
            return "f"
        src, dst = v.value.type, v.type
        if isinstance(src, FloatType) and isinstance(dst, IntType):
            return "i"
        if isinstance(src, IntType) and isinstance(dst, FloatType):
            return "f"
        return _pykind(v.value)
    if isinstance(v, Call) and _is_defined(v.callee):
        return None
    # Loads and intrinsic results are coerced by type; phis and selects
    # forward values of their own type.
    if isinstance(v.type, FloatType):
        return "f"
    if isinstance(v.type, (IntType, PointerType)):
        return "i"
    return None


def _wrapper(ty: Type) -> Callable[[str], str]:
    """``wrap(expr)`` source for an integer (or pointer-as-u64) type."""
    if isinstance(ty, PointerType):
        ty = IntType(64, signed=False)
    assert isinstance(ty, IntType)
    mask = (1 << ty.bits) - 1
    if not ty.signed:
        return lambda e: f"({e}) & {mask}"
    half = 1 << (ty.bits - 1)
    return lambda e: f"((({e}) + {half}) & {mask}) - {half}"


_SIMPLE = re.compile(r"-?\w+(\.\w+)?\Z")


class _SegmentWriter:
    """Emits the body of one segment of block ``b``."""

    def __init__(self, fn: Function, regmap: Dict[Value, int],
                 bindex: Dict[BasicBlock, int], firsts: Sequence[int],
                 loops: LoopInfo, b: int):
        self.fn = fn
        self.regmap = regmap
        self.bindex = bindex
        self.firsts = firsts
        #: Classifies each branch edge, once per generated function:
        #: the CFG is part of the content key, so memoised code agrees.
        self.loops = loops
        self.b = b
        self.block = fn.blocks[b]
        self.lines: List[str] = []
        #: free-variable name -> coordinates of the IR object it names
        self.binds: Dict[str, tuple] = {}
        #: slots held in a local ``v<slot>`` at this point of the source
        self.live: Set[int] = set()
        self.indent = 3
        #: whether the op being emitted can raise (needs its index)
        self.raises = False

    # -- plumbing -------------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def bind(self, *path) -> str:
        name = path[0] + "_".join(str(p) for p in path[1:])
        self.binds[name] = path
        return name

    def literal(self, cv, want: Optional[str]) -> str:
        """Source text of constant ``cv`` coerced as the reference kernel
        would coerce it at run time."""
        try:
            if want == "i":
                cv = int(cv)
            elif want == "f":
                cv = float(cv)
        except (ValueError, OverflowError):
            # int(nan), int(inf): left to raise where the reference does.
            self.raises = True
            return (f"{'int' if want == 'i' else 'float'}"
                    f"({self.literal(cv, None)})")
        if isinstance(cv, float):
            if cv != cv:
                return "NAN"
            if cv in (float("inf"), float("-inf")):
                return "INF" if cv > 0 else "NINF"
        return repr(cv)

    @contextmanager
    def arm(self, header: str):
        """An indented suite under ``header``: slot reads made inside it
        are not visible after it."""
        live = self.live
        self.live = set(live)
        self.emit(header)
        self.indent += 1
        yield
        self.indent -= 1
        self.live = live

    def value(self, v: Value, want: Optional[str], path: tuple) -> str:
        """Expression for operand ``v`` as Python int (``"i"``), float
        (``"f"``) or as stored (None); ``path`` are its coordinates."""
        cv = v.cval
        if cv is not None:
            return self.literal(cv, want)
        slot = self.regmap.get(v)
        if slot is None:
            self.raises = True
            name = self.bind(*path)
            if isinstance(v, GlobalVariable):
                expr, kind = f"interp.global_addrs[{name}]", "i"
            else:
                expr, kind = f"interp.value_of(frame, {name})", None
        else:
            expr, kind = f"v{slot}", _pykind(v)
            if slot not in self.live:
                self.raises = True
                self.emit(f"{expr} = s[{slot}]")
                self.emit(f"if {expr} is U: undef(frame, {slot})")
                self.live.add(slot)
        if want is not None and kind != want:
            self.raises = True
            expr = f"{'int' if want == 'i' else 'float'}({expr})"
        return expr

    def use(self, k: int, o: int, want: Optional[str] = None) -> str:
        return self.value(self.block.instructions[k].operands[o], want,
                          ("O", k, o))

    def named(self, expr: str, name: str) -> str:
        """``expr`` itself when re-evaluating it is free, else a
        temporary holding it."""
        if _SIMPLE.match(expr):
            return expr
        self.emit(f"{name} = {expr}")
        return name

    def define(self, inst: Instruction, expr: str) -> None:
        slot = self.regmap[inst]
        self.emit(f"s[{slot}] = v{slot} = {expr}")
        self.live.add(slot)

    def fault(self, message: str) -> None:
        self.raises = True
        self.emit(f"raise GuestFault({message!r})")

    # -- one op ---------------------------------------------------------------

    def op(self, i: int, k: int) -> bool:
        """Emit op ``i`` of the segment (instruction ``k`` of the block,
        or the fall-off fault past its end); True if the segment ends."""
        insts = self.block.instructions
        mark = len(self.lines)
        self.raises = False
        ends = False
        if k >= len(insts):
            self.fault(f"fell off block {self.block.name} in {self.fn.name}")
            ends = True
        else:
            inst = insts[k]
            handler = getattr(self, "op_" + inst.opcode.value, None)
            if handler is None:
                self.fault(f"unhandled opcode {inst.opcode}")
            else:
                ends = bool(handler(k, inst))
        if self.raises:
            self.lines.insert(mark, "    " * self.indent + f"i = {i}")
        return ends

    def op_binop(self, k: int, inst: BinOp) -> None:
        kind = inst.kind
        if inst.float_op:
            a, b = self.use(k, 0, "f"), self.use(k, 1, "f")
            if kind in _FLOAT_OPS:
                self.define(inst, f"{a} {_FLOAT_OPS[kind]} {b}")
            elif kind is BinOpKind.FDIV:
                a = self.named(a, "ta")
                with self.arm("try:"):
                    self.define(inst, f"{a} / {b}")
                with self.arm("except ZeroDivisionError:"):
                    self.define(inst, f"NAN if {a} == 0 else "
                                      f"(INF if {a} > 0 else NINF)")
                self.live.add(self.regmap[inst])
            else:
                self.fault(f"bad float binop {kind}")
            return
        a, b = self.use(k, 0, "i"), self.use(k, 1, "i")
        ty = inst.type
        wrap = _wrapper(ty)
        bits = 64 if isinstance(ty, PointerType) else ty.bits
        mask = (1 << bits) - 1
        if kind in _WRAP_OPS:
            self.define(inst, wrap(f"{a} {_WRAP_OPS[kind]} {b}"))
        elif kind is BinOpKind.SHL:
            self.define(inst, wrap(f"{a} << ({b} & {bits - 1})"))
        elif kind is BinOpKind.SHR:
            if isinstance(ty, IntType) and ty.signed:
                self.define(inst, wrap(f"{a} >> ({b} & {bits - 1})"))
            else:
                self.define(inst, f"({a} & {mask}) >> ({b} & {bits - 1})")
        elif kind in (BinOpKind.DIV, BinOpKind.REM):
            a, b = self.named(a, "ta"), self.named(b, "tb")
            if inst.operands[1].cval is None or b == "0":
                self.raises = True
                what = "division" if kind is BinOpKind.DIV else "remainder"
                self.emit(f"if {b} == 0: "
                          f"raise GuestFault('integer {what} by zero')")
            self.emit(f"q = abs({a}) // abs({b})")
            self.emit(f"if ({a} < 0) != ({b} < 0): q = -q")
            self.define(inst, wrap("q" if kind is BinOpKind.DIV
                                   else f"{a} - q * {b}"))
        else:
            self.fault(f"bad int binop {kind}")

    def op_icmp(self, k: int, inst: ICmp) -> None:
        a, b = self.use(k, 0, "i"), self.use(k, 1, "i")
        ty = inst.lhs.type
        mask = None
        if isinstance(ty, IntType) and not ty.signed:
            mask = (1 << ty.bits) - 1
        elif isinstance(ty, PointerType):
            mask = _U64
        if mask is not None:
            a, b = f"({a} & {mask})", f"({b} & {mask})"
        self.define(inst, f"1 if {a} {_CMP_OPS[inst.pred]} {b} else 0")

    def op_fcmp(self, k: int, inst: FCmp) -> None:
        a, b = self.use(k, 0, "f"), self.use(k, 1, "f")
        self.define(inst, f"1 if {a} {_CMP_OPS[inst.pred]} {b} else 0")

    def op_ptradd(self, k: int, inst: PtrAdd) -> None:
        a, b = self.use(k, 0, "i"), self.use(k, 1, "i")
        self.define(inst, f"({a} + {b}) & {_U64}")

    def op_cast(self, k: int, inst: Cast) -> None:
        kind, src, dst = inst.kind, inst.value.type, inst.type
        if kind in (CastKind.TRUNC, CastKind.ZEXT, CastKind.SEXT):
            v = self.use(k, 0, "i")
            if kind is CastKind.ZEXT and isinstance(src, IntType):
                v = f"{v} & {(1 << src.bits) - 1}"
            self.define(inst, _wrapper(dst)(v))
        elif kind is CastKind.BITCAST:
            if isinstance(src, FloatType) and isinstance(dst, IntType):
                self.raises = True
                v = self.use(k, 0, "f")
                self.define(inst, _wrapper(dst)(
                    f"int.from_bytes(pack('<d', {v}), 'little')"))
            elif isinstance(src, IntType) and isinstance(dst, FloatType):
                self.raises = True
                v = self.use(k, 0, "i")
                self.define(inst, f"unpack('<d', ({v} & {_U64})"
                                  f".to_bytes(8, 'little'))[0]")
            else:
                self.define(inst, self.use(k, 0))
        elif kind is CastKind.PTRTOINT:
            self.define(inst, _wrapper(dst)(f"{self.use(k, 0, 'i')} & {_U64}"))
        elif kind is CastKind.INTTOPTR:
            self.define(inst, f"{self.use(k, 0, 'i')} & {_U64}")
        elif kind is CastKind.SITOFP:
            self.define(inst, f"float({self.use(k, 0, 'i')})")
        elif kind is CastKind.UITOFP:
            bits = src.bits if isinstance(src, IntType) else 64
            self.define(inst,
                        f"float({self.use(k, 0, 'i')} & {(1 << bits) - 1})")
        elif kind in (CastKind.FPTOSI, CastKind.FPTOUI):
            f = self.named(self.use(k, 0, "f"), "tf")
            self.define(inst, f"0 if {f} != {f} or {f} == INF or {f} == NINF "
                              f"else {_wrapper(dst)(f'int({f})')}")
        elif kind in (CastKind.FPEXT, CastKind.FPTRUNC):
            self.define(inst, self.use(k, 0, "f"))
        else:
            self.fault(f"unhandled cast {kind}")

    def op_select(self, k: int, inst: Select) -> None:
        # Lazy arms, as value_of(pick) in the reference path: a slot read
        # (and its undefined-value fault) happens only on the arm taken.
        cond = self.use(k, 0)
        with self.arm(f"if {cond}:"):
            self.define(inst, self.use(k, 1))
        with self.arm("else:"):
            self.define(inst, self.use(k, 2))
        self.live.add(self.regmap[inst])

    def op_alloca(self, k: int, inst: Alloca) -> None:
        self.raises = True
        me = self.bind("I", k)
        count = self.use(k, 0, "i")
        self.emit(f"o = interp.space.allocate("
                  f"{inst.allocated_type.size} * {count}, "
                  f"interp.object_name({me}), 'stack', STACK_BASE, "
                  f"site={inst.site_id()!r})")
        self.emit("frame.allocas.append(o.base)")
        self.emit(f"interp.notify_alloc(o, {me})")
        self.define(inst, "o.base")

    def resolve(self, k: int, pointer: Value, addr: str, size: int,
                refill: str, also: str = "") -> None:
        """Probe the inline cache of memory op ``k``: afterwards ``o`` is
        the object holding ``[addr, addr + size)`` in ``sp``, the
        interpreter's current space, and ``lo`` its base.  A miss
        (another space, an ancestor's object shadowed or freed through
        this one since, out of the cached bounds, object freed, ``also``)
        asks ``sp.<refill>`` for the next entry, which faults where the
        reference path does."""
        entry = self.bind("M", k)
        # find() rejects a non-int address before it compares it; only
        # a formal or the result of a defined call can hold one.
        typed = "" if (pointer.cval is not None
                       or isinstance(pointer, GlobalVariable)
                       or _pykind(pointer) == "i") \
            else f"type({addr}) is not int or "
        self.emit("sp = interp.space")
        self.emit(f"c, o, lo, hi, g = {entry}")
        with self.arm(f"if {typed}c is not sp or g != sp.generation "
                      f"or {addr} < lo or {addr} + {size} > hi "
                      f"or not o.alive{also}:"):
            self.emit(f"{entry} = c, o, lo, hi, g = "
                      f"sp.{refill}({addr}, {size})")

    def op_load(self, k: int, inst: Load) -> None:
        self.raises = True
        me = self.bind("I", k)
        ty = inst.type
        addr = self.named(self.use(k, 0), "ta")
        self.emit("if interp.load_hooks:")
        self.emit(f"    for h in interp.load_hooks: "
                  f"h.on_load(interp, {me}, {addr}, {ty.size})")
        if isinstance(ty, IntType):
            fmt = _INT_FORMATS[ty.size, ty.signed]
        elif isinstance(ty, FloatType):
            fmt = _FLOAT_FORMATS[ty.size]
        elif isinstance(ty, PointerType):
            fmt = "Q"
        else:
            self.fault(f"load of unsupported type {ty}")
            return
        self.resolve(k, inst.pointer, addr, ty.size, "load_entry")
        self.define(inst, f"ld{fmt}(o.data, {addr} - lo)[0]")

    def op_store(self, k: int, inst: Store) -> None:
        self.raises = True
        me = self.bind("I", k)
        ty = inst.value.type
        size = ty.size
        addr = self.named(self.use(k, 1), "ta")
        if isinstance(ty, FloatType):
            value = self.use(k, 0, "f")
        elif isinstance(ty, (IntType, PointerType)):
            value = self.use(k, 0, "i")
        else:
            value = self.use(k, 0)
        self.emit("if interp.store_hooks:")
        self.emit(f"    for h in interp.store_hooks: "
                  f"h.on_store(interp, {me}, {addr}, {size})")
        # Reference order from here: coerce the value, fault, write.
        if isinstance(ty, FloatType) and size == 4:
            # Packed up front: a value too large for an f32 is refused
            # before any fault, and pack_into would zero its target
            # before refusing.
            self.emit(f"tv = pack('<f', {value})")
            write = f"o.data[{addr} - lo:{addr} - lo + 4] = tv"
        elif isinstance(ty, FloatType):
            write = f"std(o.data, {addr} - lo, {self.named(value, 'tv')})"
        elif isinstance(ty, (IntType, PointerType)):
            write = (f"st{_INT_FORMATS[size, False]}(o.data, {addr} - lo, "
                     f"{self.named(value, 'tv')} & {(1 << size * 8) - 1})")
        else:
            self.fault(f"store of unsupported type {ty}")
            return
        self.resolve(k, inst.pointer, addr, size, "store_entry",
                     " or not o.writable")
        self.emit(write)
        with self.arm("if sp._track_dirty:"):
            self.emit(f"sp.dirty_pages.add({addr} >> {PAGE_SHIFT})")
            if size > 1:
                self.emit(f"sp.dirty_pages.add(({addr} + {size - 1}) "
                          f">> {PAGE_SHIFT})")

    def op_call(self, k: int, inst: Call) -> bool:
        self.raises = True
        callee = inst.callee
        me, fn = self.bind("I", k), self.bind("F", k)
        args = [self.use(k, o) for o in range(len(inst.operands))]
        inline = None if _is_defined(callee) else self.inline_site(inst, args)
        if inline is None:
            self.emit(f"a = [{', '.join(args)}]")
        self.emit("if interp.call_hooks:")
        self.emit(f"    for h in interp.call_hooks: "
                  f"h.on_call(interp, {me}, {fn})")
        if _is_defined(callee):
            # The frame is suspended here: the segment ends, so nothing
            # of the block's tail has been charged yet.
            self.emit(f"frame.index = {k}")
            self.emit(f"interp.call_context.append({inst.site_id()!r})")
            self.emit(f"interp.push_function({fn}, a, call_inst={me})")
            self.emit("return STACK")
            return True
        if inline is not None:
            guard, body = inline
            self.emit("rt = interp.runtime")
            with self.arm("if rt is not None"
                          + (f" and {guard}:" if guard else ":")):
                for line in body:
                    self.emit(line)
            self.emit(f"else: intrinsic(interp, {me}, {callee.name!r}, "
                      f"[{', '.join(args)}])")
            return False
        return self.call_intrinsic(inst, me)

    # -- instrumented sites (DESIGN.md §7 "Instrumented sites") ---------------

    def inline_site(self, inst: Call, args: List[str]
                    ) -> Optional[Tuple[Optional[str], List[str]]]:
        """``(guard, body)`` when ``inst`` is a validation intrinsic
        whose common case runs inline: ``body`` does what the intrinsic
        would when ``guard`` (None: always) holds, ``rt`` being
        ``interp.runtime`` — set while a runtime speculates an
        iteration; anything else calls the intrinsic.  None for
        every other call, and when an operand is not the int the guard
        needs."""
        name = inst.callee.name
        if name not in INLINED_INTRINSICS or len(args) != 2:
            return None
        pointer, constant = inst.operands
        if constant.cval is None or not (
                pointer.cval is not None or isinstance(pointer, GlobalVariable)
                or _pykind(pointer) == "i"):
            return None
        # Both arms read the pointer from one name.
        args[0] = self.named(args[0], "tp")
        return getattr(self, "inline_" + name)(name, args[0],
                                               int(constant.cval))

    @staticmethod
    def _add_range(target: str, lo: str, hi: str) -> List[str]:
        """``target.add_range(lo, hi)`` of an :class:`IntervalSet`, with
        its common case — inside or extending the last pending run —
        inline."""
        return [f"q = (iv := {target})._pending",
                f"if q and q[-1][0] <= {lo} <= (e := q[-1][1]):",
                f"    if {hi} > e: q[-1] = (q[-1][0], {hi}); iv._runs = None",
                f"else: iv.add_range({lo}, {hi})"]

    # Each body charges what the intrinsic of the same name in
    # ``RuntimeSystem`` charges: to ``interp.cycles`` its call cost plus
    # its per-byte cost, and to ``RuntimeStats`` the same fields.

    def inline_check_heap(self, name: str, addr: str, tag: int):
        # classify imports the interpreter: resolved at generation time.
        from ..classify.heaps import HeapKind

        if tag not in {int(kind) for kind in HeapKind}:
            return None  # the intrinsic rejects the tag
        return (f"({addr} >> {TAG_SHIFT}) & {TAG_MASK} == {tag}",
                [f"interp.cycles += {_baked_cost(name)}",
                 "st = rt.stats",
                 "st.separation_checks += 1",
                 f"st.separation_cycles += {SEPARATION_CHECK_COST + 4}"])

    def inline_private_read(self, name: str, addr: str, size: int):
        cost = _baked_cost(name) + PRIVATE_BYTE_COST * size
        # Every byte already carries this iteration's timestamp.
        return (f"0 <= (vo := {addr} - rt.private_base) and rt.current_worker"
                f".shadow.meta.count(rt.current_ts, vo, vo + {size}) == {size}",
                [f"interp.cycles += {cost}",
                 "st = rt.stats",
                 "st.private_read_calls += 1",
                 f"st.private_read_bytes += {size}",
                 f"st.private_read_cycles += {cost}"])

    def inline_private_write(self, name: str, addr: str, size: int):
        # runtime imports the interpreter: resolved at generation time.
        from ..runtime.shadow import READ_LIVE_IN

        cost = _baked_cost(name) + PRIVATE_BYTE_COST * size
        # No byte was read live-in since the last checkpoint.
        return (f"0 <= (vo := {addr} - rt.private_base) "
                f"and vo + {size} <= (sh := rt.current_worker.shadow).size "
                f"and sh.meta.find({READ_LIVE_IN}, vo, vo + {size}) < 0",
                [f"interp.cycles += {cost}",
                 "st = rt.stats",
                 "st.private_write_calls += 1",
                 f"st.private_write_bytes += {size}",
                 f"st.private_write_cycles += {cost}",
                 f"sh.meta[vo:vo + {size}] = bytes((rt.current_ts,)) * {size}",
                 *self._add_range("sh.written", "vo", f"vo + {size}")])

    def inline_redux_update(self, name: str, addr: str, size: int):
        cost = _baked_cost(name) + REDUX_BYTE_COST * size
        return (None,
                [f"interp.cycles += {cost}",
                 "st = rt.stats",
                 "st.redux_updates += 1",
                 f"st.redux_bytes += {size}",
                 f"st.redux_cycles += {cost}",
                 *self._add_range("rt.current_worker.redux_written", addr,
                                  f"{addr} + {size}")])

    def call_intrinsic(self, inst: Call, me: str) -> bool:
        """Call the intrinsic ``inst`` names on the argument list ``a``."""
        name = inst.callee.name
        self.emit(f"impl = interp.intrinsics.get({name!r})")
        self.emit(f"if impl is None: raise GuestFault("
                  f"{'call to unresolved external @' + name!r})")
        cost = _baked_cost(name)
        self.emit(f"interp.cycles += "
                  + (f"intrinsic_cost({name!r}, a)" if cost is None
                     else str(cost)))
        ty = inst.type
        if ty.is_void():
            self.emit(f"impl(interp, {me}, a)")
            return False
        self.emit(f"r = impl(interp, {me}, a)")
        if isinstance(ty, IntType):
            coerced = f"0 if r is None else {_wrapper(ty)('int(r)')}"
        elif isinstance(ty, FloatType):
            coerced = "0.0 if r is None else float(r)"
        else:
            coerced = f"0 if r is None else int(r) & {_U64}"
        self.define(inst, coerced)
        return False

    def op_ret(self, k: int, inst: Ret) -> bool:
        self.raises = True
        me = self.bind("I", k)
        value = self.use(k, 0) if inst.value is not None else "None"
        self.emit("if frame.allocas:")
        self.emit("    for a in reversed(frame.allocas): "
                  f"interp.notify_free(interp.space.free(a), {me})")
        self.emit("interp.frames.pop()")
        self.emit("for h in interp.hooks: h.on_return(interp, frame.function)")
        self.emit("ci = frame.call_inst")
        self.emit("if ci is not None: interp.call_context.pop()")
        self.emit("if not interp.frames:")
        self.emit(f"    interp._fast_result = {value}")
        self.emit("elif ci is not None:")
        self.emit("    caller = interp.frames[-1]")
        self.emit("    if not isinstance(ci.type, VoidType): "
                  f"caller.regs[ci] = {value}")
        self.emit("    caller.index += 1")
        self.emit("return STACK")
        return True

    def op_br(self, k: int, inst: Br) -> bool:
        self.raises = True
        self.edge(k, inst.target)
        return True

    def op_condbr(self, k: int, inst: CondBr) -> bool:
        self.raises = True
        cond = self.use(k, 0)
        with self.arm(f"if {cond}:"):
            self.edge(k, inst.if_true)
        with self.arm("else:"):
            self.edge(k, inst.if_false)
        return True

    def edge(self, k: int, target: BasicBlock) -> None:
        """Branch ``k`` taken to ``target``: hooks, breakpoint test,
        atomic phi moves, frame bookkeeping, next segment."""
        j = self.bindex[target]
        me, here, there = self.bind("I", k), self.bind("B", self.b), \
            self.bind("B", j)
        hooks = ("interp.loop_edge_hooks"
                 if self.loops.is_loop_edge(self.block, target)
                 else "interp.edge_hooks")
        self.emit(f"if {hooks}:")
        self.emit(f"    for h in {hooks}: h.on_branch(interp, {me}, {there})")
        self.emit(f"if {there} in interp.block_breakpoints: "
                  f"raise BlockBreakpoint(frame, {there}, frame.block)")
        moves = []
        for p, phi in enumerate(target.instructions[:self.firsts[j]]):
            v = phi.incoming_for(self.block)
            o = [pred for pred, _ in phi.incoming].index(self.block)
            # Every incoming value is in a local (or is a constant)
            # before the first slot is written.
            moves.append((self.regmap[phi],
                          self.named(self.value(v, None, ("P", j, p, o)),
                                     f"m{p}")))
        for slot, expr in moves:
            self.emit(f"s[{slot}] = {expr}")
        self.emit(f"frame.prev_block = {here}")
        self.emit(f"frame.block = {there}")
        self.emit(f"frame.index = {self.firsts[j]}")
        self.emit(f"return {self.bind('N', j)}")

    def op_phi(self, k: int, inst: Phi) -> None:
        self.fault(f"phi executed outside block entry in {self.fn.name}")

    def op_unreachable(self, k: int, inst: Instruction) -> bool:
        self.fault(f"reached 'unreachable' in {self.fn.name}")
        return True


def _first_non_phi(bb: BasicBlock) -> int:
    first = 0
    for inst in bb.instructions:
        if not isinstance(inst, Phi):
            break
        first += 1
    return first


def _segments(fn: Function, regmap: Dict[Value, int]
              ) -> Iterator[Tuple[int, int, str, Dict[str, tuple]]]:
    """``(block index, entry instruction index, source, binds)`` of every
    segment of ``fn``."""
    bindex = {bb: j for j, bb in enumerate(fn.blocks)}
    firsts = [_first_non_phi(bb) for bb in fn.blocks]
    loops = LoopInfo(fn)
    for b, bb in enumerate(fn.blocks):
        insts = bb.instructions
        # The ops of the block: its non-phi instructions plus, when it
        # lacks a terminator, the free fall-off fault.
        costs = [instruction_cost(inst) for inst in insts[firsts[b]:]]
        if not insts or not insts[-1].is_terminator:
            costs.append(0)
        start, end = firsts[b], firsts[b] + len(costs)
        while start < end:
            w = _SegmentWriter(fn, regmap, bindex, firsts, loops, b)
            k = start
            while not w.op(k - start, k):
                k += 1
            n = k + 1 - start
            seg_costs = costs[start - firsts[b]:k + 1 - firsts[b]]
            tail = tuple(sum(seg_costs[i + 1:]) for i in range(n))
            name = re.sub(r"\W", "_", f"seg_{fn.name}_{bb.name}_{start}")
            caches = sorted(n for n, at in w.binds.items() if at[0] == "M")
            yield b, start, "\n".join([
                f"def _bind({', '.join(sorted(w.binds))}):",
                f"    def {name}(interp, frame):",
                *([f"        nonlocal {', '.join(caches)}"] if caches else []),
                f"        t = interp.steps + {n}",
                "        if t > interp.max_steps: return None",
                "        interp.steps = t",
                f"        interp.cycles += {sum(seg_costs)}",
                "        s = frame.slots",
                "        i = 0",
                "        try:",
                *w.lines,
                "        except BaseException:",
                # Keep the cost and step of the faulting op (the
                # reference adds both before executing), drop the
                # unexecuted tail, park the frame on the faulting op.
                f"            frame.index = {start} + i",
                f"            interp.cycles -= {tail}[i]",
                f"            interp.steps -= {n - 1} - i",
                "            raise",
                f"    return {name}",
                "",
            ]), w.binds
            start = k + 1


def generated_source(fn: Function) -> str:
    """The Python source of every segment of ``fn`` (regenerated on
    demand; nothing is retained) — the debugging entry point."""
    return "\n".join(source for _, _, source, _
                     in _segments(fn, build_regmap(fn)))


# ---------------------------------------------------------------------------
# Memo and binding
# ---------------------------------------------------------------------------


#: One memoised segment: block index, entry instruction index, code
#: object of the segment function, and its free-variable bind table.
_Template = Tuple[int, int, CodeType, Dict[str, tuple]]

_memo: "OrderedDict[bytes, List[_Template]]" = OrderedDict()
_memo_lock = threading.Lock()


def _segment_code(source: str) -> CodeType:
    # One compile() per segment: a whole-function source costs a
    # transient AST arena of several MiB.
    module = compile(source, _FILENAME, "exec", dont_inherit=True)
    outer = next(c for c in module.co_consts if isinstance(c, CodeType))
    return next(c for c in outer.co_consts if isinstance(c, CodeType))


def templates_for(fn: Function, regmap: Dict[Value, int],
                  digest: bytes) -> List[_Template]:
    """The function's memoised segment templates, generated on a miss."""
    global generations
    with _memo_lock:
        templates = _memo.get(digest)
        if templates is not None:
            _memo.move_to_end(digest)
            return templates
    templates = [(b, start, _segment_code(source), binds)
                 for b, start, source, binds in _segments(fn, regmap)]
    with _memo_lock:
        generations += 1
        _memo[digest] = templates
        while len(_memo) > MEMO_SIZE:
            _memo.popitem(last=False)
    return templates


def bind_segments(fn: Function, templates: Sequence[_Template]
                  ) -> List[Dict[int, Callable]]:
    """Instantiate the templates for this ``Function`` instance: per
    block, entry instruction index -> segment function."""
    blocks = fn.blocks
    entries = [CellType() for _ in blocks]
    segs: List[Dict[int, Callable]] = [{} for _ in blocks]
    for b, start, code, binds in templates:
        insts = blocks[b].instructions
        cells = []
        for name in code.co_freevars:
            kind, *at = binds[name]
            if kind == "N":
                cells.append(entries[at[0]])
                continue
            if kind == "M":
                obj: object = _NO_ENTRY
            elif kind == "B":
                obj = blocks[at[0]]
            elif kind == "I":
                obj = insts[at[0]]
            elif kind == "F":
                obj = insts[at[0]].callee
            elif kind == "O":
                obj = insts[at[0]].operands[at[1]]
            else:  # "P": incoming value of a phi of the target block
                obj = blocks[at[0]].instructions[at[1]].incoming[at[2]][1]
            cells.append(CellType(obj))
        segs[b][start] = FunctionType(code, _GLOBALS, code.co_name, None,
                                      tuple(cells))
    for j, bb in enumerate(blocks):
        entries[j].cell_contents = segs[j][_first_non_phi(bb)]
    return segs
