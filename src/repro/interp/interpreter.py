"""The mini-IR interpreter.

This is the execution substrate for everything in the reproduction: the
profiling runs, the sequential baseline timing, per-worker execution in
the simulated parallel region, and non-speculative recovery.

Design notes
------------
* Values are plain Python ints (integers and pointers-as-addresses) and
  floats; integer results are wrapped to their IR type on every operation.
* Control is an explicit frame stack, so deep guest recursion cannot blow
  the host stack, and the parallel executor can swap whole stacks to
  simulate worker processes.
* ``BlockBreakpoint`` is the executor's hook: entering a registered basic
  block raises it *before* phi assignment, exposing (frame, target, prev).
  The DOALL executor uses this both to detect parallel-region invocations
  and to delimit loop iterations during worker simulation.
* Hooks observe allocations, frees, loads, stores, branches, and
  calls/returns; the profilers are implemented as hooks.  A hook is told
  of loads, stores, calls and edges only as far as it subscribed to them
  (:meth:`Interpreter.add_hook`), so the rest run at plain speed.
"""

from __future__ import annotations

import os
import struct as _struct
import time as _time
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple)

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
    Opcode,
    Phi,
    PtrAdd,
    Ret,
    Select,
    Store,
    Unreachable,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import FloatType, IntType, PointerType, Type
from ..ir.values import (
    Argument,
    ConstFloat,
    ConstInt,
    ConstNull,
    GlobalVariable,
    Undef,
    Value,
)
from .compile import (
    _MISS,
    _UNDEF,
    RegisterFile,
    FunctionCode,
    function_code,
    regmap_for,
    run_fast,
)
from .costs import instruction_cost, intrinsic_cost
from .errors import BlockBreakpoint, GuestExit, GuestFault, GuestTimeout
from .intrinsics import default_intrinsics
from .memory import GLOBAL_BASE, STACK_BASE, AddressSpace, MemoryObject

__all__ = ["BlockBreakpoint", "Hook", "Frame", "Interpreter"]


#: What a hook can subscribe to beyond allocations, frees and returns
#: (which every hook sees): loads, stores, calls, every CFG edge taken,
#: or only the edges that enter, exit or iterate a loop.
HOOK_EVENTS = frozenset(("load", "store", "call", "edge", "loop_edge"))


class Hook:
    """Base class for execution observers; override what you need.

    ``subscription`` is what :meth:`Interpreter.add_hook` starts a hook
    with (see :data:`HOOK_EVENTS`); the interpreter calls ``on_load``,
    ``on_store``, ``on_call`` and ``on_branch`` only for those.  A hook
    may change it while it runs (:meth:`Interpreter.subscribe`)."""

    __slots__ = ()

    subscription: FrozenSet[str] = frozenset(
        ("load", "store", "call", "edge"))

    def on_alloc(self, interp, obj: MemoryObject, inst: Instruction) -> None: ...
    def on_free(self, interp, obj: MemoryObject, inst: Instruction) -> None: ...
    def on_load(self, interp, inst: Instruction, addr: int, size: int) -> None: ...
    def on_store(self, interp, inst: Instruction, addr: int, size: int) -> None: ...
    def on_branch(self, interp, inst: Instruction, target: BasicBlock) -> None: ...
    def on_call(self, interp, inst: Call, callee: Function) -> None: ...
    def on_return(self, interp, fn: Function) -> None: ...


class Frame:
    """One activation record.

    Registers live in a flat ``slots`` list indexed by the function's
    register numbering (see :mod:`repro.interp.compile`); ``regs`` is a
    dict-protocol view over the same storage, so existing callers (the
    reference ``step()`` path, the executor poking loop phis, tests) keep
    working unchanged while generated code indexes ``slots`` directly.
    """

    __slots__ = ("function", "block", "index", "prev_block", "slots",
                 "regs", "allocas", "call_inst")

    def __init__(self, function: Function, call_inst: Optional[Call] = None,
                 regmap: Optional[Dict[Value, int]] = None):
        self.function = function
        self.block: BasicBlock = function.entry
        self.index = 0
        self.prev_block: Optional[BasicBlock] = None
        if regmap is None:
            regmap = regmap_for(function)
        self.slots: List[object] = [_UNDEF] * len(regmap)
        self.regs = RegisterFile(regmap, self.slots)
        self.allocas: List[int] = []  # base addresses to free on pop
        self.call_inst = call_inst

    def copy(self) -> "Frame":
        dup = Frame.__new__(Frame)
        dup.function = self.function
        dup.block = self.block
        dup.index = self.index
        dup.prev_block = self.prev_block
        dup.slots = list(self.slots)
        dup.regs = self.regs.copy_for(dup.slots)
        dup.allocas = []
        dup.call_inst = None
        return dup


_U64 = 0xFFFFFFFFFFFFFFFF


class Interpreter:
    """Executes mini-IR on the simulated byte-addressable memory, with
    cycle/step accounting, hooks, breakpoints, and intrinsics.  Has two
    observationally identical paths: the reference step() path and the
    generated-source fast path (see DESIGN.md §7).
    """
    def __init__(
        self,
        module: Module,
        space: Optional[AddressSpace] = None,
        max_steps: int = 500_000_000,
        global_regions: Optional[Dict[str, int]] = None,
        compiled: Optional[bool] = None,
    ):
        if compiled is None:
            compiled = os.environ.get("REPRO_INTERP", "fast") != "step"
        self.compiled = compiled
        self._codes: Dict[Function, FunctionCode] = {}
        self._fast_result: object = None
        self.module = module
        self.space = space or AddressSpace()
        self.max_steps = max_steps
        self.global_regions = global_regions or {}
        self.steps = 0
        self.cycles = 0
        self.frames: List[Frame] = []
        #: Registered hooks with their subscriptions, in registration
        #: order (:meth:`add_hook`); the tuples below are what each event
        #: notifies, rebuilt whenever a subscription changes.
        self._subscriptions: List[Tuple[Hook, FrozenSet[str]]] = []
        self.hooks: Tuple[Hook, ...] = ()
        self.load_hooks: Tuple[Hook, ...] = ()
        self.store_hooks: Tuple[Hook, ...] = ()
        self.call_hooks: Tuple[Hook, ...] = ()
        #: Notified on every edge taken.
        self.edge_hooks: Tuple[Hook, ...] = ()
        #: Notified on an edge that enters, exits or iterates a loop:
        #: the ``edge`` subscribers and the ``loop_edge`` ones, each once.
        self.loop_edge_hooks: Tuple[Hook, ...] = ()
        self._loop_infos: Dict[Function, LoopInfo] = {}
        self._loop_edges: Dict[Tuple[BasicBlock, BasicBlock], bool] = {}
        self.intrinsics: Dict[str, Callable] = default_intrinsics()
        #: The runtime whose validation intrinsics generated code runs
        #: inline: set by :class:`repro.runtime.system.RuntimeSystem`
        #: while it speculates an iteration, None otherwise.
        self.runtime = None
        self._install_neutral_privateer_intrinsics()
        self.block_breakpoints: set = set()
        self.output: List[str] = []
        self.output_sink: Optional[Callable[[str], None]] = None
        self.prng_state = 0x9E3779B97F4A7C15
        self.call_context: List[str] = []
        self._context_ids: Dict[Tuple[str, ...], int] = {}
        self.global_addrs: Dict[GlobalVariable, int] = {}
        self.exit_code: Optional[int] = None
        self._layout_globals()

    # -- setup ---------------------------------------------------------------

    def _layout_globals(self) -> None:
        for gv in self.module.globals.values():
            region = self.global_regions.get(gv.name, GLOBAL_BASE)
            obj = self.space.allocate(
                gv.byte_size, gv.name, "global", region,
                site=f"global:{gv.name}",
                writable=True,  # read-only enforcement comes from the runtime
            )
            init = gv.initializer
            if isinstance(init, (bytes, bytearray)):
                obj.data[: len(init)] = init
            self.global_addrs[gv] = obj.base

    def _install_neutral_privateer_intrinsics(self) -> None:
        """Sequential semantics for the runtime intrinsics so transformed
        modules also run un-parallelized (used during recovery and tests)."""

        def h_alloc(interp, inst, args):
            return interp.intrinsics["malloc"](interp, inst, args[:1])

        def h_dealloc(interp, inst, args):
            return interp.intrinsics["free"](interp, inst, args[:1])

        def noop(interp, inst, args):
            return None

        self.intrinsics.setdefault("h_alloc", h_alloc)
        self.intrinsics.setdefault("h_dealloc", h_dealloc)
        for name in ("check_heap", "private_read", "private_write",
                     "redux_update", "predict_value", "misspec",
                     "loop_iter_begin", "loop_iter_end"):
            self.intrinsics.setdefault(name, noop)

    # -- hooks -------------------------------------------------------------------

    def add_hook(self, hook: Hook,
                 events: Optional[Iterable[str]] = None) -> None:
        """Register ``hook``, subscribed to ``events`` (default: its
        ``subscription``), after every hook already registered."""
        self._subscriptions.append((hook, self._checked(events, hook)))
        self._rebuild_hooks()

    def remove_hook(self, hook: Hook) -> None:
        self._subscriptions = [s for s in self._subscriptions
                               if s[0] is not hook]
        self._rebuild_hooks()

    def subscribe(self, hook: Hook, events: Iterable[str]) -> None:
        """Replace the subscription of registered ``hook``.  An event
        being notified completes with the hooks it started with."""
        self._subscriptions = [
            (h, self._checked(events, h) if h is hook else ev)
            for h, ev in self._subscriptions]
        self._rebuild_hooks()

    @staticmethod
    def _checked(events: Optional[Iterable[str]],
                 hook: Hook) -> FrozenSet[str]:
        chosen = frozenset(hook.subscription if events is None else events)
        unknown = chosen - HOOK_EVENTS
        if unknown:
            raise ValueError(f"unknown hook events {sorted(unknown)}")
        return chosen

    def _rebuild_hooks(self) -> None:
        subs = self._subscriptions
        self.hooks = tuple(h for h, _ev in subs)
        self.load_hooks = tuple(h for h, ev in subs if "load" in ev)
        self.store_hooks = tuple(h for h, ev in subs if "store" in ev)
        self.call_hooks = tuple(h for h, ev in subs if "call" in ev)
        self.edge_hooks = tuple(h for h, ev in subs if "edge" in ev)
        self.loop_edge_hooks = tuple(
            h for h, ev in subs if "edge" in ev or "loop_edge" in ev)

    def is_loop_edge(self, src: BasicBlock, dst: BasicBlock) -> bool:
        """The step path's :meth:`LoopInfo.is_loop_edge`, memoised (the
        generated code bakes the same answer into each branch)."""
        known = self._loop_edges.get((src, dst))
        if known is None:
            fn = src.parent
            info = self._loop_infos.get(fn)
            if info is None:
                info = self._loop_infos[fn] = LoopInfo(fn)
            known = self._loop_edges[src, dst] = info.is_loop_edge(src, dst)
        return known

    def notify_alloc(self, obj: MemoryObject, inst: Instruction) -> None:
        for h in self.hooks:
            h.on_alloc(self, obj, inst)

    def notify_free(self, obj: MemoryObject, inst: Instruction) -> None:
        for h in self.hooks:
            h.on_free(self, obj, inst)

    def notify_load(self, inst: Instruction, addr: int, size: int) -> None:
        for h in self.load_hooks:
            h.on_load(self, inst, addr, size)

    def notify_store(self, inst: Instruction, addr: int, size: int) -> None:
        for h in self.store_hooks:
            h.on_store(self, inst, addr, size)

    def notify_branch(self, frame: Frame, inst: Instruction,
                      target: BasicBlock) -> None:
        """Step path of a taken edge: the loop-edge subscribers on an
        edge that enters, exits or iterates a loop, else the every-edge
        ones."""
        hooks = self.loop_edge_hooks
        if not self.is_loop_edge(frame.block, target):
            hooks = self.edge_hooks
        for h in hooks:
            h.on_branch(self, inst, target)

    def emit_output(self, text: str) -> None:
        if self.output_sink is not None:
            self.output_sink(text)
        else:
            self.output.append(text)

    # -- naming ------------------------------------------------------------------

    def context_id(self) -> int:
        key = tuple(self.call_context)
        if key not in self._context_ids:
            self._context_ids[key] = len(self._context_ids)
        return self._context_ids[key]

    def object_name(self, inst: Instruction) -> str:
        return f"{inst.site_id()}#{self.context_id()}"

    # -- operand evaluation ---------------------------------------------------------

    def value_of(self, frame: Frame, v: Value):
        # Hot path: constants carry their value; everything else lives in
        # the frame's register file.
        cv = v.cval
        if cv is not None:
            return cv
        val = frame.regs.get(v, _MISS)
        if val is not _MISS:
            return val
        if isinstance(v, GlobalVariable):
            return self.global_addrs[v]
        raise GuestFault(
            f"use of undefined value {v.short()} in {frame.function.name}"
        )

    # -- program entry ------------------------------------------------------------------

    def code_for(self, fn: Function) -> FunctionCode:
        """Generated code for ``fn``, content-validated once per
        interpreter (transforms mutate IR between interpreter lifetimes,
        not during a run)."""
        code = self._codes.get(fn)
        if code is None:
            code = function_code(fn)
            self._codes[fn] = code
        return code

    def push_function(self, fn: Function, args: Sequence[object] = (),
                      call_inst: Optional[Call] = None) -> Frame:
        if fn.is_declaration:
            raise GuestFault(f"cannot execute declaration @{fn.name}")
        if self.compiled:
            # The frame's register numbering must match the (validated)
            # generated code, so resolve it through code_for; formals
            # take the first slots of that numbering.
            frame = Frame(fn, call_inst, regmap=self.code_for(fn).regmap)
            slots = frame.slots
            for i, actual in zip(range(len(fn.args)), args):
                slots[i] = actual
        else:
            frame = Frame(fn, call_inst)
            for formal, actual in zip(fn.args, args):
                frame.regs[formal] = actual
        self.frames.append(frame)
        return frame

    def run(self, entry: str = "main", args: Sequence[object] = ()):
        """Run ``entry`` to completion; returns its return value."""
        from ..obs.trace import TRACER

        fn = self.module.function_named(entry)
        self.push_function(fn, args)
        result: object = None
        # Observability stays outside the instruction loop: one enabled
        # check and (when tracing) a perf_counter pair per run().
        t0 = _time.perf_counter() if TRACER.enabled else 0.0
        steps0 = self.steps
        try:
            if self.compiled:
                result = run_fast(self)
            else:
                while self.frames:
                    result = self.step()
        except GuestExit as e:
            self.exit_code = e.code
            self.frames.clear()
            result = e.code
        finally:
            if TRACER.enabled:
                self._record_run_metrics(entry, t0, steps0)
        return result

    def _record_run_metrics(self, entry: str, t0: float, steps0: int) -> None:
        from ..obs.metrics import METRICS

        elapsed = _time.perf_counter() - t0
        steps = self.steps - steps0
        path = "fast" if self.compiled else "step"
        METRICS.counter(f"interp.instructions.{path}").inc(steps)
        if elapsed > 0 and steps:
            METRICS.histogram(f"interp.ips.{path}").observe(steps / elapsed)

    def run_until_event(self):
        """Run the current frame stack until it drains (returns the final
        return value).  ``BlockBreakpoint``, ``GuestExit`` and guest
        errors propagate to the caller — this is the executor's workhorse
        on both interpreter paths."""
        if self.compiled:
            return run_fast(self)
        result: object = None
        while self.frames:
            result = self.step()
        return result

    def swap_stack(self, frames: List[Frame]) -> List[Frame]:
        old, self.frames = self.frames, frames
        return old

    # -- the main step loop ------------------------------------------------------------

    def step(self):
        """Execute one instruction of the top frame.

        Returns the program's return value when the last frame pops (and
        the frame stack becomes empty), else None.
        """
        self.steps += 1
        if self.steps > self.max_steps:
            raise GuestTimeout(f"instruction budget exceeded ({self.max_steps})")
        frame = self.frames[-1]
        insts = frame.block.instructions
        if frame.index >= len(insts):
            raise GuestFault(
                f"fell off block {frame.block.name} in {frame.function.name}"
            )
        inst = insts[frame.index]
        try:
            self.cycles += inst._cached_cost  # type: ignore[attr-defined]
        except AttributeError:
            inst._cached_cost = instruction_cost(inst)  # type: ignore[attr-defined]
            self.cycles += inst._cached_cost  # type: ignore[attr-defined]
        op = inst.opcode

        if op is Opcode.BINOP:
            frame.regs[inst] = self._eval_binop(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.LOAD:
            addr = self.value_of(frame, inst.pointer)  # type: ignore[attr-defined]
            size = inst.type.size
            if self.load_hooks:
                self.notify_load(inst, addr, size)
            frame.regs[inst] = self._load_typed(addr, inst.type)
        elif op is Opcode.STORE:
            addr = self.value_of(frame, inst.pointer)  # type: ignore[attr-defined]
            value = self.value_of(frame, inst.value)  # type: ignore[attr-defined]
            size = inst.value.type.size  # type: ignore[attr-defined]
            if self.store_hooks:
                self.notify_store(inst, addr, size)
            self._store_typed(addr, value, inst.value.type)  # type: ignore[attr-defined]
        elif op is Opcode.PTRADD:
            base = self.value_of(frame, inst.base)  # type: ignore[attr-defined]
            off = self.value_of(frame, inst.offset)  # type: ignore[attr-defined]
            frame.regs[inst] = (int(base) + int(off)) & _U64
        elif op is Opcode.ICMP:
            frame.regs[inst] = self._eval_icmp(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.FCMP:
            frame.regs[inst] = self._eval_fcmp(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.CAST:
            frame.regs[inst] = self._eval_cast(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.SELECT:
            cond = self.value_of(frame, inst.operands[0])
            pick = inst.operands[1] if cond else inst.operands[2]
            frame.regs[inst] = self.value_of(frame, pick)
        elif op is Opcode.ALLOCA:
            count = int(self.value_of(frame, inst.count))  # type: ignore[attr-defined]
            size = inst.allocated_type.size * count  # type: ignore[attr-defined]
            obj = self.space.allocate(
                size, self.object_name(inst), "stack", STACK_BASE,
                site=inst.site_id(),
            )
            frame.allocas.append(obj.base)
            self.notify_alloc(obj, inst)
            frame.regs[inst] = obj.base
        elif op is Opcode.CALL:
            return self._eval_call(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.BR:
            if self.loop_edge_hooks:
                self.notify_branch(frame, inst, inst.target)  # type: ignore[attr-defined]
            self.enter_block(frame, inst.target, fire_breakpoints=True)  # type: ignore[attr-defined]
            return None
        elif op is Opcode.CONDBR:
            cond = self.value_of(frame, inst.cond)  # type: ignore[attr-defined]
            target = inst.if_true if cond else inst.if_false  # type: ignore[attr-defined]
            if self.loop_edge_hooks:
                self.notify_branch(frame, inst, target)
            self.enter_block(frame, target, fire_breakpoints=True)
            return None
        elif op is Opcode.RET:
            return self._eval_ret(frame, inst)  # type: ignore[arg-type]
        elif op is Opcode.PHI:
            raise GuestFault(
                f"phi executed outside block entry in {frame.function.name}"
            )
        elif op is Opcode.UNREACHABLE:
            raise GuestFault(f"reached 'unreachable' in {frame.function.name}")
        else:  # pragma: no cover - exhaustive
            raise GuestFault(f"unhandled opcode {op}")

        frame.index += 1
        return None

    # -- control flow -----------------------------------------------------------

    def enter_block(self, frame: Frame, target: BasicBlock,
                    fire_breakpoints: bool = False) -> None:
        """Transfer ``frame`` to ``target``: handles breakpoints and phis."""
        prev = frame.block
        if fire_breakpoints and target in self.block_breakpoints:
            raise BlockBreakpoint(frame, target, prev)
        # Atomic phi evaluation: read all incoming values before writing.
        phis: List[Tuple[Phi, object]] = []
        for inst in target.instructions:
            if not isinstance(inst, Phi):
                break
            phis.append((inst, self.value_of(frame, inst.incoming_for(prev))))
        for phi, value in phis:
            frame.regs[phi] = value
        frame.prev_block = prev
        frame.block = target
        frame.index = len(phis)

    def resume_at(self, frame: Frame, target: BasicBlock, prev: BasicBlock) -> None:
        """Continue a frame at ``target`` as if arriving from ``prev``
        (used by the executor after handling a breakpoint)."""
        frame.block = prev
        self.enter_block(frame, target, fire_breakpoints=False)

    def _eval_ret(self, frame: Frame, inst: Ret):
        value = self.value_of(frame, inst.value) if inst.value is not None else None
        for addr in reversed(frame.allocas):
            obj = self.space.free(addr)
            self.notify_free(obj, inst)
        self.frames.pop()
        for h in self.hooks:
            h.on_return(self, frame.function)
        if frame.call_inst is not None:
            self.call_context.pop()
        if not self.frames:
            return value
        caller = self.frames[-1]
        if frame.call_inst is not None:
            if not frame.call_inst.type.is_void():
                caller.regs[frame.call_inst] = value
            caller.index += 1
        return None

    def _eval_call(self, frame: Frame, inst: Call):
        callee = inst.callee
        args = [self.value_of(frame, a) for a in inst.args]
        for h in self.call_hooks:
            h.on_call(self, inst, callee)
        if callee.is_declaration or callee.is_intrinsic:
            impl = self.intrinsics.get(callee.name)
            if impl is None:
                raise GuestFault(f"call to unresolved external @{callee.name}")
            self.cycles += intrinsic_cost(callee.name, args)
            result = impl(self, inst, args)
            if not inst.type.is_void():
                frame.regs[inst] = self._coerce_result(result, inst.type)
            frame.index += 1
            return None
        self.call_context.append(inst.site_id())
        self.push_function(callee, args, call_inst=inst)
        return None

    def _coerce_result(self, result, type_: Type):
        if result is None:
            result = 0
        if isinstance(type_, IntType):
            return type_.wrap(int(result))
        if isinstance(type_, FloatType):
            return float(result)
        return int(result) & _U64

    # -- typed memory access -------------------------------------------------------

    def _load_typed(self, addr: int, type_: Type):
        if isinstance(type_, IntType):
            return self.space.read_int(addr, type_.size, type_.signed)
        if isinstance(type_, FloatType):
            return self.space.read_float(addr, type_.size)
        if isinstance(type_, PointerType):
            return self.space.read_int(addr, 8, signed=False)
        raise GuestFault(f"load of unsupported type {type_}")

    def _store_typed(self, addr: int, value, type_: Type) -> None:
        if isinstance(type_, IntType):
            self.space.write_int(addr, int(value), type_.size)
        elif isinstance(type_, FloatType):
            self.space.write_float(addr, float(value), type_.size)
        elif isinstance(type_, PointerType):
            self.space.write_int(addr, int(value), 8)
        else:
            raise GuestFault(f"store of unsupported type {type_}")

    # -- arithmetic ------------------------------------------------------------------

    def _eval_binop(self, frame: Frame, inst: BinOp):
        ops = inst.operands
        a = self.value_of(frame, ops[0])
        b = self.value_of(frame, ops[1])
        kind = inst.kind
        ty = inst.type
        if inst.float_op:
            return self._float_binop(kind, float(a), float(b))
        a, b = int(a), int(b)
        if isinstance(ty, PointerType):
            # Pointer arithmetic routed through binop (rare; frontend
            # prefers ptradd) — treat as 64-bit unsigned.
            ty = IntType(64, signed=False)
        assert isinstance(ty, IntType)
        return self._int_binop(kind, a, b, ty)

    @staticmethod
    def _float_binop(kind: BinOpKind, a: float, b: float) -> float:
        try:
            if kind is BinOpKind.FADD:
                return a + b
            if kind is BinOpKind.FSUB:
                return a - b
            if kind is BinOpKind.FMUL:
                return a * b
            if kind is BinOpKind.FDIV:
                return a / b
        except ZeroDivisionError:
            if a == 0:
                return float("nan")
            return float("inf") if a > 0 else float("-inf")
        raise GuestFault(f"bad float binop {kind}")

    @staticmethod
    def _int_binop(kind: BinOpKind, a: int, b: int, ty: IntType) -> int:
        mask = (1 << ty.bits) - 1
        if kind is BinOpKind.ADD:
            return ty.wrap(a + b)
        if kind is BinOpKind.SUB:
            return ty.wrap(a - b)
        if kind is BinOpKind.MUL:
            return ty.wrap(a * b)
        if kind is BinOpKind.DIV:
            if b == 0:
                raise GuestFault("integer division by zero")
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return ty.wrap(q)
        if kind is BinOpKind.REM:
            if b == 0:
                raise GuestFault("integer remainder by zero")
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            return ty.wrap(a - q * b)
        if kind is BinOpKind.AND:
            return ty.wrap((a & mask) & (b & mask))
        if kind is BinOpKind.OR:
            return ty.wrap((a & mask) | (b & mask))
        if kind is BinOpKind.XOR:
            return ty.wrap((a & mask) ^ (b & mask))
        if kind is BinOpKind.SHL:
            return ty.wrap((a & mask) << (b & (ty.bits - 1)))
        if kind is BinOpKind.SHR:
            shift = b & (ty.bits - 1)
            if ty.signed:
                return ty.wrap(a >> shift)
            return ty.wrap((a & mask) >> shift)
        raise GuestFault(f"bad int binop {kind}")

    def _eval_icmp(self, frame: Frame, inst: ICmp) -> int:
        a = int(self.value_of(frame, inst.lhs))
        b = int(self.value_of(frame, inst.rhs))
        ty = inst.lhs.type
        if isinstance(ty, IntType) and not ty.signed:
            mask = (1 << ty.bits) - 1
            a &= mask
            b &= mask
        elif isinstance(ty, PointerType):
            a &= _U64
            b &= _U64
        return int(self._compare(inst.pred, a, b))

    def _eval_fcmp(self, frame: Frame, inst: FCmp) -> int:
        a = float(self.value_of(frame, inst.lhs))
        b = float(self.value_of(frame, inst.rhs))
        return int(self._compare(inst.pred, a, b))

    @staticmethod
    def _compare(pred: CmpPred, a, b) -> bool:
        if pred is CmpPred.EQ:
            return a == b
        if pred is CmpPred.NE:
            return a != b
        if pred is CmpPred.LT:
            return a < b
        if pred is CmpPred.LE:
            return a <= b
        if pred is CmpPred.GT:
            return a > b
        return a >= b

    def _eval_cast(self, frame: Frame, inst: Cast):
        v = self.value_of(frame, inst.value)
        kind = inst.kind
        src = inst.value.type
        dst = inst.type
        if kind in (CastKind.TRUNC, CastKind.ZEXT, CastKind.SEXT):
            assert isinstance(dst, IntType)
            iv = int(v)
            if kind is CastKind.ZEXT and isinstance(src, IntType):
                iv &= (1 << src.bits) - 1
            return dst.wrap(iv)
        if kind is CastKind.BITCAST:
            if isinstance(src, FloatType) and isinstance(dst, IntType):
                return dst.wrap(int.from_bytes(_struct.pack("<d", float(v)), "little"))
            if isinstance(src, IntType) and isinstance(dst, FloatType):
                return _struct.unpack("<d", (int(v) & _U64).to_bytes(8, "little"))[0]
            return v
        if kind is CastKind.PTRTOINT:
            assert isinstance(dst, IntType)
            return dst.wrap(int(v) & _U64)
        if kind is CastKind.INTTOPTR:
            return int(v) & _U64
        if kind in (CastKind.SITOFP,):
            return float(int(v))
        if kind is CastKind.UITOFP:
            bits = src.bits if isinstance(src, IntType) else 64
            return float(int(v) & ((1 << bits) - 1))
        if kind in (CastKind.FPTOSI, CastKind.FPTOUI):
            assert isinstance(dst, IntType)
            f = float(v)
            if f != f or f in (float("inf"), float("-inf")):
                return 0
            return dst.wrap(int(f))
        if kind in (CastKind.FPEXT, CastKind.FPTRUNC):
            return float(v)
        raise GuestFault(f"unhandled cast {kind}")
