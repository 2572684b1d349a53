"""Loop entry/iteration/exit tracking over interpreter branch events.

Both profilers need to know, at every dynamic instant, which loops are
active and at which iteration.  This module turns raw branch edges into
loop transitions using each function's LoopInfo, handling nesting,
function calls inside loops, and early exits via ``return``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..ir.module import BasicBlock, Function, Module
from .data import LoopRef


class LoopActions:
    """Precomputed consequences of one CFG edge."""

    __slots__ = ("exited", "iterated", "entered", "moves")

    def __init__(self, exited: List[Loop], iterated: Optional[Loop],
                 entered: List[Loop]):
        self.exited = exited          # innermost-first
        self.iterated = iterated      # back edge target loop, if any
        self.entered = entered        # outermost-first
        #: Whether the edge does anything at all: enters, exits or
        #: iterates a loop (``LoopInfo.is_loop_edge``).
        self.moves = bool(exited or iterated is not None or entered)


class LoopInfoCache:
    """Lazy per-function LoopInfo + per-edge action cache."""

    def __init__(self, module: Module):
        self.module = module
        self._infos: Dict[Function, LoopInfo] = {}
        self._edges: Dict[Tuple[BasicBlock, BasicBlock], LoopActions] = {}
        self._refs: Dict[Loop, LoopRef] = {}

    def info(self, fn: Function) -> LoopInfo:
        if fn not in self._infos:
            self._infos[fn] = LoopInfo(fn)
        return self._infos[fn]

    def loop_by_ref(self, ref: LoopRef) -> Loop:
        fn = self.module.function_named(ref.function)
        return self.info(fn).loop_with_header(ref.header)

    def ref_of(self, fn: Function, loop: Loop) -> LoopRef:
        ref = self._refs.get(loop)
        if ref is None:
            ref = self._refs[loop] = LoopRef(fn.name, loop.header.name)
        return ref

    def actions(self, src: BasicBlock, dst: BasicBlock) -> LoopActions:
        key = (src, dst)
        cached = self._edges.get(key)
        if cached is not None:
            return cached
        fn = src.parent
        assert fn is not None
        info = self.info(fn)
        src_loops = info.enclosing_loops(src)
        dst_loops = info.enclosing_loops(dst)
        exited = [l for l in src_loops if l not in dst_loops]
        entered = [l for l in dst_loops if l not in src_loops]
        iterated: Optional[Loop] = None
        for loop in dst_loops:
            if loop.header is dst and loop in src_loops:
                iterated = loop
                break
        actions = LoopActions(list(reversed(exited)), iterated, entered)
        self._edges[key] = actions
        return actions


class ActiveLoop:
    """One live loop invocation on the tracker stack; ``record`` is the
    tracker's client's to keep per-invocation state in."""

    __slots__ = ("loop", "ref", "frame_depth", "iteration", "entry_cycles",
                 "record")

    def __init__(self, loop: Loop, ref: LoopRef, frame_depth: int,
                 entry_cycles: int):
        self.loop = loop
        self.ref = ref
        self.frame_depth = frame_depth
        self.iteration = 0
        self.entry_cycles = entry_cycles
        self.record: object = None


class LoopTracker:
    """Maintains the dynamic loop stack from interpreter events.

    Callbacks (all optional):
      on_enter(active), on_iterate(active), on_exit(active, cycles_now)
    """

    def __init__(
        self,
        cache: LoopInfoCache,
        on_enter: Optional[Callable] = None,
        on_iterate: Optional[Callable] = None,
        on_exit: Optional[Callable] = None,
    ):
        self.cache = cache
        self._edges = cache._edges
        self.stack: List[ActiveLoop] = []
        self.on_enter = on_enter
        self.on_iterate = on_iterate
        self.on_exit = on_exit

    def handle_branch(self, interp, inst, target: BasicBlock) -> None:
        src = inst.parent
        actions = self._edges.get((src, target))
        if actions is None:
            if src is None or src.parent is None:
                return
            actions = self.cache.actions(src, target)
        if not actions.moves:
            return
        depth = len(interp.frames)
        for loop in actions.exited:
            self._pop_if_top(loop, depth, interp)
        if actions.iterated is not None and self.stack:
            top = self.stack[-1]
            if top.loop is actions.iterated and top.frame_depth == depth:
                top.iteration += 1
                if self.on_iterate:
                    self.on_iterate(top)
        fn = src.parent
        for loop in actions.entered:
            active = ActiveLoop(loop, self.cache.ref_of(fn, loop), depth,
                                interp.cycles)
            self.stack.append(active)
            if self.on_enter:
                self.on_enter(active)

    def handle_return(self, interp, fn: Function) -> None:
        depth = len(interp.frames)
        while self.stack and self.stack[-1].frame_depth > depth:
            self._pop(interp)

    def _pop_if_top(self, loop: Loop, depth: int, interp) -> None:
        if self.stack and self.stack[-1].loop is loop and \
                self.stack[-1].frame_depth == depth:
            self._pop(interp)

    def _pop(self, interp) -> None:
        active = self.stack.pop()
        if self.on_exit:
            self.on_exit(active, interp.cycles)
