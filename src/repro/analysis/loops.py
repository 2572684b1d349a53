"""Natural-loop detection, the loop forest, and canonical induction
variables.

The DOALL transformation (and hence everything Privateer enables) only
applies to *counted* loops: loops with a canonical induction variable
``iv = phi(init, iv + step)`` and an exit condition comparing the IV with a
loop-invariant bound.  This mirrors LLVM's ``LoopInfo`` +
``InductionDescriptor`` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..ir.instructions import BinOp, BinOpKind, CmpPred, CondBr, ICmp, Phi
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstInt, Value
from .cfg import CFG
from .dominators import DominatorTree


class Loop:
    """A natural loop: a header plus the set of blocks that can reach a
    back edge without leaving the header's dominance region."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.latches: List[BasicBlock] = []
        self.parent: Optional["Loop"] = None
        self.children: List["Loop"] = []

    @property
    def depth(self) -> int:
        d, p = 1, self.parent
        while p is not None:
            d += 1
            p = p.parent
        return d

    def contains_loop(self, other: "Loop") -> bool:
        node: Optional[Loop] = other
        while node is not None:
            if node is self:
                return True
            node = node.parent
        return False

    def exit_blocks(self) -> List[BasicBlock]:
        """Blocks outside the loop that are targets of edges from inside."""
        out: List[BasicBlock] = []
        for bb in self.blocks:
            for s in bb.successors():
                if s not in self.blocks and s not in out:
                    out.append(s)
        return out

    def preheader(self, cfg: CFG) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header, if any."""
        outside = [p for p in cfg.preds.get(self.header, []) if p not in self.blocks]
        return outside[0] if len(outside) == 1 else None

    def __repr__(self) -> str:
        return f"<Loop header={self.header.name} blocks={len(self.blocks)} depth={self.depth}>"


@dataclass
class InductionVariable:
    """Canonical IV description: ``phi`` starts at ``init`` and advances by
    the constant ``step`` each trip; ``bound`` is the loop-invariant limit
    tested by ``compare`` in the header."""

    phi: Phi
    init: Value
    step: int
    update: BinOp
    compare: ICmp
    bound: Value
    pred: CmpPred
    exit_on_true: bool


class LoopInfo:
    """Loop forest for one function."""

    def __init__(self, fn: Function, cfg: Optional[CFG] = None,
                 domtree: Optional[DominatorTree] = None):
        self.function = fn
        self.cfg = cfg or CFG(fn)
        self.domtree = domtree or DominatorTree(fn, self.cfg)
        self.loops: List[Loop] = []
        self._block_loop: Dict[BasicBlock, Loop] = {}
        self._discover()

    def _discover(self) -> None:
        # Find back edges: tail -> head where head dominates tail.
        header_latches: Dict[BasicBlock, List[BasicBlock]] = {}
        for bb in self.cfg.reverse_postorder():
            for s in self.cfg.succs.get(bb, []):
                if self.domtree.dominates(s, bb):
                    header_latches.setdefault(s, []).append(bb)

        for header, latches in header_latches.items():
            loop = Loop(header)
            loop.latches = latches
            worklist = [latch for latch in latches if latch is not header]
            while worklist:
                bb = worklist.pop()
                if bb in loop.blocks:
                    continue
                loop.blocks.add(bb)
                worklist.extend(self.cfg.preds.get(bb, []))
            self.loops.append(loop)

        # Nest loops: smallest enclosing loop becomes the parent.
        by_size = sorted(self.loops, key=lambda l: len(l.blocks))
        for i, inner in enumerate(by_size):
            for outer in by_size[i + 1:]:
                if inner.header in outer.blocks and outer is not inner:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

        # Innermost-loop map for each block.
        for loop in by_size:
            for bb in loop.blocks:
                if bb not in self._block_loop:
                    self._block_loop[bb] = loop

    def innermost_loop_of(self, bb: BasicBlock) -> Optional[Loop]:
        return self._block_loop.get(bb)

    def enclosing_loops(self, bb: BasicBlock) -> List[Loop]:
        """Loops containing ``bb``, outermost first."""
        loop = self.innermost_loop_of(bb)
        chain: List[Loop] = []
        while loop is not None:
            chain.append(loop)
            loop = loop.parent
        chain.reverse()
        return chain

    def is_loop_edge(self, src: BasicBlock, dst: BasicBlock) -> bool:
        """Whether the edge ``src -> dst`` enters, exits or iterates a
        loop: the loops around ``src`` and ``dst`` differ, or ``dst`` is
        the header of a loop around both.  Every other edge leaves a
        dynamic loop stack as it found it."""
        here, there = self.enclosing_loops(src), self.enclosing_loops(dst)
        return here != there or any(loop.header is dst for loop in there)

    def loop_with_header(self, header_name: str) -> Loop:
        for loop in self.loops:
            if loop.header.name == header_name:
                return loop
        raise KeyError(f"no loop with header {header_name!r}")

    # -- canonical induction variables -----------------------------------

    def is_loop_invariant(self, value: Value, loop: Loop) -> bool:
        """A value is invariant if it is not produced inside the loop."""
        from ..ir.instructions import Instruction

        if not isinstance(value, Instruction):
            return True
        return value.parent not in loop.blocks

    def find_induction_variable(self, loop: Loop) -> Optional[InductionVariable]:
        """Match the canonical pattern produced by lowering a counted
        ``for`` loop after mem2reg."""
        preheader = loop.preheader(self.cfg)
        if preheader is None or len(loop.latches) != 1:
            return None
        latch = loop.latches[0]

        term = loop.header.terminator
        if not isinstance(term, CondBr):
            return None
        cond = term.cond
        if not isinstance(cond, ICmp):
            return None
        exit_true = term.if_true not in loop.blocks
        exit_false = term.if_false not in loop.blocks
        if exit_true == exit_false:
            return None

        for inst in loop.header.instructions:
            if not isinstance(inst, Phi):
                continue
            init = update = None
            for bb, v in inst.incoming:
                if bb is preheader:
                    init = v
                elif bb is latch:
                    update = v
            if init is None or update is None:
                continue
            if not isinstance(update, BinOp) or update.kind not in (
                BinOpKind.ADD,
                BinOpKind.SUB,
            ):
                continue
            # iv' = iv +/- const
            step: Optional[int] = None
            if update.lhs is inst and isinstance(update.rhs, ConstInt):
                step = update.rhs.value
            elif (
                update.kind is BinOpKind.ADD
                and update.rhs is inst
                and isinstance(update.lhs, ConstInt)
            ):
                step = update.lhs.value
            if step is None:
                continue
            if update.kind is BinOpKind.SUB:
                step = -step
            if step == 0:
                continue
            # Exit condition must compare the IV against an invariant bound.
            if cond.lhs is inst and self.is_loop_invariant(cond.rhs, loop):
                bound = cond.rhs
            elif cond.rhs is inst and self.is_loop_invariant(cond.lhs, loop):
                bound = cond.lhs
            else:
                continue
            if not self.is_loop_invariant(init, loop):
                continue
            return InductionVariable(
                phi=inst,
                init=init,
                step=step,
                update=update,
                compare=cond,
                bound=bound,
                pred=cond.pred,
                exit_on_true=exit_true,
            )
        return None
