"""Promote scalar stack slots to SSA registers (LLVM's mem2reg).

The MiniC frontend lowers every local variable to an ``alloca`` plus
loads/stores.  Before Privateer's classification runs, promotable scalars
(address never taken, never indexed, non-aggregate) are lifted into SSA
registers with phi nodes.  This matters for fidelity: without it the loop
induction variable is a memory object carrying a loop-carried flow
dependence, and no loop would ever be DOALL-able.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from ..ir.instructions import Alloca, Instruction, Load, Phi, Store
from ..ir.module import BasicBlock, Function
from ..ir.values import ConstFloat, ConstInt, ConstNull, Undef, Value
from .cfg import CFG
from .dominators import DominatorTree


def promotable_allocas(fn: Function) -> List[Alloca]:
    """Allocas that are only ever loaded from or stored to (as the pointer
    operand), hold a single non-aggregate element, and never escape."""
    allocas: List[Alloca] = [
        inst
        for inst in fn.instructions()
        if isinstance(inst, Alloca)
        and isinstance(inst.count, ConstInt)
        and inst.count.value == 1
        and not inst.allocated_type.is_aggregate()
    ]
    candidates = set(allocas)
    escaped: Set[Alloca] = set()
    for inst in fn.instructions():
        if isinstance(inst, Load):
            continue
        for op in inst.operands:
            if op in candidates and not (
                    isinstance(inst, Store)
                    and inst.pointer is op and inst.value is not op):
                escaped.add(op)  # type: ignore[arg-type]
    return [a for a in allocas if a not in escaped]


def _default_value(alloca: Alloca) -> Value:
    ty = alloca.allocated_type
    if ty.is_integer():
        return ConstInt(ty, 0)  # type: ignore[arg-type]
    if ty.is_float():
        return ConstFloat(ty, 0.0)  # type: ignore[arg-type]
    if ty.is_pointer():
        return ConstNull(ty)  # type: ignore[arg-type]
    return Undef(ty)


def _rewrite_operands(insts: Iterable[Instruction],
                      mapping: Dict[Value, Value]) -> None:
    """Replace each operand of ``insts`` that ``mapping`` names."""
    for inst in insts:
        ops = inst.operands
        for i, op in enumerate(ops):
            new = mapping.get(op)
            if new is not None:
                ops[i] = new
        if isinstance(inst, Phi):
            inst.incoming = [(bb, mapping.get(v, v)) for bb, v in inst.incoming]


def _resolve_chains(replacements: Dict[Value, Value]) -> Dict[Value, Value]:
    """Where each deleted load's uses end up when the replacements are
    applied one after another, in order, to an operand: a replacement
    that is itself a deleted load is followed only if its own entry comes
    later (an earlier entry has already been applied)."""
    order = {old: i for i, old in enumerate(replacements)}
    final: Dict[Value, Value] = {}
    for old in reversed(list(replacements)):
        new = replacements[old]
        later = order.get(new)
        final[old] = final[new] if later is not None and later > order[old] else new
    return final


class _Promoter:
    def __init__(self, fn: Function, allocas: List[Alloca]):
        self.fn = fn
        self.cfg = CFG(fn)
        self.domtree = DominatorTree(fn, self.cfg)
        self.allocas = allocas
        self.phi_slot: Dict[Phi, Alloca] = {}
        #: Every deleted load -> its value, in renaming order.
        self.replacements: Dict[Value, Value] = {}

    def run(self) -> None:
        frontiers = self.domtree.dominance_frontiers()
        reachable = self.cfg.reachable()
        alloca_set = set(self.allocas)

        # Phase 1: place phis at the iterated dominance frontier of defs.
        def_blocks: Dict[Alloca, Set[BasicBlock]] = {a: set() for a in self.allocas}
        for inst in self.fn.instructions():
            if isinstance(inst, Store) and inst.pointer in alloca_set:
                def_blocks[inst.pointer].add(inst.parent)  # type: ignore[index,arg-type]
        new_phis: Dict[BasicBlock, List[Phi]] = {}
        for alloca in self.allocas:
            defs = def_blocks[alloca]
            has_phi: Set[BasicBlock] = set()
            worklist = [bb for bb in defs if bb in reachable]
            while worklist:
                bb = worklist.pop()
                for df_block in frontiers.get(bb, ()):
                    if df_block in has_phi or df_block not in reachable:
                        continue
                    phi = Phi(alloca.allocated_type, name=f"{alloca.name or 'mem'}.phi")
                    phi.parent = df_block
                    new_phis.setdefault(df_block, []).append(phi)
                    self.phi_slot[phi] = alloca
                    has_phi.add(df_block)
                    if df_block not in defs:
                        worklist.append(df_block)
        # Each new phi goes in front of the block: the last placed first.
        for bb, phis in new_phis.items():
            bb.instructions[:0] = phis[::-1]

        # Phase 2: rename along the dominator tree.
        stacks: Dict[Alloca, List[Value]] = {a: [_default_value(a)] for a in self.allocas}
        self._rename(self.cfg.entry, stacks, alloca_set)

        # Phase 3: delete the allocas and their dead loads/stores.
        for bb in self.fn.blocks:
            bb.instructions = [
                inst
                for inst in bb.instructions
                if not (
                    (isinstance(inst, Alloca) and inst in alloca_set)
                    or (isinstance(inst, Load) and inst.pointer in alloca_set)
                    or (isinstance(inst, Store) and inst.pointer in alloca_set)
                )
            ]

    def _rename(
        self,
        bb: BasicBlock,
        stacks: Dict[Alloca, List[Value]],
        alloca_set: Set[Alloca],
    ) -> None:
        # Iterative DFS over the dominator tree with explicit push counts so
        # the value stacks unwind correctly.
        children = self.domtree.children()
        phi_slot = self.phi_slot
        visited: Set[BasicBlock] = set()
        work: List[tuple] = [("visit", bb)]
        while work:
            action, node = work.pop()
            if action == "pop":
                for slot, count in node:  # node is a list of (alloca, pushes)
                    del stacks[slot][-count:]
                continue
            if node in visited:
                continue
            visited.add(node)
            pushes: Dict[Alloca, int] = {}

            # A deleted load's value is never a load deleted in the same
            # block, so one lookup per operand finishes the block; uses in
            # later blocks are rewritten after renaming.  Phis lead the
            # block, before any load: none uses one of this block's.
            replacements: Dict[Value, Value] = {}
            users: List[Instruction] = []
            for inst in node.instructions:
                if isinstance(inst, Phi) and inst in phi_slot:
                    slot = phi_slot[inst]
                    stacks[slot].append(inst)
                    pushes[slot] = pushes.get(slot, 0) + 1
                elif isinstance(inst, Load) and inst.pointer in alloca_set:
                    replacements[inst] = stacks[inst.pointer][-1]  # type: ignore[index]
                elif isinstance(inst, Store) and inst.pointer in alloca_set:
                    slot = inst.pointer  # type: ignore[assignment]
                    value = replacements.get(inst.value, inst.value)
                    stacks[slot].append(value)
                    pushes[slot] = pushes.get(slot, 0) + 1
                elif not isinstance(inst, Phi):
                    users.append(inst)
            if replacements:
                _rewrite_operands(users, replacements)
                self.replacements.update(replacements)

            # Fill phi arms in CFG successors (new phis lead each block).
            for succ in self.cfg.succs.get(node, []):
                for inst in succ.instructions:
                    if not isinstance(inst, Phi):
                        break
                    if inst in phi_slot:
                        inst.add_incoming(node, stacks[phi_slot[inst]][-1])

            work.append(("pop", list(pushes.items())))
            for child in children.get(node, []):
                work.append(("visit", child))


def _prune_dead_phis(fn: Function) -> int:
    """Remove phis with no (transitive) non-phi users.

    Blind phi placement at dominance frontiers creates phis for variables
    that are dead across the join (e.g. an inner-loop counter at the outer
    loop's header).  Such phis would look like loop-carried scalar state
    and wrongly disqualify loops from DOALL, so prune them — this makes
    the construction semi-pruned SSA, like LLVM's.
    """
    # A phi is live iff it is reachable, through phi operands, from some
    # non-phi instruction.  This handles cycles of mutually-referencing
    # dead phis, which a simple no-users fixpoint would keep forever.
    live: Set[Phi] = set()
    worklist: List[Phi] = []
    for inst in fn.instructions():
        if isinstance(inst, Phi):
            continue
        for op in inst.operands:
            if isinstance(op, Phi) and op not in live:
                live.add(op)
                worklist.append(op)
    while worklist:
        phi = worklist.pop()
        for _bb, value in phi.incoming:
            if isinstance(value, Phi) and value not in live:
                live.add(value)
                worklist.append(value)

    removed_total = 0
    for bb in fn.blocks:
        kept = []
        for inst in bb.instructions:
            if isinstance(inst, Phi) and inst not in live:
                inst.parent = None
                removed_total += 1
            else:
                kept.append(inst)
        bb.instructions = kept
    return removed_total


def promote_memory_to_registers(fn: Function) -> int:
    """Run mem2reg on ``fn``; returns the number of allocas promoted."""
    allocas = promotable_allocas(fn)
    if not allocas:
        return 0
    promoter = _Promoter(fn, allocas)
    promoter.run()
    # Rewrite the uses of deleted loads in blocks after the load's own.
    if promoter.replacements:
        _rewrite_operands(fn.instructions(),
                          _resolve_chains(promoter.replacements))
    _prune_dead_phis(fn)
    return len(allocas)


def promote_module(mod) -> int:
    """Run mem2reg on every defined function in a module."""
    total = 0
    for fn in mod.defined_functions():
        total += promote_memory_to_registers(fn)
    return total
