"""Loop selection (§4.3): which profiled loops can be speculatively
privatized and DOALL-parallelized, and which compatible subset to pick.

A loop is transformable when, after refining dependences with the heap
assignment (separated heaps; private/short-lived/reduction heaps carry no
loop-carried dependences) plus value prediction, control speculation, and
I/O deferral, the only remaining loop-carried state is the canonical
induction variable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..analysis.loops import InductionVariable, Loop, LoopInfo
from ..classify.classifier import HeapAssignment
from ..classify.heaps import HeapKind
from ..ir.instructions import Call, Instruction, Load, Phi, Store
from ..ir.module import Function, Module
from ..profiling.data import LoopProfile, LoopRef
from ..profiling.looptracker import LoopInfoCache
from .plan import SelectionError


def region_functions(module: Module, fn: Function, loop: Loop) -> List[Function]:
    """The functions whose code can execute inside the parallel region,
    in an order that depends on the module's content alone (the
    transform numbers what it inserts in this order)."""
    cg = CallGraph(module)
    out: List[Function] = []
    seen: Set[Function] = set()
    for bb in sorted(loop.blocks, key=lambda b: b.name):
        for inst in bb.instructions:
            if isinstance(inst, Call):
                reached = sorted(cg.transitive_callees(inst.callee),
                                 key=lambda f: f.name)
                for callee in [inst.callee, *reached]:
                    if callee not in seen and not callee.is_declaration:
                        seen.add(callee)
                        out.append(callee)
    return out


def check_transformable(
    module: Module,
    ref: LoopRef,
    profile: LoopProfile,
    assignment: HeapAssignment,
    cache: Optional[LoopInfoCache] = None,
) -> Tuple[Loop, InductionVariable, List[str]]:
    """Collect every reason the loop cannot be parallelized (empty list
    means transformable).  Returns the loop and its IV when found."""
    reasons: List[str] = []
    cache = cache or LoopInfoCache(module)
    fn = module.function_named(ref.function)
    info = cache.info(fn)
    loop = info.loop_with_header(ref.header)

    iv = info.find_induction_variable(loop)
    if iv is None:
        reasons.append("no canonical induction variable")

    # Only the IV may be loop-carried in registers.
    extra_phis = [
        p for p in loop.header.instructions
        if isinstance(p, Phi) and (iv is None or p is not iv.phi)
    ]
    if extra_phis:
        reasons.append(
            "scalar loop-carried values: "
            + ", ".join(p.short() for p in extra_phis)
        )

    # No SSA value defined in the loop may be used outside it (no live-outs).
    loop_insts = {inst for bb in loop.blocks for inst in bb.instructions}
    for bb in fn.blocks:
        if bb in loop.blocks:
            continue
        for inst in bb.instructions:
            for op in inst.operands:
                if isinstance(op, Instruction) and op in loop_insts:
                    reasons.append(f"loop live-out value {op.short()}")

    # Single exit, through the header.
    for bb in loop.blocks:
        for succ in bb.successors():
            if succ not in loop.blocks and bb is not loop.header:
                reasons.append(f"side exit from block {bb.name}")

    # Unrestricted objects carry irremovable cross-iteration flow deps.
    unrestricted = assignment.unrestricted_sites
    if unrestricted:
        reasons.append(
            "unrestricted objects: " + ", ".join(sorted(unrestricted))
        )

    # Each access and free site must target a single logical heap, or the
    # separation check has no single expected tag.
    for site, objs in profile.pointer_objects.items():
        kinds = {assignment.site_heaps.get(o) for o in objs}
        kinds.discard(None)
        if len(kinds) > 1:
            reasons.append(
                f"access {site} touches multiple heaps: "
                + ", ".join(sorted(str(k) for k in kinds))
            )

    # exit() would escape the speculative world; the PRNG carries hidden
    # loop-carried state no heap assignment can privatize.
    for g in [fn, *region_functions(module, fn, loop)]:
        for inst in g.instructions():
            if isinstance(inst, Call) and inst.callee.name in (
                "exit", "rand_int", "rand_seed"
            ):
                if g is not fn or inst.parent in loop.blocks:
                    reasons.append(
                        f"call to {inst.callee.name}() in region ({g.name})")

    return loop, iv, reasons  # type: ignore[return-value]


def loops_may_be_simultaneously_active(
    module: Module, a_ref: LoopRef, a_loop: Loop, b_ref: LoopRef, b_loop: Loop
) -> bool:
    """Two loops are incompatible if one can be active while the other
    runs: same loop nest, or one's region can invoke the other's function."""
    if a_ref.function == b_ref.function:
        if a_loop.contains_loop(b_loop) or b_loop.contains_loop(a_loop):
            return True
    fa = module.function_named(a_ref.function)
    fb = module.function_named(b_ref.function)
    a_region = set(region_functions(module, fa, a_loop))
    b_region = set(region_functions(module, fb, b_loop))
    return fb in a_region or fa in b_region


def heaps_compatible(a: HeapAssignment, b: HeapAssignment) -> bool:
    """Two loops are incompatible if an object is assigned to different
    heaps for each loop (§4.3)."""
    for site, kind in a.site_heaps.items():
        other = b.site_heaps.get(site)
        if other is not None and other is not kind:
            return False
    return True


def select_loops(
    module: Module,
    candidates: List[Tuple[LoopRef, int, LoopProfile, HeapAssignment]],
) -> List[Tuple[LoopRef, LoopProfile, HeapAssignment]]:
    """Greedy selection by execution time subject to the compatibility
    constraints; mirrors §4.3's 'largest set of parallelizable loops'."""
    cache = LoopInfoCache(module)
    selected: List[Tuple[LoopRef, LoopProfile, HeapAssignment, Loop]] = []
    for ref, _cycles, profile, assignment in sorted(
        candidates, key=lambda c: c[1], reverse=True
    ):
        loop, iv, reasons = check_transformable(module, ref, profile, assignment, cache)
        if reasons:
            continue
        compatible = True
        for other_ref, _p, other_assignment, other_loop in selected:
            if loops_may_be_simultaneously_active(module, ref, loop,
                                                  other_ref, other_loop):
                compatible = False
                break
            if not heaps_compatible(assignment, other_assignment):
                compatible = False
                break
        if compatible:
            selected.append((ref, profile, assignment, loop))
    return [(r, p, a) for r, p, a, _l in selected]
