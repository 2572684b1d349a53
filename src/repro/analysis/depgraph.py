"""Static loop dependence analysis and non-speculative DOALL legality.

This is the compiler's "pessimistic" view of the program — the view that,
per the paper's motivation, fails on programs that reuse data structures.
The speculative pipeline refines it with profile information (§4.3); the
DOALL-only baseline (Figure 7) uses it directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..ir.instructions import Call, Instruction, Load, Store
from ..ir.module import Function, Module
from ..ir.types import I8
from .loops import InductionVariable, Loop, LoopInfo
from .modref import ModRefAnalysis
from .pointsto import PointsToAnalysis, PointsToSet
from .scev import Affine, decompose_pointer


class DepKind(enum.Enum):
    """Memory dependence kind: flow (W->R), anti (R->W), or output (W->W)."""
    FLOW = "flow"     # write -> read
    ANTI = "anti"     # read -> write
    OUTPUT = "output"  # write -> write


@dataclass
class DepEdge:
    """One memory dependence between two instructions, with its kind,
    loop-carried flag, and the analysis reason that produced it.
    """
    src: Instruction
    dst: Instruction
    kind: DepKind
    loop_carried: bool
    reason: str = ""

    def __repr__(self) -> str:
        lc = "LC" if self.loop_carried else "II"
        return (
            f"<Dep {self.kind.value}/{lc} {self.src.site_id()} -> "
            f"{self.dst.site_id()} ({self.reason})>"
        )


@dataclass
class _Access:
    inst: Instruction
    is_read: bool
    is_write: bool
    points: PointsToSet
    offset: Optional[Affine]
    size: int


def _access_size(inst: Instruction) -> int:
    if isinstance(inst, Load):
        return inst.type.size
    if isinstance(inst, Store):
        try:
            return inst.value.type.size
        except Exception:
            return 8
    return 1


class LoopDependences:
    """All loop-carried memory and scalar dependences of one loop."""

    def __init__(
        self,
        module: Module,
        loop: Loop,
        loop_info: LoopInfo,
        pta: Optional[PointsToAnalysis] = None,
        modref: Optional[ModRefAnalysis] = None,
    ):
        self.module = module
        self.loop = loop
        self.loop_info = loop_info
        self.pta = pta or PointsToAnalysis(module)
        self.modref = modref or ModRefAnalysis(module, self.pta)
        self.iv: Optional[InductionVariable] = loop_info.find_induction_variable(loop)
        self.accesses: List[_Access] = []
        self.has_io = False
        self._collect()

    # -- access collection -------------------------------------------------

    def _collect(self) -> None:
        for bb in sorted(self.loop.blocks, key=lambda b: b.name):
            for inst in bb.instructions:
                if isinstance(inst, Load):
                    base, offset = decompose_pointer(inst.pointer)
                    self.accesses.append(
                        _Access(inst, True, False, self.pta.points_to(base),
                                offset, _access_size(inst))
                    )
                elif isinstance(inst, Store):
                    base, offset = decompose_pointer(inst.pointer)
                    self.accesses.append(
                        _Access(inst, False, True, self.pta.points_to(base),
                                offset, _access_size(inst))
                    )
                elif isinstance(inst, Call):
                    summary = self.modref.summary(inst.callee)
                    if summary.does_io:
                        self.has_io = True
                    ref_nonempty = summary.ref.is_top or summary.ref.objects
                    mod_nonempty = summary.mod.is_top or summary.mod.objects
                    if ref_nonempty or mod_nonempty:
                        points = PointsToSet()
                        points.merge(summary.ref)
                        points.merge(summary.mod)
                        self.accesses.append(
                            _Access(inst, bool(ref_nonempty), bool(mod_nonempty),
                                    points, None, 1)
                        )

    # -- pairwise tests ------------------------------------------------------

    def _pair_loop_carried(self, a: _Access, b: _Access) -> Optional[str]:
        """Return a reason string if a loop-carried dependence between the
        two accesses cannot be ruled out, else None."""
        if not a.points.may_alias(b.points):
            return None
        iv = self.iv
        if (
            iv is not None
            and a.points.is_singleton()
            and b.points.is_singleton()
            and a.points.objects == b.points.objects
            and a.offset is not None
            and b.offset is not None
            and self._symbolic_parts_match(a.offset, b.offset, iv.phi)
        ):
            ca, cb = a.offset.coeff_of(iv.phi), b.offset.coeff_of(iv.phi)
            da, db = a.offset.const, b.offset.const
            size = max(a.size, b.size)
            if ca == cb:
                if ca == 0:
                    # Same address (or fixed disjoint addresses) every trip.
                    if abs(da - db) >= size:
                        return None
                    return "same location every iteration"
                if da == db and abs(ca) >= size:
                    # a[i] vs a[i]: different iterations touch different
                    # elements; only an intra-iteration dependence.
                    return None
                delta = da - db
                if delta % ca != 0 and abs(delta % ca) >= size and abs(ca) - abs(delta % ca) >= size:
                    return None  # interleaved, never-overlapping strides
                return "strided accesses may collide across iterations"
            return "differing strides"
        return "unanalyzable addresses may alias"

    def _symbolic_parts_match(self, a: Affine, b: Affine, iv_phi) -> bool:
        """The two offsets may mention phis other than this loop's IV
        (e.g. an enclosing loop's counter) as long as those phis are
        invariant here and appear with equal coefficients — then they act
        as a common symbolic constant and the SIV tests below apply."""
        other = set(a.coeffs) | set(b.coeffs)
        other.discard(iv_phi)
        for phi in other:
            if a.coeffs.get(phi, 0) != b.coeffs.get(phi, 0):
                return False
            if phi.parent in self.loop.blocks:
                return False  # varies within this loop: not comparable
        return True

    def loop_carried_memory_deps(self) -> List[DepEdge]:
        edges: List[DepEdge] = []
        n = len(self.accesses)
        for i in range(n):
            for j in range(n):
                a, b = self.accesses[i], self.accesses[j]
                if not a.is_write and not b.is_write:
                    continue
                reason = self._pair_loop_carried(a, b)
                if reason is None:
                    continue
                if a.is_write and b.is_read:
                    edges.append(DepEdge(a.inst, b.inst, DepKind.FLOW, True, reason))
                if a.is_read and b.is_write:
                    edges.append(DepEdge(a.inst, b.inst, DepKind.ANTI, True, reason))
                if a.is_write and b.is_write and i <= j:
                    edges.append(DepEdge(a.inst, b.inst, DepKind.OUTPUT, True, reason))
        return edges


@dataclass
class DOALLVerdict:
    """Static DOALL legality answer: legal, or the reasons it is not."""
    legal: bool
    reasons: List[str]

    def __bool__(self) -> bool:
        return self.legal


def doall_legal_static(module: Module, loop: Loop, loop_info: LoopInfo,
                       pta: Optional[PointsToAnalysis] = None,
                       modref: Optional[ModRefAnalysis] = None) -> DOALLVerdict:
    """Non-speculative DOALL legality: the test the DOALL-only baseline
    applies (no privatization, no reductions, no speculation) — the
    loop's shape, as the speculative selection judges it
    (:meth:`LoopInfo.doall_shape`), and then its I/O and memory."""
    iv, reasons = loop_info.doall_shape(loop)
    deps = LoopDependences(module, loop, loop_info, pta, modref)
    if deps.has_io:
        # Listed right after the IV verdict, ahead of the shape's others.
        reasons.insert(int(iv is None), "loop performs I/O")
    mem = deps.loop_carried_memory_deps()
    if mem:
        # Summarize by reason to keep verdicts readable.
        seen = {}
        for e in mem:
            seen.setdefault(e.reason, 0)
            seen[e.reason] += 1
        for reason, count in sorted(seen.items()):
            reasons.append(f"{count} loop-carried memory dep(s): {reason}")
    return DOALLVerdict(not reasons, reasons)
