"""The Privateer privatization transformation (§4.4–§4.6).

Rewrites the module in place:

* **Replace allocation** (§4.4): classified allocas and heap allocations
  become ``h_alloc(size, heap)`` / ``h_dealloc(ptr, heap)``; classified
  globals are recorded for relocation into their logical heap at startup
  (the paper allocates them in a pre-``main`` initializer — our runtime
  places them when it lays out globals, which is observationally the same
  and documented in DESIGN.md).
* **Separation checks** (§4.5): every load/store in the parallel region
  whose expected heap cannot be proven statically gets a
  ``check_heap(ptr, heap)`` call; provable checks are elided.
* **Privacy checks** (§4.6): accesses to private-heap objects get
  ``private_read``/``private_write`` calls feeding the shadow metadata.
* **Reduction updates**: reduction stores get ``redux_update`` markers so
  the runtime can track and merge per-worker partial results.
* **Value prediction / control speculation**: predicted locations are
  checked at the latch (fig. 2b lines 79–80); region blocks never seen
  during profiling get a ``misspec()`` so straying off the profiled path
  triggers recovery.

The transformed module still runs sequentially (all runtime intrinsics
have neutral fallbacks), which is exactly what non-speculative recovery
executes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..analysis.pointsto import AbstractObject, PointsToAnalysis
from ..analysis.reduction import find_reduction_updates
from ..classify.classifier import HeapAssignment
from ..classify.heaps import HeapKind
from ..ir.instructions import (
    Alloca,
    BinOp,
    BinOpKind,
    Call,
    Instruction,
    Load,
    Phi,
    PtrAdd,
    Ret,
    Store,
)
from ..ir.module import BasicBlock, Function, Module
from ..ir.types import I64
from ..ir.values import ConstInt, GlobalVariable, Value
from ..profiling.data import LoopProfile, LoopRef
from ..profiling.looptracker import LoopInfoCache
from .plan import (
    CheckCounts,
    ParallelPlan,
    ReduxObjectPlan,
    SelectionError,
)
from .selection import check_transformable, region_functions


def _site_of_abstract(obj: AbstractObject) -> str:
    return f"global:{obj.name}" if obj.kind == "global" else obj.name


class PrivateerTransform:
    """Apply the transformation for one selected loop."""

    def __init__(
        self,
        module: Module,
        ref: LoopRef,
        profile: LoopProfile,
        assignment: HeapAssignment,
    ):
        self.module = module
        self.ref = ref
        self.profile = profile
        self.assignment = assignment
        self.checks = CheckCounts()
        #: site id of a rewritten allocation call -> heap kind
        self._alloc_site_kinds: Dict[str, HeapKind] = {}

    # -- public -------------------------------------------------------------

    def run(self) -> ParallelPlan:
        from ..obs.trace import TRACER

        # Inserted values continue the module's own numbering, so the new
        # calls' site ids (recorded below as they are made) are the same
        # for every transform of this source with this plan.
        with TRACER.span("pipeline.transform", cat="pipeline",
                         loop=str(self.ref)) as sp, self.module.fresh_uids():
            plan = self._run(sp)
        return plan

    def _run(self, sp) -> ParallelPlan:
        loop, iv, reasons = check_transformable(
            self.module, self.ref, self.profile, self.assignment
        )
        if reasons:
            raise SelectionError(self.ref, reasons)
        fn = self.module.function_named(self.ref.function)
        region = region_functions(self.module, fn, loop)

        global_placements = self._replace_allocations()
        # Points-to runs after allocation replacement so h_alloc results
        # participate in separation-check elision.
        pta = PointsToAnalysis(self.module)
        self._insert_checks(fn, loop, region, pta, global_placements)
        self._insert_control_speculation()
        self._insert_value_prediction_checks(loop)
        redux_objects = self._plan_reductions(fn, region)

        plan = ParallelPlan(
            module=self.module,
            ref=self.ref,
            function=fn,
            loop=loop,
            iv=iv,
            assignment=self.assignment,
            profile=self.profile,
            global_placements=global_placements,
            predictions=list(self.assignment.predictions),
            redux_objects=redux_objects,
            defer_io=bool(self.assignment.io_sites),
            region_functions=region,
            checks=self.checks,
        )
        sp.set(redux_objects=len(redux_objects),
               region_functions=len(region))
        return plan

    # -- §4.4 replace allocation ------------------------------------------------

    def _replace_allocations(self) -> Dict[str, HeapKind]:
        global_placements: Dict[str, HeapKind] = {}
        site_kinds = self.assignment.site_heaps

        for site, kind in sorted(site_kinds.items()):
            if kind is HeapKind.UNRESTRICTED:
                continue  # unrestricted objects stay in normal memory
            if site.startswith("global:"):
                global_placements[site[len("global:"):]] = kind

        to_rewrite: List[Tuple[Instruction, HeapKind]] = []
        for g in self.module.defined_functions():
            for inst in g.instructions():
                kind = site_kinds.get(inst.site_id())
                if kind is None or kind is HeapKind.UNRESTRICTED:
                    continue
                if isinstance(inst, Alloca) or (
                    isinstance(inst, Call) and inst.callee.name in ("malloc", "calloc")
                ):
                    to_rewrite.append((inst, kind))

        for inst, kind in to_rewrite:
            if isinstance(inst, Alloca):
                self._rewrite_alloca(inst, kind)
            else:
                self._rewrite_heap_alloc(inst, kind)  # type: ignore[arg-type]

        self._rewrite_frees(site_kinds)
        return global_placements

    def _rewrite_alloca(self, alloca: Alloca, kind: HeapKind) -> None:
        bb = alloca.parent
        assert bb is not None and bb.parent is not None
        fn = bb.parent
        idx = bb.instructions.index(alloca)
        h_alloc = self.module.get_or_declare_intrinsic("h_alloc")
        h_dealloc = self.module.get_or_declare_intrinsic("h_dealloc")

        elem_size = ConstInt(I64, alloca.allocated_type.size)
        inserted: List[Instruction] = []
        if isinstance(alloca.count, ConstInt):
            size: Value = ConstInt(I64, alloca.allocated_type.size * alloca.count.value)
        else:
            mul = BinOp(BinOpKind.MUL, alloca.count, elem_size, name="h.size")
            inserted.append(mul)
            size = mul
        call = Call(h_alloc, [size, ConstInt(I64, int(kind))],
                    name=alloca.name or "h.obj")
        call.meta["privateer"] = f"h_alloc {kind}"
        call.meta["replaced_site"] = alloca.site_id()
        inserted.append(call)

        bb.instructions[idx:idx + 1] = inserted
        for new_inst in inserted:
            new_inst.parent = bb
        for inst in fn.instructions():
            if inst is not call:
                inst.replace_operand(alloca, call)

        # Free the storage at every function exit, as §4.4 prescribes.
        for bb2 in fn.blocks:
            term = bb2.terminator
            if isinstance(term, Ret):
                dealloc = Call(h_dealloc, [call, ConstInt(I64, int(kind))])
                dealloc.meta["privateer"] = f"h_dealloc {kind}"
                bb2.insert(len(bb2.instructions) - 1, dealloc)
        self._alloc_site_kinds[call.site_id()] = kind

    def _rewrite_heap_alloc(self, call: Call, kind: HeapKind) -> None:
        """malloc/calloc -> h_alloc, preserving the instruction identity
        (and therefore the profiled site id)."""
        bb = call.parent
        assert bb is not None
        h_alloc = self.module.get_or_declare_intrinsic("h_alloc")
        if call.callee.name == "calloc":
            mul = BinOp(BinOpKind.MUL, call.operands[0], call.operands[1],
                        name="h.size")
            bb.insert(bb.instructions.index(call), mul)
            size: Value = mul
        else:
            size = call.operands[0]
        call.callee = h_alloc
        call.operands[:] = [size, ConstInt(I64, int(kind))]
        call.meta["privateer"] = f"h_alloc {kind}"
        self._alloc_site_kinds[call.site_id()] = kind

    def _rewrite_frees(self, site_kinds: Dict[str, HeapKind]) -> None:
        """free(p) -> h_dealloc(p, kind) wherever the profile shows the
        freed objects' heap."""
        h_dealloc = self.module.get_or_declare_intrinsic("h_dealloc")
        for g in self.module.defined_functions():
            for inst in g.instructions():
                if not (isinstance(inst, Call) and inst.callee.name == "free"):
                    continue
                objs = self.profile.pointer_objects.get(inst.site_id(), set())
                kinds = {site_kinds.get(o) for o in objs}
                kinds.discard(None)
                if len(kinds) != 1:
                    continue
                kind = kinds.pop()
                if kind is HeapKind.UNRESTRICTED:
                    continue
                inst.callee = h_dealloc
                inst.operands.append(ConstInt(I64, int(kind)))
                inst.meta["privateer"] = f"h_dealloc {kind}"

    # -- §4.5 / §4.6 checks --------------------------------------------------------

    def _region_blocks(self, fn: Function, loop, region: List[Function]):
        # Layout order, not the set's: checks are numbered as inserted.
        for bb in fn.blocks:
            if bb in loop.blocks:
                yield bb
        for g in region:
            yield from g.blocks

    def _expected_kind(self, inst: Instruction) -> Optional[HeapKind]:
        objs = self.profile.pointer_objects.get(inst.site_id())
        if not objs:
            return None
        kinds = {self.assignment.site_heaps.get(o) for o in objs}
        kinds.discard(None)
        if len(kinds) != 1:
            return None
        return kinds.pop()

    def _static_kind_of(self, obj: AbstractObject,
                        global_placements: Dict[str, HeapKind]) -> Optional[HeapKind]:
        if obj.kind == "global":
            return global_placements.get(obj.name)
        if obj.name in self._alloc_site_kinds:
            return self._alloc_site_kinds[obj.name]
        return self.assignment.site_heaps.get(_site_of_abstract(obj))

    def _can_elide(self, pointer: Value, expected: HeapKind,
                   pta: PointsToAnalysis,
                   global_placements: Dict[str, HeapKind]) -> bool:
        pts = pta.points_to(pointer)
        if pts.is_top or not pts.objects:
            return False
        return all(
            self._static_kind_of(o, global_placements) is expected
            for o in pts.objects
        )

    def _insert_checks(self, fn: Function, loop, region: List[Function],
                       pta: PointsToAnalysis,
                       global_placements: Dict[str, HeapKind]) -> None:
        check_heap = self.module.get_or_declare_intrinsic("check_heap")
        private_read = self.module.get_or_declare_intrinsic("private_read")
        private_write = self.module.get_or_declare_intrinsic("private_write")
        h_dealloc_name = "h_dealloc"

        for bb in self._region_blocks(fn, loop, region):
            new_insts: List[Instruction] = []
            for inst in bb.instructions:
                checks: List[Instruction] = []
                if isinstance(inst, (Load, Store)):
                    expected = self._expected_kind(inst)
                    if expected is not None:
                        pointer = inst.pointer  # type: ignore[union-attr]
                        if self._can_elide(pointer, expected, pta, global_placements):
                            self.checks.separation_elided += 1
                        else:
                            chk = Call(check_heap,
                                       [pointer, ConstInt(I64, int(expected))])
                            chk.meta["privateer"] = f"check_heap {expected}"
                            checks.append(chk)
                            self.checks.separation += 1
                        if expected is HeapKind.PRIVATE:
                            if isinstance(inst, Load):
                                size = inst.type.size
                                c = Call(private_read,
                                         [pointer, ConstInt(I64, size)])
                                c.meta["privateer"] = "private_read"
                                self.checks.private_read += 1
                            else:
                                size = inst.value.type.size  # type: ignore[union-attr]
                                c = Call(private_write,
                                         [pointer, ConstInt(I64, size)])
                                c.meta["privateer"] = "private_write"
                                self.checks.private_write += 1
                            checks.append(c)
                        elif expected is HeapKind.REDUX and isinstance(inst, Store):
                            redux_update = self.module.get_or_declare_intrinsic(
                                "redux_update")
                            size = inst.value.type.size  # type: ignore[union-attr]
                            c = Call(redux_update, [pointer, ConstInt(I64, size)])
                            c.meta["privateer"] = "redux_update"
                            self.checks.redux_update += 1
                            checks.append(c)
                elif isinstance(inst, Call) and inst.callee.name == h_dealloc_name:
                    # Validate the pointer's heap before freeing into it.
                    if len(inst.operands) >= 2 and isinstance(inst.operands[1], ConstInt):
                        kind = HeapKind(inst.operands[1].value)
                        if not self._can_elide(inst.operands[0], kind, pta,
                                               global_placements):
                            chk = Call(check_heap,
                                       [inst.operands[0], ConstInt(I64, int(kind))])
                            chk.meta["privateer"] = f"check_heap {kind}"
                            checks.append(chk)
                            self.checks.separation += 1
                        else:
                            self.checks.separation_elided += 1
                for c in checks:
                    c.parent = bb
                    new_insts.append(c)
                new_insts.append(inst)
            bb.instructions = new_insts

    # -- control speculation ----------------------------------------------------------

    def _insert_control_speculation(self) -> None:
        misspec = self.module.get_or_declare_intrinsic("misspec")
        for fn_name, bb_name in sorted(self.assignment.unexecuted_blocks):
            fn = self.module.functions.get(fn_name)
            if fn is None or fn.is_declaration:
                continue
            try:
                bb = fn.block_named(bb_name)
            except KeyError:
                continue
            idx = 0
            while idx < len(bb.instructions) and isinstance(bb.instructions[idx], Phi):
                idx += 1
            call = Call(misspec, [])
            call.meta["privateer"] = "control speculation"
            bb.insert(idx, call)
            self.checks.control_misspec += 1

    # -- value prediction ----------------------------------------------------------------

    def _insert_value_prediction_checks(self, loop) -> None:
        """Check each predicted location at the latch (fig. 2b, lines
        79–80); the runtime also restores predictions at iteration start."""
        if not self.assignment.predictions:
            return
        predict = self.module.get_or_declare_intrinsic("predict_value")
        latch = loop.latches[0]
        at = len(latch.instructions) - 1  # before the terminator
        for vp in self.assignment.predictions:
            name = vp.obj_site[len("global:"):]
            gv = self.module.global_named(name)
            addr = PtrAdd(gv, ConstInt(I64, vp.offset), name=f"vp.{name}")
            call = Call(predict, [addr, ConstInt(I64, vp.size),
                                  ConstInt(I64, vp.value)])
            call.meta["privateer"] = f"predict {vp}"
            latch.insert(at, addr)
            latch.insert(at + 1, call)
            at += 2
            self.checks.predict_value += 1

    # -- reductions --------------------------------------------------------------------------

    def _plan_reductions(self, fn: Function,
                         region: List[Function]) -> Dict[str, ReduxObjectPlan]:
        out: Dict[str, ReduxObjectPlan] = {}
        redux_sites = self.assignment.redux_sites
        if not redux_sites:
            return out
        for g in [fn, *region]:
            for upd in find_reduction_updates(g):
                objs = self.profile.pointer_objects.get(upd.store.site_id(), set())
                for site in objs & redux_sites:
                    out[site] = ReduxObjectPlan(
                        site=site,
                        operator=upd.operator.name,
                        element_size=upd.load.type.size,
                        is_float=upd.operator.name.startswith("F"),
                    )
        # Fall back to the profiled operator for sites whose update wasn't
        # matched statically in this pass.
        for site in redux_sites - set(out):
            op = self.assignment.redux_ops.get(site, "ADD")
            out[site] = ReduxObjectPlan(site, op, 8, op.startswith("F"))
        return out
