"""Flow-insensitive points-to analysis.

This deliberately models the *weak* static analysis the paper argues
against: pointers loaded from memory, returned from calls, or produced by
integer casts are treated as pointing anywhere (``TOP``).  What remains
precise — direct uses of globals, allocas, and malloc results — is enough
to (a) elide provably-correct separation checks and (b) let the
non-speculative DOALL-only baseline parallelize simple array loops, while
failing on linked structures exactly as prior work does.

Abstract objects are allocation sites: one per global variable, alloca
instruction, and heap-allocation call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir.instructions import (
    Alloca,
    Call,
    Cast,
    CastKind,
    Load,
    Phi,
    PtrAdd,
    Select,
)
from ..ir.module import Function, Module
from ..ir.values import Argument, ConstNull, GlobalVariable, Value

HEAP_ALLOCATORS = ("malloc", "calloc", "h_alloc")


@dataclass(frozen=True)
class AbstractObject:
    """A static allocation site."""

    kind: str  # "global" | "stack" | "heap"
    name: str  # global name or instruction site id

    def __str__(self) -> str:
        return f"{self.kind}:{self.name}"


class PointsToSet:
    """Either a finite set of abstract objects, or TOP (anything)."""

    __slots__ = ("objects", "is_top")

    def __init__(self, objects: Optional[Set[AbstractObject]] = None, is_top: bool = False):
        self.objects: Set[AbstractObject] = set(objects or ())
        self.is_top = is_top

    @classmethod
    def top(cls) -> "PointsToSet":
        return cls(is_top=True)

    @classmethod
    def of(cls, *objs: AbstractObject) -> "PointsToSet":
        return cls(set(objs))

    def merge(self, other: "PointsToSet") -> bool:
        """Union ``other`` into self; returns True if self changed."""
        if self.is_top:
            return False
        if other.is_top:
            self.is_top = True
            self.objects.clear()
            return True
        before = len(self.objects)
        self.objects |= other.objects
        return len(self.objects) != before

    def may_alias(self, other: "PointsToSet") -> bool:
        if self.is_top or other.is_top:
            return True
        return bool(self.objects & other.objects)

    def is_singleton(self) -> bool:
        return not self.is_top and len(self.objects) == 1

    def __repr__(self) -> str:
        if self.is_top:
            return "PointsTo(TOP)"
        return f"PointsTo({{{', '.join(sorted(str(o) for o in self.objects))}}})"


class PointsToAnalysis:
    """Compute a points-to set for every pointer-typed value in a module."""

    def __init__(self, mod: Module):
        self.module = mod
        self.sets: Dict[Value, PointsToSet] = {}
        self._run()

    def _set_for(self, v: Value) -> PointsToSet:
        if v not in self.sets:
            self.sets[v] = PointsToSet()
        return self.sets[v]

    def _single_store_globals(self) -> Dict[GlobalVariable, Value]:
        """Global pointer variables written by exactly one store whose
        address never escapes: loads from them see the stored value's
        points-to set (the rule LLVM's GlobalOpt applies).  This is what
        lets the non-speculative baseline reason about simple programs
        like blackscholes while still failing on multi-store structures
        like dijkstra's queue."""
        from ..ir.instructions import Load, Store

        stores: Dict[GlobalVariable, list] = {}
        escaped: Set[GlobalVariable] = set()
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                for op in inst.operands:
                    if not isinstance(op, GlobalVariable):
                        continue
                    if isinstance(inst, Load) and inst.pointer is op:
                        continue
                    if isinstance(inst, Store) and inst.pointer is op and inst.value is not op:
                        stores.setdefault(op, []).append(inst.value)
                        continue
                    escaped.add(op)
        return {
            gv: values[0]
            for gv, values in stores.items()
            if len(values) == 1 and gv not in escaped
            and gv.value_type.is_pointer()
        }

    def _run(self) -> None:
        single_store = self._single_store_globals()
        # Seed the precise sources.
        for gv in self.module.globals.values():
            self.sets[gv] = PointsToSet.of(AbstractObject("global", gv.name))
        # Call sites by callee, in module order, for the argument rule.
        self._calls_to: Dict[Function, List[Call]] = {}
        for fn in self.module.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, Alloca):
                    self.sets[inst] = PointsToSet.of(
                        AbstractObject("stack", inst.site_id())
                    )
                elif isinstance(inst, Call):
                    self._calls_to.setdefault(inst.callee, []).append(inst)
                    if inst.callee.name in HEAP_ALLOCATORS:
                        self.sets[inst] = PointsToSet.of(
                            AbstractObject("heap", inst.site_id())
                        )

        # Iterate simple propagation rules to a fixed point.
        changed = True
        while changed:
            changed = False
            for fn in self.module.defined_functions():
                for inst in fn.instructions():
                    if not inst.type.is_pointer():
                        continue
                    if inst in self.sets and self.sets[inst].is_top:
                        continue
                    target = self._set_for(inst)
                    if isinstance(inst, Alloca):
                        pass  # seeded with its own site
                    elif isinstance(inst, PtrAdd):
                        changed |= target.merge(self._operand_set(inst.base))
                    elif isinstance(inst, Cast):
                        if inst.kind is CastKind.BITCAST:
                            changed |= target.merge(self._operand_set(inst.value))
                        else:  # inttoptr and friends: anything
                            changed |= target.merge(PointsToSet.top())
                    elif isinstance(inst, Select):
                        changed |= target.merge(self._operand_set(inst.operands[1]))
                        changed |= target.merge(self._operand_set(inst.operands[2]))
                    elif isinstance(inst, Phi):
                        for _, v in inst.incoming:
                            changed |= target.merge(self._operand_set(v))
                    elif isinstance(inst, Load):
                        pointer = inst.pointer
                        if (
                            isinstance(pointer, GlobalVariable)
                            and pointer in single_store
                        ):
                            changed |= target.merge(
                                self._operand_set(single_store[pointer]))
                        else:
                            # Field-insensitive, heap-opaque: a pointer read
                            # from memory may point anywhere.
                            changed |= target.merge(PointsToSet.top())
                    elif isinstance(inst, Call):
                        if inst.callee.name not in HEAP_ALLOCATORS:
                            changed |= target.merge(PointsToSet.top())
                    else:
                        changed |= target.merge(PointsToSet.top())
            # Arguments of address type are unconstrained callers' pointers.
            for fn in self.module.defined_functions():
                for arg in fn.args:
                    if arg.type.is_pointer():
                        changed |= self._set_for(arg).merge(self._points_of_callers(fn, arg))

    def _points_of_callers(self, fn: Function, arg: Argument) -> PointsToSet:
        calls = self._calls_to.get(fn)
        if not calls:
            return PointsToSet.top()
        out = PointsToSet()
        for inst in calls:
            if arg.index < len(inst.args):
                out.merge(self._operand_set(inst.args[arg.index]))
            else:
                return PointsToSet.top()
        return out

    def _operand_set(self, v: Value) -> PointsToSet:
        from ..ir.instructions import Instruction

        if isinstance(v, ConstNull):
            return PointsToSet()
        if v in self.sets:
            return self.sets[v]
        if isinstance(v, GlobalVariable):
            return PointsToSet.of(AbstractObject("global", v.name))
        if isinstance(v, (Argument, Instruction)):
            # Not computed yet: return the (growing) set so the fixpoint
            # stays monotone instead of poisoning consumers with TOP.
            return self._set_for(v)
        if v.type.is_pointer():
            return PointsToSet.top()
        return PointsToSet()

    # -- queries -------------------------------------------------------------

    def points_to(self, v: Value) -> PointsToSet:
        return self._operand_set(v)

    def may_alias(self, a: Value, b: Value) -> bool:
        return self.points_to(a).may_alias(self.points_to(b))
