"""The parallelization plan produced by the Privateer transformation.

A :class:`ParallelPlan` ties together everything the runtime system and
DOALL executor need: the selected loop, its induction variable, the heap
assignment, the speculation support (value predictions, control
speculation, I/O deferral), and bookkeeping about the checks inserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..analysis.loops import InductionVariable, Loop
from ..classify.classifier import HeapAssignment
from ..classify.heaps import HeapKind
from ..ir.module import Function, Module
from ..profiling.data import LoopProfile, LoopRef, ValuePrediction

#: The paper triggers a checkpoint at least every 253 iterations (the
#: metadata timestamp must fit a byte: codes 0..2 reserved, 3..255 usable).
MAX_CHECKPOINT_PERIOD = 253


class SelectionError(Exception):
    """The loop cannot be transformed/parallelized; carries the reasons."""

    def __init__(self, ref: LoopRef, reasons: List[str]):
        super().__init__(f"{ref}: " + "; ".join(reasons))
        self.ref = ref
        self.reasons = reasons


@dataclass
class CheckCounts:
    """Static counts of validation calls inserted by the transformation."""

    separation: int = 0
    separation_elided: int = 0
    private_read: int = 0
    private_write: int = 0
    redux_update: int = 0
    control_misspec: int = 0
    predict_value: int = 0

    def total(self) -> int:
        return (self.separation + self.private_read + self.private_write
                + self.redux_update + self.control_misspec + self.predict_value)


@dataclass
class ReduxObjectPlan:
    """Runtime merge recipe for one reduction object."""

    site: str
    operator: str      # BinOpKind name, e.g. "ADD" / "FADD"
    element_size: int  # bytes per element
    is_float: bool


@dataclass
class ParallelPlan:
    """Everything the executor needs about a transformed loop: the
    loop, its induction variable, heap placements, and the speculation
    hooks planted by the transformation.  The checkpoint period is not
    here: the executor picks it per invocation.
    """
    module: Module
    ref: LoopRef
    function: Function
    loop: Loop
    iv: InductionVariable
    assignment: HeapAssignment
    profile: LoopProfile
    #: Globals relocated into logical heaps at startup: name -> heap.
    global_placements: Dict[str, HeapKind] = field(default_factory=dict)
    #: Value predictions restored at iteration start, checked at latch.
    predictions: List[ValuePrediction] = field(default_factory=list)
    redux_objects: Dict[str, ReduxObjectPlan] = field(default_factory=dict)
    defer_io: bool = False
    region_functions: List[Function] = field(default_factory=list)
    checks: CheckCounts = field(default_factory=CheckCounts)

    def describe(self) -> str:
        lines = [
            f"ParallelPlan for {self.ref}",
            f"  induction variable: step {self.iv.step}, "
            f"exit pred {self.iv.pred.value}",
            f"  globals relocated: "
            + (", ".join(f"{n}->{k}" for n, k in sorted(self.global_placements.items()))
               or "none"),
            f"  predictions: {len(self.predictions)}  deferred I/O: {self.defer_io}",
            f"  checks: separation={self.checks.separation} "
            f"(elided {self.checks.separation_elided}), "
            f"priv_rd={self.checks.private_read}, "
            f"priv_wr={self.checks.private_write}, "
            f"redux={self.checks.redux_update}, "
            f"control={self.checks.control_misspec}, "
            f"predict={self.checks.predict_value}",
        ]
        return "\n".join(lines)
