"""Static analyses over the mini-IR: CFG, dominators, loops, mem2reg,
points-to, mod/ref, reductions, and loop dependences."""

from .callgraph import CallGraph
from .cfg import CFG
from .depgraph import (
    DepEdge,
    DepKind,
    DOALLVerdict,
    LoopDependences,
    doall_legal_static,
)
from .dominators import DominatorTree
from .licm import hoist_loop_invariants, hoist_module
from .loops import InductionVariable, Loop, LoopInfo
from .mem2reg import promote_memory_to_registers, promote_module, promotable_allocas
from .modref import ModRefAnalysis, ModRefSummary
from .pointsto import AbstractObject, PointsToAnalysis, PointsToSet
from .reduction import (
    REDUCTION_IDENTITY,
    ReductionUpdate,
    apply_operator,
    find_reduction_updates,
    reduction_sites,
)
from .scev import Affine, as_affine, decompose_pointer

__all__ = [
    "AbstractObject", "Affine", "CallGraph", "CFG", "DepEdge", "DepKind",
    "DOALLVerdict", "DominatorTree", "InductionVariable", "Loop",
    "LoopDependences", "LoopInfo", "ModRefAnalysis", "ModRefSummary",
    "PointsToAnalysis", "PointsToSet", "REDUCTION_IDENTITY",
    "ReductionUpdate", "apply_operator", "as_affine", "decompose_pointer",
    "doall_legal_static", "find_reduction_updates", "hoist_loop_invariants",
    "hoist_module", "promotable_allocas",
    "promote_memory_to_registers", "promote_module", "reduction_sites",
]
