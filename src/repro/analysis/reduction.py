"""Static recognition of associative/commutative reduction updates.

Algorithm 2 of the paper looks for operation sequences that
"syntactically resemble an associative and commutative reduction
operation": a load from pointer ``p``, an assoc+comm binary op combining
the loaded value with new data, and a store of the result back through a
pointer that names the same location.

The recognizer returns :class:`ReductionUpdate` records tying together the
load, the operator, and the store; classification uses them to build the
reduction footprint, and the runtime uses the operator identity/merge
functions when privatizing the reduction heap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..ir.instructions import BinOp, BinOpKind, Instruction, Load, Select, Store
from ..ir.module import Function
from ..ir.values import Value

#: Identity element for each reduction operator.
REDUCTION_IDENTITY: Dict[BinOpKind, float] = {
    BinOpKind.ADD: 0,
    BinOpKind.MUL: 1,
    BinOpKind.AND: -1,  # all-ones in two's complement
    BinOpKind.OR: 0,
    BinOpKind.XOR: 0,
    BinOpKind.FADD: 0.0,
    BinOpKind.FMUL: 1.0,
}


@dataclass
class ReductionUpdate:
    """One ``*p = *p (op) x`` update site."""

    load: Load
    operator: BinOpKind
    store: Store

    @property
    def pointer(self) -> Value:
        return self.store.pointer

    def __repr__(self) -> str:
        return f"<ReductionUpdate {self.operator.value} @ {self.store.site_id()}>"


def _same_address(a: Value, b: Value) -> bool:
    """Conservative syntactic same-address check: identical SSA value."""
    return a is b


def find_reduction_updates(fn: Function) -> List[ReductionUpdate]:
    """Find all reduction-shaped update sequences in a function."""
    out: List[ReductionUpdate] = []
    for bb in fn.blocks:
        for inst in bb.instructions:
            if not isinstance(inst, Store):
                continue
            update = _match_store(inst)
            if update is not None:
                out.append(update)
    return out


def _match_store(store: Store) -> Optional[ReductionUpdate]:
    value = store.value
    if not isinstance(value, BinOp):
        return None
    if not (value.kind.is_associative and value.kind.is_commutative):
        return None
    for operand in (value.lhs, value.rhs):
        if isinstance(operand, Load) and _same_address(operand.pointer, store.pointer):
            return ReductionUpdate(load=operand, operator=value.kind, store=store)
    return None


def reduction_sites(fn: Function) -> Dict[Instruction, ReductionUpdate]:
    """Map both the load and the store of each update to its record."""
    out: Dict[Instruction, ReductionUpdate] = {}
    for upd in find_reduction_updates(fn):
        out[upd.load] = upd
        out[upd.store] = upd
    return out


#: The two-argument function of each reduction operator.  Every merge of
#: per-worker reduction heaps goes through these, never through an
#: inline ``a * b``: CPython's specialised float opcodes may evaluate a
#: commutative product or sum with its operands swapped, and with two NaN
#: operands that picks the other payload, so two folds that spell the
#: operation differently can leave different bytes in memory.
REDUCTION_FUNCTIONS: Dict[BinOpKind, Callable] = {
    BinOpKind.ADD: operator.add, BinOpKind.FADD: operator.add,
    BinOpKind.MUL: operator.mul, BinOpKind.FMUL: operator.mul,
    BinOpKind.AND: operator.and_, BinOpKind.OR: operator.or_,
    BinOpKind.XOR: operator.xor,
}


def apply_operator(kind: BinOpKind, a, b):
    """Evaluate a reduction operator on two Python numbers (used by the
    runtime when merging per-worker reduction heaps)."""
    fn = REDUCTION_FUNCTIONS.get(kind)
    if fn is None:
        raise ValueError(f"{kind} is not a reduction operator")
    return fn(a, b)
