"""Scalar-evolution-lite: affine expressions over loop induction variables.

Pointer operands are decomposed into ``base + Σ coeff·phi + const`` where
each ``phi`` is an SSA phi node (typically a loop induction variable).
The dependence tester (:mod:`repro.analysis.deptest`) uses these to prove
that ``a[i]`` touches a different address on every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..ir.instructions import BinOp, BinOpKind, Cast, CastKind, Phi, PtrAdd
from ..ir.values import ConstInt, Value


@dataclass
class Affine:
    """``const + Σ coeffs[phi] * phi``; linear form over phi nodes."""

    const: int = 0
    coeffs: Dict[Phi, int] = field(default_factory=dict)

    def add(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for phi, c in other.coeffs.items():
            coeffs[phi] = coeffs.get(phi, 0) + c
        return Affine(self.const + other.const, {p: c for p, c in coeffs.items() if c})

    def negate(self) -> "Affine":
        return Affine(-self.const, {p: -c for p, c in self.coeffs.items()})

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine(0, {})
        return Affine(self.const * factor, {p: c * factor for p, c in self.coeffs.items()})

    def coeff_of(self, phi: Phi) -> int:
        return self.coeffs.get(phi, 0)

    def is_constant(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        terms = [str(self.const)] + [
            f"{c}*{p.short()}" for p, c in self.coeffs.items()
        ]
        return " + ".join(terms)


_MAX_DEPTH = 32


def as_affine(value: Value, depth: int = 0) -> Optional[Affine]:
    """Express ``value`` as an affine form over phis, or None if non-affine."""
    if depth > _MAX_DEPTH:
        return None
    if isinstance(value, ConstInt):
        return Affine(value.value, {})
    if isinstance(value, Phi):
        return Affine(0, {value: 1})
    if isinstance(value, Cast) and value.kind in (
        CastKind.SEXT,
        CastKind.ZEXT,
        CastKind.TRUNC,
    ):
        # Width changes are ignored; guest indices stay well within range.
        return as_affine(value.value, depth + 1)
    if isinstance(value, BinOp):
        lhs = as_affine(value.lhs, depth + 1)
        rhs = as_affine(value.rhs, depth + 1)
        if value.kind is BinOpKind.ADD and lhs and rhs:
            return lhs.add(rhs)
        if value.kind is BinOpKind.SUB and lhs and rhs:
            return lhs.add(rhs.negate())
        if value.kind is BinOpKind.MUL and lhs and rhs:
            if lhs.is_constant():
                return rhs.scale(lhs.const)
            if rhs.is_constant():
                return lhs.scale(rhs.const)
            return None
        if value.kind is BinOpKind.SHL and rhs and rhs is not None and rhs.is_constant() and lhs:
            return lhs.scale(1 << rhs.const)
        return None
    return None


def decompose_pointer(ptr: Value, depth: int = 0) -> Tuple[Value, Optional[Affine]]:
    """Strip ``ptradd``/bitcast chains: return (ultimate base, affine byte
    offset).  The offset is None when any step is non-affine."""
    offset: Optional[Affine] = Affine(0, {})
    base = ptr
    steps = 0
    while steps < _MAX_DEPTH:
        steps += 1
        if isinstance(base, PtrAdd):
            step = as_affine(base.offset)
            if step is None or offset is None:
                offset = None
            else:
                offset = offset.add(step)
            base = base.base
            continue
        if isinstance(base, Cast) and base.kind is CastKind.BITCAST:
            base = base.value
            continue
        break
    return base, offset
