"""Def-use chains for mini-IR functions."""

from __future__ import annotations

from typing import Dict, List

from ..ir.instructions import Instruction
from ..ir.module import Function
from ..ir.values import Value


class DefUse:
    """Map from each value to the instructions using it."""

    def __init__(self, fn: Function):
        self.function = fn
        self.users: Dict[Value, List[Instruction]] = {}
        for inst in fn.instructions():
            for op in inst.operands:
                self.users.setdefault(op, []).append(inst)

    def uses_of(self, value: Value) -> List[Instruction]:
        return self.users.get(value, [])
