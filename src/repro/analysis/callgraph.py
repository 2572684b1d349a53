"""Call graph over a module (direct calls only, matching the mini-IR)."""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.instructions import Call
from ..ir.module import Function, Module


class CallGraph:
    """Static call graph over a module's direct calls (callees and callers per function)."""
    def __init__(self, mod: Module):
        self.module = mod
        self.callees: Dict[Function, Set[Function]] = {}
        self.callers: Dict[Function, Set[Function]] = {}
        for fn in mod.functions.values():
            self.callees.setdefault(fn, set())
            self.callers.setdefault(fn, set())
        for fn in mod.defined_functions():
            for inst in fn.instructions():
                if isinstance(inst, Call):
                    self.callees[fn].add(inst.callee)
                    self.callers.setdefault(inst.callee, set()).add(fn)

    def transitive_callees(self, fn: Function) -> Set[Function]:
        """All functions reachable from ``fn`` through calls (excl. fn
        itself unless recursive)."""
        seen: Set[Function] = set()
        stack: List[Function] = list(self.callees.get(fn, ()))
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            stack.extend(self.callees.get(g, ()))
        return seen

    def is_recursive(self, fn: Function) -> bool:
        return fn in self.transitive_callees(fn)
