"""Register file, per-function code cache and dispatch loop of the
interpreter's fast path.

The reference :meth:`Interpreter.step` re-dispatches on the opcode and
re-resolves every operand on every executed instruction.  The fast path
runs generated Python instead: :mod:`repro.interp.codegen` turns every
basic-block *segment* into one function ``seg(interp, frame)``, and
:func:`run_fast` makes one call per segment.  This module holds what
that code runs on:

* the flat register numbering of a function and :class:`RegisterFile`,
  the dict-protocol view of a frame's slots that everything outside the
  generated code uses;
* :func:`function_code`, which validates the code bound to a
  :class:`Function` against its current *content* — so IR
  transformations such as :class:`PrivateerTransform`, which mutate
  instructions in place between the profiling runs and the parallel
  execution, transparently trigger regeneration — once per
  :class:`Interpreter`;
* :func:`run_fast`, the dispatch loop.

The reference ``step()`` path remains the executable specification;
``tests/test_fastpath_differential.py`` holds the two paths to identical
guest output, cycle totals, and profiler records.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .codegen import (
    _UNDEF,
    STACK,
    bind_segments,
    build_regmap,
    content_key,
    templates_for,
)

#: Sentinel default for :meth:`RegisterFile.get` misses.
_MISS = object()


# ---------------------------------------------------------------------------
# Register file
# ---------------------------------------------------------------------------


class RegisterFile:
    """Dict-protocol view over a frame's flat register slots.

    Generated code indexes ``frame.slots`` directly; everything
    else (the reference ``step()`` path, the executor poking loop phis,
    tests) goes through this mapping interface.  Values that are not in
    the function's numbering (possible only when a cached register map
    predates an IR mutation) spill into an overflow dict, which restores
    the exact semantics of the old per-frame ``Dict[Value, object]``.
    """

    __slots__ = ("slots", "_map", "_extra")

    def __init__(self, regmap: Dict[Value, int], slots: List[object],
                 extra: Optional[Dict[Value, object]] = None):
        self.slots = slots
        self._map = regmap
        self._extra = extra

    def __contains__(self, v: Value) -> bool:
        i = self._map.get(v)
        if i is not None:
            return self.slots[i] is not _UNDEF
        return self._extra is not None and v in self._extra

    def __getitem__(self, v: Value):
        i = self._map.get(v)
        if i is not None:
            val = self.slots[i]
            if val is not _UNDEF:
                return val
            raise KeyError(v)
        if self._extra is not None and v in self._extra:
            return self._extra[v]
        raise KeyError(v)

    def __setitem__(self, v: Value, val: object) -> None:
        i = self._map.get(v)
        if i is not None:
            self.slots[i] = val
        else:
            if self._extra is None:
                self._extra = {}
            self._extra[v] = val

    def get(self, v: Value, default=None):
        i = self._map.get(v)
        if i is not None:
            val = self.slots[i]
            return default if val is _UNDEF else val
        if self._extra is not None:
            return self._extra.get(v, default)
        return default

    def as_dict(self) -> Dict[Value, object]:
        out = {v: self.slots[i] for v, i in self._map.items()
               if self.slots[i] is not _UNDEF}
        if self._extra:
            out.update(self._extra)
        return out

    def keys(self):
        return self.as_dict().keys()

    def items(self):
        return self.as_dict().items()

    def values(self):
        return self.as_dict().values()

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.as_dict())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RegisterFile):
            return self.as_dict() == other.as_dict()
        if isinstance(other, dict):
            return self.as_dict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"RegisterFile({self.as_dict()!r})"

    def copy_for(self, slots: List[object]) -> "RegisterFile":
        return RegisterFile(self._map, slots,
                            dict(self._extra) if self._extra else None)


# ---------------------------------------------------------------------------
# Per-function code cache
# ---------------------------------------------------------------------------


class FunctionCode:
    """The segments bound to one ``Function`` instance plus its register
    numbering."""

    __slots__ = ("regmap", "segs")

    def __init__(self, fn: Function, regmap: Dict[Value, int],
                 digest: bytes):
        self.regmap = regmap
        #: block -> entry instruction index -> segment function.  A
        #: block is entered at its first non-phi instruction and
        #: re-entered after each call to a defined function.
        self.segs: Dict[BasicBlock, Dict[int, Callable]] = dict(zip(
            fn.blocks, bind_segments(fn, templates_for(fn, regmap, digest))))


def regmap_for(fn: Function) -> Dict[Value, int]:
    """The function's cached register numbering (no validation — stale
    maps are safe because :class:`RegisterFile` spills unknown values to
    its overflow dict; the fast path always goes through
    :func:`function_code`, which does validate)."""
    cached = getattr(fn, "_repro_regmap", None)
    if cached is None:
        cached = build_regmap(fn)
        fn._repro_regmap = cached  # type: ignore[attr-defined]
    return cached


def function_code(fn: Function) -> FunctionCode:
    """Validate-or-bind: reuse the :class:`FunctionCode` cached on the
    function while its content and the identity of its IR objects are
    unchanged, else renumber registers (so transform-inserted values get
    slots) and bind the memoised — or freshly generated — segments."""
    regmap = build_regmap(fn)
    key = content_key(fn, regmap)
    cached = getattr(fn, "_repro_code", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    fn._repro_regmap = regmap  # type: ignore[attr-defined]
    code = FunctionCode(fn, regmap, key[0])
    fn._repro_code = (key, code)  # type: ignore[attr-defined]
    return code


# ---------------------------------------------------------------------------
# The fast dispatch loop
# ---------------------------------------------------------------------------


def run_fast(interp):
    """Run the interpreter's frame stack on the generated code until the
    stack drains (returns the program's return value), a
    :class:`BlockBreakpoint` fires, or a guest exception propagates.

    Semantics contract with :meth:`Interpreter.step`: identical cycle and
    step totals at every segment boundary and raised exception; identical
    hook ordering; identical ``GuestTimeout`` trigger point.  A frame
    whose index is not a segment entry (parked on a phi, or mid-block by
    ``step()``), and a segment that could exhaust the step budget, are
    delegated to the reference path one step at a time.
    """
    frames = interp.frames
    if not frames:
        return None
    interp._fast_result = None
    codes = interp._codes
    while True:
        frame = frames[-1]
        code = codes.get(frame.function) or interp.code_for(frame.function)
        seg = code.segs[frame.block].get(frame.index)
        while True:
            if seg is None:
                result = interp.step()
                if not frames:
                    return result
                break
            seg = seg(interp, frame)
            if seg is STACK:
                if not frames:
                    return interp._fast_result
                break
