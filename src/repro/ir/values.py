"""Value hierarchy for the Privateer mini-IR.

Everything that can appear as an operand is a :class:`Value`: constants,
function arguments, global variables, functions, and instruction results.
Values carry their type; instructions are defined in
:mod:`repro.ir.instructions`.
"""

from __future__ import annotations

import itertools
import struct as _struct
import threading
from typing import Optional

from .types import (
    BOOL,
    F64,
    I64,
    FloatType,
    IntType,
    IRTypeError,
    PointerType,
    Type,
)

_value_ids = itertools.count(1)


class _UidSource(threading.local):
    """Where new values on this thread draw their uid: the process
    counter, unless a :meth:`repro.ir.module.Module.fresh_uids` scope is
    open on the thread (handler threads compile while the scheduler
    thread transforms, so the scope is per thread)."""

    counter = _value_ids


UIDS = _UidSource()


class Value:
    """Base class for every IR value."""

    def __init__(self, type_: Type, name: str = ""):
        self.type = type_
        self.name = name
        self.uid = next(UIDS.counter)
        #: Interpreter fast path: non-None for compile-time constants.
        self.cval = None

    def short(self) -> str:
        """Compact operand spelling used by the printer."""
        return f"%{self.name or self.uid}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.short()}: {self.type}>"


class Constant(Value):
    """Base class for compile-time constants."""


class ConstInt(Constant):
    """Integer constant, wrapped to its type's width."""
    def __init__(self, type_: IntType, value: int):
        if not isinstance(type_, IntType):
            raise IRTypeError(f"ConstInt requires an integer type, got {type_}")
        super().__init__(type_)
        self.value = type_.wrap(int(value))
        self.cval = self.value

    def short(self) -> str:
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstInt)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class ConstFloat(Constant):
    """Floating-point constant, stored at its type's precision."""
    def __init__(self, type_: FloatType, value: float):
        if not isinstance(type_, FloatType):
            raise IRTypeError(f"ConstFloat requires a float type, got {type_}")
        super().__init__(type_)
        # Round-trip through the storage width so f32 constants behave
        # like their in-memory representation.
        if type_.bits == 32:
            value = _struct.unpack("<f", _struct.pack("<f", float(value)))[0]
        self.value = float(value)
        self.cval = self.value

    def short(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConstFloat)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))


class ConstNull(Constant):
    """The null pointer."""

    def __init__(self, type_: Optional[PointerType] = None):
        super().__init__(type_ or PointerType())
        self.cval = 0

    def short(self) -> str:
        return "null"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstNull)

    def __hash__(self) -> int:
        return hash("null")


class Undef(Constant):
    """An undefined value of a given type (used for padding/initializers)."""

    def __init__(self, type_: Type):
        super().__init__(type_)
        self.cval = 0

    def short(self) -> str:
        return "undef"


class Argument(Value):
    """A formal parameter of a function."""

    def __init__(self, type_: Type, name: str, index: int):
        super().__init__(type_, name)
        self.index = index


class GlobalValue(Value):
    """Base for module-level values (globals and functions).

    A ``GlobalValue`` used as an operand always has pointer type: globals
    denote the *address* of their storage.
    """

    def short(self) -> str:
        return f"@{self.name}"


class GlobalVariable(GlobalValue):
    """A module-level variable.

    ``value_type`` is the type of the storage; the value itself has pointer
    type.  ``initializer`` is either ``None`` (zero-initialized), a
    :class:`bytes` blob, or a flat list of constants laid out in order.
    """

    def __init__(
        self,
        name: str,
        value_type: Type,
        initializer: Optional[object] = None,
        constant: bool = False,
    ):
        super().__init__(PointerType(value_type), name)
        self.value_type = value_type
        self.initializer = initializer
        self.constant = constant

    @property
    def byte_size(self) -> int:
        return self.value_type.size


class GlobalString(GlobalVariable):
    """A NUL-terminated constant string in global storage."""

    def __init__(self, name: str, text: str):
        data = text.encode("utf-8") + b"\x00"
        from .types import ArrayType, I8  # local import to avoid cycle noise

        super().__init__(name, ArrayType(I8, len(data)), initializer=data, constant=True)
        self.text = text


def const_int(value: int, type_: IntType = I64) -> ConstInt:
    return ConstInt(type_, value)


def const_float(value: float, type_: FloatType = F64) -> ConstFloat:
    return ConstFloat(type_, value)


def const_bool(value: bool) -> ConstInt:
    return ConstInt(BOOL, 1 if value else 0)


TRUE = const_bool(True)
FALSE = const_bool(False)
NULL = ConstNull()
