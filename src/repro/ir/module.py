"""Basic blocks, functions, and modules for the Privateer mini-IR."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from .instructions import ALL_INTRINSICS, Br, CondBr, Instruction
from .types import (
    F64,
    FunctionType,
    I32,
    I64,
    IRTypeError,
    PointerType,
    Type,
    TypeContext,
    VOID,
)
from .values import UIDS, Argument, GlobalString, GlobalValue, GlobalVariable

_block_ids = itertools.count(1)


class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        self.name = name or f"bb{next(_block_ids)}"
        self.parent = parent
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated:
            raise IRTypeError(f"block {self.name} already has a terminator")
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        inst.parent = self
        self.instructions.insert(index, inst)
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        if isinstance(term, Br):
            return [term.target]
        if isinstance(term, CondBr):
            return [term.if_true, term.if_false]
        return []

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return f"<BasicBlock {self.name} ({len(self.instructions)} insts)>"


class Function(GlobalValue):
    """A function definition or declaration.

    Intrinsics (``malloc``, ``check_heap`` …) are modelled as declarations
    with :attr:`is_intrinsic` set; the interpreter and runtime give them
    their semantics.
    """

    def __init__(
        self,
        name: str,
        type_: FunctionType,
        param_names: Optional[Sequence[str]] = None,
        is_intrinsic: bool = False,
    ):
        super().__init__(type_, name)
        self.function_type = type_
        self.blocks: List[BasicBlock] = []
        self.is_intrinsic = is_intrinsic
        names = list(param_names or [])
        while len(names) < len(type_.param_types):
            names.append(f"arg{len(names)}")
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(type_.param_types, names))
        ]

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRTypeError(f"function {self.name} has no body")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        # Block names are used as stable loop identifiers (LoopRef), so
        # keep them unique within the function.
        if name:
            existing = {bb.name for bb in self.blocks}
            if name in existing:
                suffix = 1
                while f"{name}.{suffix}" in existing:
                    suffix += 1
                name = f"{name}.{suffix}"
        bb = BasicBlock(name, parent=self)
        self.blocks.append(bb)
        return bb

    def block_named(self, name: str) -> BasicBlock:
        for bb in self.blocks:
            if bb.name == name:
                return bb
        raise KeyError(f"{self.name}: no block named {name!r}")

    def instructions(self) -> Iterator[Instruction]:
        for bb in self.blocks:
            yield from bb.instructions

    def __repr__(self) -> str:
        kind = "intrinsic" if self.is_intrinsic else ("decl" if self.is_declaration else "def")
        return f"<Function @{self.name} [{kind}]>"


class Module:
    """A translation unit: named globals, functions, and struct types."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.types = TypeContext()
        self.globals: Dict[str, GlobalVariable] = {}
        self.functions: Dict[str, Function] = {}
        self._strings = 0
        #: Smallest uid no value of this module holds, once
        #: ``compile_minic`` has renumbered it to 1..N (None for a module
        #: built by hand, whose values keep the process counter's uids).
        #: Travels with a pickled module.
        self.next_uid: Optional[int] = None

    @contextmanager
    def fresh_uids(self) -> Iterator[None]:
        """Scope in which values created on this thread continue this
        module's numbering (``next_uid``, ``next_uid + 1``, … in creation
        order) instead of drawing from the process counter.

        What a transform adds to a compiled module is then numbered the
        same in every process and after any number of unrelated compiles,
        so the transformed functions of one (source, plan) are identical
        down to the site ids of their new calls, and can never collide
        with 1..N in a module that arrived by unpickling.  A no-op for
        hand-built modules.
        """
        if self.next_uid is None:
            yield
            return
        counter = itertools.count(self.next_uid)
        outer, UIDS.counter = UIDS.counter, counter
        try:
            yield
        finally:
            UIDS.counter = outer
            self.next_uid = next(counter)

    # -- globals ------------------------------------------------------------

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self.globals:
            raise IRTypeError(f"duplicate global {gv.name!r}")
        self.globals[gv.name] = gv
        return gv

    def global_named(self, name: str) -> GlobalVariable:
        return self.globals[name]

    def intern_string(self, text: str) -> GlobalString:
        """Create (or reuse) a constant string global."""
        for gv in self.globals.values():
            if isinstance(gv, GlobalString) and gv.text == text:
                return gv
        gs = GlobalString(f".str{self._strings}", text)
        self._strings += 1
        return self.add_global(gs)  # type: ignore[return-value]

    # -- functions ----------------------------------------------------------

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRTypeError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def function_named(self, name: str) -> Function:
        return self.functions[name]

    def get_or_declare_intrinsic(self, name: str) -> Function:
        """Return the declaration for a known intrinsic, creating it with a
        permissive variadic signature on first use."""
        if name in self.functions:
            return self.functions[name]
        if name not in ALL_INTRINSICS:
            raise IRTypeError(f"unknown intrinsic {name!r}")
        ret: Type = VOID
        if name in ("malloc", "calloc", "h_alloc", "memset", "memcpy"):
            ret = PointerType()
        elif name in ("abs", "rand_int"):
            ret = I64
        elif name in ("sqrt", "exp", "log", "pow", "fabs", "floor", "sin", "cos"):
            ret = F64
        elif name == "printf":
            ret = I32
        fn = Function(name, FunctionType(ret, (), variadic=True), is_intrinsic=True)
        return self.add_function(fn)

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
