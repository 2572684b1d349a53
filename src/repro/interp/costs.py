"""Per-operation cycle costs for the simulated machine.

These replace wall-clock measurement on the paper's 24-core Xeon X7460.
Absolute values are rough x86-ish latencies; only *ratios* matter for the
reproduced figures (speedups are ratios of simulated cycles).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from ..ir.instructions import BinOp, BinOpKind, Instruction, Opcode

#: Base cost per opcode, in simulated cycles.
OPCODE_COSTS: Dict[Opcode, int] = {
    Opcode.PHI: 0,
    Opcode.ALLOCA: 2,
    Opcode.LOAD: 3,
    Opcode.STORE: 3,
    Opcode.PTRADD: 1,
    Opcode.BINOP: 1,
    Opcode.ICMP: 1,
    Opcode.FCMP: 2,
    Opcode.CAST: 1,
    Opcode.SELECT: 1,
    Opcode.CALL: 4,
    Opcode.BR: 1,
    Opcode.CONDBR: 1,
    Opcode.RET: 2,
    Opcode.UNREACHABLE: 0,
}

_EXPENSIVE_BINOPS = {
    BinOpKind.DIV: 24,
    BinOpKind.REM: 24,
    BinOpKind.MUL: 3,
    BinOpKind.FDIV: 20,
    BinOpKind.FMUL: 4,
    BinOpKind.FADD: 3,
    BinOpKind.FSUB: 3,
}

#: Cost of library intrinsics; callables receive the evaluated args.
INTRINSIC_COSTS: Dict[str, Union[int, Callable[[List], int]]] = {
    "malloc": 40,
    "calloc": 50,
    "free": 25,
    "memset": lambda args: 10 + int(args[2]) // 8 if len(args) > 2 else 10,
    "memcpy": lambda args: 10 + int(args[2]) // 8 if len(args) > 2 else 10,
    "printf": 250,
    "puts": 150,
    "exit": 0,
    "abs": 1,
    "sqrt": 20,
    "exp": 40,
    "log": 40,
    "sin": 40,
    "cos": 40,
    "pow": 60,
    "fabs": 2,
    "floor": 4,
    "rand_seed": 2,
    "rand_int": 6,
    # Privateer runtime entry points (the runtime adds per-byte metadata
    # costs on top of these fixed call overheads; see repro.runtime).
    "h_alloc": 42,
    "h_dealloc": 26,
    "check_heap": 2,
    "private_read": 8,
    "private_write": 8,
    "redux_update": 4,
    "predict_value": 2,
    "misspec": 1,
    "loop_iter_begin": 1,
    "loop_iter_end": 2,
}


#: What the runtime's validation intrinsics add on top of their call
#: costs: per byte of shadow metadata a private access updates, per byte
#: of a reduction update, and per separation check (charged to
#: ``RuntimeStats`` only).  Generated code that runs an intrinsic's
#: common case inline charges the same.
PRIVATE_BYTE_COST = 1
REDUX_BYTE_COST = 1
SEPARATION_CHECK_COST = 2


def instruction_cost(inst: Instruction) -> int:
    """Cycle cost of one executed IR instruction (calls add intrinsic
    costs separately)."""
    if isinstance(inst, BinOp):
        return _EXPENSIVE_BINOPS.get(inst.kind, 1)
    return OPCODE_COSTS.get(inst.opcode, 1)


def intrinsic_cost(name: str, args: List) -> int:
    cost = INTRINSIC_COSTS.get(name, 10)
    if callable(cost):
        return cost(args)
    return cost
