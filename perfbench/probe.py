"""The speed probe: how much slower than quiet is this core right now?

The box gives the benchmark two vCPUs of a shared host.  Each flips,
independently of the other and within a second or a few, between a
quiet state and states 1.4-3x slower (wall and CPU time inflate alike,
no steal is reported), and can stay slow for minutes: longer than a
run, so no statistic of a run's raw timings repeats (README.md, "Box
noise").  What a run can do is measure the state beside every sample:
a fixed piece of work, timed on the cores the sample uses just before
and just after it, and the sample divided by how much slower than
``REF_S`` that work ran.

The work is half a toy register machine -- one closure per opcode,
list registers, a dict heap -- and half a chain of dependent loads
through 4 MiB of pseudo-random jumps, because a slow state does not slow
every instruction mix alike: an arithmetic loop reads 1.45x where the
machine reads 1.9x and ``prepare()`` 1.7x.  Of the mixes tried beside
ten minutes of samples of every workload, this one followed them most
closely (README.md, "Box noise").  It is frozen here, in the benchmark's
own files, so that no change under ``src/`` can move it.
"""

from __future__ import annotations

import os
import random
import time
from array import array
from typing import Sequence

#: Seconds ``_work()`` takes on a quiet core of the box the bounds were
#: fixed on.  Only a scale: with it a timing reads in seconds of that
#: quiet core, and every comparison of two commits divides it out.
REF_S = 0.0080


def _program():
    def add(r, h, a, b, c):
        r[a] = r[b] + r[c]

    def load(r, h, a, b, c):
        r[a] = h.get(r[b] & 1023, 0)

    def store(r, h, a, b, c):
        h[r[b] & 1023] = r[a]

    def mul(r, h, a, b, c):
        r[a] = (r[b] * 31 + c) & 0xFFFF

    return ((mul, 1, 1, 7), (load, 2, 1, 0), (add, 2, 2, 1), (store, 2, 1, 0),
            (add, 3, 3, 2), (mul, 4, 3, 3), (store, 4, 3, 0), (load, 5, 4, 0))


def _jumps() -> array:
    """1 Mi pseudo-random 32-bit values, drawn 256 KiB at a time so the
    process's peak resident set grows by the table and no more."""
    rnd = random.Random(5)
    table = array("I")
    for _ in range(16):
        table.frombytes(rnd.randbytes(1 << 18))
    return table


_PROGRAM = _program()
_JUMPS = _jumps()
_ROUNDS = 3000
_LOADS = 27000


def _work() -> int:
    r, heap = [0, 1, 0, 0, 0, 0], {}
    program = _PROGRAM
    for _ in range(_ROUNDS):
        for op, a, b, c in program:
            op(r, heap, a, b, c)
    j, jumps = 0, _JUMPS
    for k in range(_LOADS):
        # + k: a pure j -> jumps[j] would fall into a short cycle.
        j = (jumps[j] + k) & 0xFFFFF
    return r[3] + j


def slowdown(cpus: Sequence[int]) -> float:
    """Mean over ``cpus`` of how many times slower than ``REF_S`` the
    probe runs there now (1.0 = quiet).  Pins the calling thread to each
    core in turn and puts back the affinity it found."""
    home = os.sched_getaffinity(0)
    total = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            _work()
            total += time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, home)
    return total / (len(cpus) * REF_S)


if __name__ == "__main__":
    # Calibration aid: a minute of the probe on every allowed core.
    cores = sorted(os.sched_getaffinity(0))
    for _ in range(60):
        print(" ".join(f"cpu{c} {slowdown([c]) * REF_S * 1e3:6.2f} ms"
                       for c in cores), flush=True)
        time.sleep(1.0)
