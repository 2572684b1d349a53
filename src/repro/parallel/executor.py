"""Simulated-multicore DOALL executor (the deterministic reference
backend).

Drives a transformed module the way the paper's runtime drives worker
processes (Figure 5): the main "process" runs sequentially until it
reaches the parallel region; iterations are distributed round-robin over
simulated workers, each with its own copy-on-write view of memory and its
own shadow heap; checkpoints validate and commit every ``k`` iterations;
misspeculation squashes back to the last checkpoint and re-executes
sequentially before parallel execution resumes.

Workers are simulated one at a time (deterministically), which is
behaviourally equivalent to concurrent execution because workers share no
speculative state — exactly the property Privateer validates.  Timing is
modelled with per-worker cycle clocks; see ``costmodel.py``.  For real
concurrent execution of the same semantics, see
:mod:`repro.parallel.pool_backend`; the shared driver, and the slice
loop both backends run in-process, live in :mod:`repro.parallel.backend`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..interp.errors import Misspeculation
from ..interp.interpreter import Frame
from ..runtime.fragments import EpochFragment
from .backend import BaseDOALLExecutor, _RecoveryHook, trip_count  # noqa: F401
from .stats import InvocationResult


class DOALLExecutor(BaseDOALLExecutor):
    """The simulated backend: one in-process interpreter, workers run
    one at a time with per-worker cycle clocks."""

    backend_name = "simulated"

    def _execute_epoch(
        self, frame: Frame, inv: InvocationResult, epoch_start: int,
        epoch_end: int, init: int,
    ) -> Tuple[Optional[Tuple[int, Misspeculation]],
               Optional[List[EpochFragment]]]:
        # fragments=None: the checkpoint extracts them from the live
        # in-process worker states.
        return self._run_slices(frame, inv, self.runtime.workers,
                                epoch_start, epoch_end, init), None
