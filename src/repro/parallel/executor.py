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
:mod:`repro.parallel.pool_backend`; the shared driver lives in
:mod:`repro.parallel.backend`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..interp.errors import GuestFault, GuestTimeout, Misspeculation
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
        interp = self.interp
        runtime = self.runtime
        stats = runtime.stats
        workers = self.workers
        main_space = interp.space
        earliest: Optional[Tuple[int, Misspeculation]] = None

        for worker in runtime.workers:
            interp.space = worker.space
            if worker.frame is None:
                worker.frame = frame.copy()
            interp.swap_stack([worker.frame])
            for i in range(epoch_start, epoch_end):
                if i % workers != worker.wid:
                    continue
                if earliest is not None and i > earliest[0]:
                    break
                c0 = interp.cycles
                v0 = stats.validation_cycles()
                t0 = worker.clock
                try:
                    self._execute_iteration(worker, i, init)
                    if self._inject_misspec(i):
                        raise self._injected_misspec(worker, i)
                except Misspeculation as exc:
                    runtime.capture_conflict_context(worker, exc)
                    runtime.record_misspeculation(
                        exc, injected=(exc.kind == "injected"))
                    worker.clock += interp.cycles - c0
                    if earliest is None or i < earliest[0]:
                        earliest = (i, exc)
                    if self.timeline is not None:
                        self.timeline.add("misspec", worker.wid, t0,
                                          worker.clock, exc.kind)
                    break
                except (GuestFault, GuestTimeout) as fault:
                    exc = Misspeculation("fault", str(fault), i)
                    runtime.record_misspeculation(exc)
                    worker.clock += interp.cycles - c0
                    if earliest is None or i < earliest[0]:
                        earliest = (i, exc)
                    break
                delta = interp.cycles - c0
                vdelta = stats.validation_cycles() - v0
                worker.clock += delta
                inv.useful_cycles += max(0, delta - vdelta)
                if self.timeline is not None:
                    self.timeline.add("iteration", worker.wid, t0,
                                      worker.clock, f"i={i}")
            interp.swap_stack([])
        interp.space = main_space
        # fragments=None: the checkpoint extracts them from the live
        # in-process worker states.
        return earliest, None
