"""Shared DOALL execution backend interface.

The speculative DOALL machinery — invocation detection, trip counting,
epoch scheduling, checkpoint/commit, misspeculation recovery, cycle
accounting — is backend-independent and lives in
:class:`BaseDOALLExecutor`.  What varies between backends is only *how
one checkpoint epoch executes*:

* the **simulated** backend (:mod:`repro.parallel.executor`) runs the
  workers one at a time on the in-process interpreter — deterministic,
  fully observable, the reference semantics;
* the **pool** backend (:mod:`repro.parallel.pool_backend`) forks a
  pool of worker processes once per run, keeps them resident across
  epochs, recoveries and invocations (commit deltas between clean
  epochs, a sync of what main changed otherwise) and executes the
  worker slices concurrently, shipping per-iteration records and the
  packed :class:`~repro.runtime.fragments.EpochFragment` payload
  (interval-run format, with an explicit version field checked at
  commit) over each child's report pipe — see docs/BACKENDS.md for the
  full guide.

Both feed the same :meth:`RuntimeSystem.checkpoint` commit path with
fragments, so committed memory state, ``RuntimeStats`` and
misspeculation behaviour are identical by construction (the parity
suite in ``tests/test_backend_parity.py`` enforces this).

Backend selection: :func:`resolve_backend_name` honours an explicit
name first, then the ``REPRO_BACKEND`` environment variable, defaulting
to ``simulated``; :func:`make_executor` instantiates the corresponding
executor class.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..forensics.recorder import FLIGHT_DIR_ENV, heap_map_of, write_dump
from ..interp.errors import GuestExit, GuestFault, GuestTimeout, Misspeculation
from ..interp.interpreter import BlockBreakpoint, Frame, Hook, Interpreter
from ..ir.instructions import CmpPred, Phi
from ..ir.types import IntType
from ..ir.module import Module
from ..obs.log import get_logger
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from ..runtime.fragments import EpochFragment
from ..runtime.system import RuntimeSystem, WorkerState
from ..transform.plan import MAX_CHECKPOINT_PERIOD, ParallelPlan
from .costmodel import DEFAULT_COSTS, CostModelConfig
from .stats import ExecutionResult, InvocationResult
from .timeline import Timeline

log = get_logger("executor")

#: Names accepted by ``--backend`` and ``REPRO_BACKEND``.
BACKEND_NAMES = ("simulated", "pool")

#: Environment variable that selects the default backend.
BACKEND_ENV = "REPRO_BACKEND"

_NEGATE = {
    CmpPred.LT: CmpPred.GE, CmpPred.GE: CmpPred.LT,
    CmpPred.LE: CmpPred.GT, CmpPred.GT: CmpPred.LE,
    CmpPred.EQ: CmpPred.NE, CmpPred.NE: CmpPred.EQ,
}


class BackendError(ValueError):
    """Unknown backend name, or a backend unusable on this platform."""


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Resolve the backend to use: explicit choice > ``REPRO_BACKEND``
    environment variable > ``simulated``."""
    resolved = name or os.environ.get(BACKEND_ENV) or "simulated"
    if resolved not in BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {resolved!r} (available: "
            f"{', '.join(BACKEND_NAMES)})")
    return resolved


def make_executor(backend: Optional[str], module: Module,
                  plan: ParallelPlan, **kwargs) -> "BaseDOALLExecutor":
    """Instantiate the executor for ``backend`` (see
    :func:`resolve_backend_name` for the selection rules)."""
    resolved = resolve_backend_name(backend)
    if resolved == "pool":
        from .pool_backend import PoolDOALLExecutor

        return PoolDOALLExecutor(module, plan, **kwargs)
    from .executor import DOALLExecutor

    return DOALLExecutor(module, plan, **kwargs)


def trip_count(init: int, bound: int, step: int, pred: CmpPred,
               exit_on_true: bool) -> Optional[int]:
    """Number of iterations of a canonical counted loop, or None if it
    cannot be computed (non-standard shape)."""
    cont = _NEGATE[pred] if exit_on_true else pred
    if cont is CmpPred.LT and step > 0:
        return max(0, -(-(bound - init) // step))
    if cont is CmpPred.LE and step > 0:
        return max(0, (bound - init) // step + 1) if bound >= init else 0
    if cont is CmpPred.GT and step < 0:
        return max(0, -(-(init - bound) // -step))
    if cont is CmpPred.GE and step < 0:
        return max(0, (init - bound) // -step + 1) if init >= bound else 0
    if cont is CmpPred.NE:
        delta = bound - init
        if step != 0 and delta % step == 0 and delta // step >= 0:
            return delta // step
    return None


class _RecoveryHook(Hook):
    """Marks stores executed during sequential recovery as committed
    definitions (they must fail later live-in reads)."""

    def __init__(self, runtime: RuntimeSystem):
        self.runtime = runtime

    def on_store(self, interp, inst, addr: int, size: int) -> None:
        self.runtime.note_recovery_write(addr, size)


@dataclass
class IterationRecord:
    """What one worker observed executing one iteration.

    A forked worker ships these back so the parent can replay the exact
    bookkeeping the simulated backend would have done in-process: cycle
    and step increments, validation-cycle attribution, additive
    RuntimeStats counter deltas, deferred output texts, and — if the
    iteration misspeculated — the misspeculation terms.
    """

    iteration: int
    cycles: int
    steps: int
    validation_cycles: int
    stats_delta: Tuple[int, ...]
    io: Tuple[str, ...] = ()
    #: ``(kind, detail, exc_iteration, injected, from_fault)`` when the
    #: iteration ended in a misspeculation; ``from_fault`` distinguishes
    #: guest faults/timeouts (no timeline event, mirroring the simulated
    #: backend).
    misspec: Optional[Tuple[str, str, int, bool, bool]] = None
    #: Forensic conflict context captured in the worker at the point of
    #: misspeculation (plain dict; see
    #: :meth:`repro.runtime.system.RuntimeSystem.capture_conflict_context`).
    misspec_context: Optional[Dict[str, object]] = None


@dataclass
class WorkerEpochReport:
    """Everything one worker produced for one epoch."""

    wid: int
    records: List[IterationRecord] = field(default_factory=list)
    #: Present iff the slice completed without misspeculating.
    fragment: Optional[EpochFragment] = None
    #: Trace events recorded in the worker (empty unless tracing is on).
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: In-worker :meth:`MetricsRegistry.dump` for the slice (empty unless
    #: tracing is on); the parent merges it under ``worker.<wid>.*``.
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)


class BaseDOALLExecutor:
    """Backend-independent speculative DOALL driver.

    Subclasses implement :meth:`_execute_epoch`; everything else —
    region detection, sequential fallback, checkpoint commit, recovery,
    final resume — is shared.
    """

    #: Name used for ``--backend`` selection and reporting.
    backend_name = "base"

    def __init__(
        self,
        module: Module,
        plan: ParallelPlan,
        workers: int = 24,
        costs: Optional[CostModelConfig] = None,
        checkpoint_period: Optional[int] = None,
        misspec_period: int = 0,
        misspec_burst: int = 0,
        min_parallel_trips: int = 2,
        record_timeline: bool = False,
        max_steps: int = 2_000_000_000,
        controller=None,
        flight_dir: Optional[str] = None,
    ):
        self.module = module
        self.plan = plan
        self.workers = max(1, workers)
        self.costs = costs or DEFAULT_COSTS
        # None = let the runtime pick a period per invocation ("the runtime
        # selects a checkpoint period k before the parallel invocation").
        self.checkpoint_period = (
            min(checkpoint_period, MAX_CHECKPOINT_PERIOD)
            if checkpoint_period else None
        )
        self.misspec_period = misspec_period
        # 0 = inject forever; N > 0 = only inject within the first N
        # iterations (a bounded "burst", letting adaptive runs demonstrate
        # recovery once the storm passes).
        self.misspec_burst = misspec_burst
        self.min_parallel_trips = min_parallel_trips
        #: Adaptive speculation controller
        #: (:class:`repro.adapt.SpeculationController`); None = fixed policy.
        self.controller = controller
        self.timeline = Timeline() if record_timeline else None

        global_regions = {
            name: kind.base for name, kind in plan.global_placements.items()
        }
        self.interp = Interpreter(module, max_steps=max_steps,
                                  global_regions=global_regions)
        if self.interp.compiled:
            # Bind every defined function's generated code now: forked
            # pool workers inherit it instead of regenerating it after
            # every spawn.
            for fn in module.defined_functions():
                self.interp.code_for(fn)
        self.runtime = RuntimeSystem(module, plan, self.interp)
        self.interp.block_breakpoints.add(plan.loop.header)
        self.runtime.controller = controller
        if controller is not None:
            controller.recorder = self.runtime.recorder
        #: Directory for flight-recorder dumps; None (and no
        #: ``REPRO_FLIGHT_DIR`` in the environment) disables dumping.
        self.flight_dir = (flight_dir if flight_dir is not None
                           else os.environ.get(FLIGHT_DIR_ENV))
        #: Path of the dump written by the last :meth:`run`, if any.
        self.flight_dump_path: Optional[str] = None
        self._invocations: List[InvocationResult] = []
        self._cycles_in_invocations = 0
        self._header_phi_count = sum(
            1 for inst in plan.loop.header.instructions if isinstance(inst, Phi)
        )

    # -- whole-program run ----------------------------------------------------

    def flight_snapshot(self, crash: bool = False) -> Dict[str, object]:
        """Materialise the flight recorder plus heap map and classifier
        verdicts as one snapshot dict (the explain engine's input)."""
        runtime = self.runtime
        return runtime.recorder.snapshot(
            heap_map=heap_map_of(runtime.main_space),
            site_heaps=self.plan.assignment.site_heaps,
            crash=crash)

    def _dump_flight(self, crash: bool) -> Optional[Path]:
        """Write the flight dump, if a dump directory is configured."""
        if not self.flight_dir:
            return None
        name = f"{self.module.name}.{self.backend_name}.flight.jsonl"
        path = write_dump(self.flight_snapshot(crash=crash),
                          Path(self.flight_dir) / name)
        self.flight_dump_path = str(path)
        log.info("flight dump written: %s", path)
        return path

    def run(self, entry: str = "main", args: Sequence[object] = ()) -> ExecutionResult:
        """Execute the whole guest program; on misspeculation or crash,
        dump the flight recorder before returning/re-raising."""
        self.runtime.recorder.set_metadata(backend=self.backend_name,
                                           module=self.module.name,
                                           workers=self.workers)
        try:
            result = self._run_guest(entry, args)
        except BaseException:
            self._dump_flight(crash=True)
            raise
        if self.runtime.stats.misspec_count() > 0:
            self._dump_flight(crash=False)
        return result

    def _run_guest(self, entry: str, args: Sequence[object]) -> ExecutionResult:
        interp = self.interp
        fn = self.module.function_named(entry)
        interp.push_function(fn, args)
        result: object = None
        try:
            while interp.frames:
                try:
                    result = interp.run_until_event()
                except BlockBreakpoint as bp:
                    if bp.prev in self.plan.loop.blocks:
                        # Back edge during a sequential (fallback) pass of
                        # the loop: just continue.
                        interp.resume_at(bp.frame, bp.target, bp.prev)
                    else:
                        self._run_invocation(bp)
        except GuestExit as e:
            interp.exit_code = e.code
            result = e.code
            interp.frames.clear()
        adapt = None
        if self.controller is not None:
            self.controller.save()
            adapt = self.controller.summary()
        return ExecutionResult(
            return_value=result,
            output=list(interp.output),
            workers=self.workers,
            sequential_cycles_outside=interp.cycles - self._cycles_in_invocations,
            invocations=self._invocations,
            runtime_stats=self.runtime.stats,
            adapt=adapt,
        )

    # -- one parallel-region invocation ------------------------------------------

    def _iv_value(self, i: int, init: int) -> int:
        iv = self.plan.iv
        value = init + i * iv.step
        ty = iv.phi.type
        if isinstance(ty, IntType):
            value = ty.wrap(value)
        return value

    def _execute_epoch(
        self, frame: Frame, inv: InvocationResult, epoch_start: int,
        epoch_end: int, init: int,
    ) -> Tuple[Optional[Tuple[int, Misspeculation]],
               Optional[List[EpochFragment]]]:
        """Execute iterations ``[epoch_start, epoch_end)`` across the
        workers.

        Returns ``(earliest, fragments)``: ``earliest`` is the
        ``(iteration, exception)`` of the earliest misspeculation (or
        None on a clean epoch); ``fragments`` is the per-worker epoch
        state to commit, or None to let the checkpoint extract it from
        the in-process worker states.
        """
        raise NotImplementedError

    def _run_invocation(self, bp: BlockBreakpoint) -> None:
        interp = self.interp
        plan = self.plan
        runtime = self.runtime
        frame = bp.frame
        cycles_at_entry = interp.cycles

        init = int(interp.value_of(frame, plan.iv.init))
        bound = int(interp.value_of(frame, plan.iv.bound))
        trips = trip_count(init, bound, plan.iv.step, plan.iv.pred,
                           plan.iv.exit_on_true)
        if trips is None or trips < self.min_parallel_trips:
            # Not worth (or not able to) parallelize this invocation: run
            # the loop sequentially in place.
            log.debug("sequential fallback: trip count %s below minimum %d",
                      trips, self.min_parallel_trips)
            if TRACER.enabled:
                TRACER.instant("executor.sequential_fallback", cat="executor",
                               trips=trips,
                               min_parallel_trips=self.min_parallel_trips)
            interp.resume_at(frame, bp.target, bp.prev)
            return

        workers = self.workers
        runtime.begin_invocation(workers)
        span = TRACER.span("executor.invocation", cat="executor",
                           invocation=runtime.invocation_index,
                           backend=self.backend_name,
                           trips=trips, workers=workers)
        if TRACER.enabled:
            # Progress gauges polled live by the status endpoint / `top`.
            METRICS.counter("executor.invocations").inc()
            METRICS.gauge("executor.progress.trips").set(trips)
            METRICS.gauge("executor.progress.iteration").set(0)
            METRICS.gauge("executor.workers").set(workers)
        costs = self.costs
        spawn = costs.spawn_time(workers)
        inv = InvocationResult(index=runtime.invocation_index, trips=trips,
                               workers=workers)
        inv.spawn_cycles = spawn
        stats = runtime.stats
        base = {
            "private_read": stats.private_read_cycles,
            "private_write": stats.private_write_cycles,
            "separation": stats.separation_cycles,
            "redux": stats.redux_cycles,
            "misc": stats.misc_validation_cycles,
            "checkpoint": stats.checkpoint_cycles,
        }
        for worker in runtime.workers:
            worker.clock = spawn
        if self.timeline is not None:
            self.timeline.add("spawn", None, 0, spawn)

        main_stack = interp.swap_stack([])
        # Checkpoint period: aim for a handful of checkpoints per
        # invocation, bounded by the metadata-byte limit of 253.
        k = self.checkpoint_period or max(
            2, min(MAX_CHECKPOINT_PERIOD, trips // 5))
        controller = self.controller
        if controller is not None:
            controller.begin_invocation(k)

        next_iter = 0
        while next_iter < trips:
            if controller is not None and controller.should_fallback():
                span_len = controller.begin_fallback()
                seq_end = min(next_iter + span_len, trips)
                self._run_sequential_span(frame, inv, next_iter, seq_end, init)
                controller.end_fallback(seq_end - next_iter)
                next_iter = seq_end
                continue
            if controller is not None:
                k = controller.next_epoch_size()
            epoch_end = min(next_iter + k, trips)
            # One span per checkpoint epoch, in the shared base class, so
            # the simulated and pool backends both record the same
            # parent-side span chain (the service tier's per-job traces
            # rely on this being structurally identical across backends).
            epoch_span = TRACER.span("executor.epoch", cat="executor",
                                     invocation=runtime.invocation_index,
                                     epoch_start=next_iter,
                                     epoch_end=epoch_end)
            earliest, fragments = self._execute_epoch(
                frame, inv, next_iter, epoch_end, init)

            if earliest is None:
                ckpt0 = stats.checkpoint_cycles
                try:
                    with TRACER.span("executor.commit", cat="executor",
                                     epoch_start=next_iter,
                                     epoch_end=epoch_end):
                        runtime.checkpoint(next_iter, epoch_end,
                                           fragments=fragments)
                    ckpt_cost = stats.checkpoint_cycles - ckpt0
                    share = ckpt_cost // max(1, workers)
                    for worker in runtime.workers:
                        worker.clock += share
                    inv.checkpoints += 1
                    if TRACER.enabled:
                        METRICS.counter("executor.epochs").inc()
                        METRICS.counter("executor.iterations.committed").inc(
                            epoch_end - next_iter)
                        METRICS.gauge("executor.progress.iteration").set(
                            epoch_end)
                    if self.timeline is not None:
                        t = max(w.clock for w in runtime.workers)
                        self.timeline.add("checkpoint", None, t - share, t,
                                          f"iters [{next_iter},{epoch_end})")
                    epoch_span.end(outcome="committed",
                                   iterations=epoch_end - next_iter)
                    next_iter = epoch_end
                except Misspeculation as exc:
                    runtime.record_misspeculation(exc)
                    at = exc.iteration if exc.iteration >= 0 else next_iter
                    earliest = (min(at, epoch_end - 1), exc)

            if earliest is not None:
                if controller is not None:
                    controller.on_squash(earliest[0] + 1 - next_iter,
                                         earliest[1].kind)
                epoch_span.end(outcome="misspeculated",
                               at_iteration=earliest[0],
                               misspec_kind=earliest[1].kind)
                next_iter = self._recover(frame, inv, next_iter, earliest, init)

        # Join: final state is already committed by the last checkpoint.
        wall = max((w.clock for w in runtime.workers), default=spawn)
        inv.join_cycles = costs.join_time(workers)
        inv.wall_cycles = wall + inv.join_cycles
        if self.timeline is not None:
            self.timeline.add("join", None, wall, inv.wall_cycles)
        inv.validation_cycles = {
            "private_read": stats.private_read_cycles - base["private_read"],
            "private_write": stats.private_write_cycles - base["private_write"],
            "separation": stats.separation_cycles - base["separation"],
            "redux": stats.redux_cycles - base["redux"],
            "misc": stats.misc_validation_cycles - base["misc"],
        }
        inv.checkpoint_cycles = stats.checkpoint_cycles - base["checkpoint"]
        runtime.end_invocation()
        self._invocations.append(inv)
        log.info("invocation %d done: %d trips, %d checkpoint(s), "
                 "%d misspeculation(s), %d wall cycles",
                 inv.index, inv.trips, inv.checkpoints, inv.misspeculations,
                 inv.wall_cycles)
        # Simulated-cycle dual alongside the span's wall-clock duration.
        span.end(wall_cycles=inv.wall_cycles, checkpoints=inv.checkpoints,
                 misspeculations=inv.misspeculations,
                 recovered_iterations=inv.recovered_iterations,
                 checkpoint_period=k)

        # Resume the main thread at the loop exit: the IV phi takes its
        # final value and the header's exit test runs normally.
        interp.swap_stack(main_stack)
        frame.regs[plan.iv.phi] = self._iv_value(trips, init)
        frame.prev_block = frame.block
        frame.block = plan.loop.header
        frame.index = self._header_phi_count
        self._cycles_in_invocations += interp.cycles - cycles_at_entry

    # -- iteration execution -------------------------------------------------------

    def _inject_misspec(self, i: int) -> bool:
        """Should iteration ``i`` raise an injected misspeculation?
        Period 0 disables injection; a non-zero burst limits it to the
        first ``misspec_burst`` iterations of each invocation."""
        if not self.misspec_period or (i + 1) % self.misspec_period != 0:
            return False
        return not self.misspec_burst or i < self.misspec_burst

    def _injected_misspec(self, worker: WorkerState, i: int) -> Misspeculation:
        """Build the injected misspeculation for iteration ``i``, with a
        deterministic forensic context attached (the detail string stays
        exactly ``artificially injected`` so site attribution — and hence
        the controller's demotion policy — is unaffected by injection)."""
        exc = Misspeculation("injected", "artificially injected", i)
        exc.context = self.runtime.injected_conflict_context(worker, i)
        return exc

    def _execute_iteration(self, worker: WorkerState, i: int, init: int) -> None:
        """Run one loop iteration to the next header entry in the worker's
        context, with full speculation support."""
        interp = self.interp
        plan = self.plan
        frame = worker.frame
        self.runtime.begin_iteration(worker, i)
        interp.enter_block(frame, plan.loop.header, fire_breakpoints=False)
        frame.regs[plan.iv.phi] = self._iv_value(i, init)
        while True:
            try:
                interp.run_until_event()
            except BlockBreakpoint as bblk:
                if bblk.target is plan.loop.header and len(interp.frames) == 1:
                    break
                interp.resume_at(bblk.frame, bblk.target, bblk.prev)
                continue
            except GuestExit as e:
                raise Misspeculation(
                    "control", f"guest exit({e.code}) inside speculative "
                    f"region", i) from e
            # run_until_event returned: the frame stack drained without
            # re-entering the loop header.
            raise Misspeculation(
                "control", "loop function returned inside the parallel "
                "region", i)
        self.runtime.end_iteration(worker, i)

    def _execute_iteration_plain(self, frame: Frame, i: int, init: int) -> None:
        """Non-speculative re-execution of one iteration (recovery)."""
        interp = self.interp
        plan = self.plan
        interp.enter_block(frame, plan.loop.header, fire_breakpoints=False)
        frame.regs[plan.iv.phi] = self._iv_value(i, init)
        while True:
            try:
                interp.run_until_event()
            except BlockBreakpoint as bblk:
                if bblk.target is plan.loop.header and len(interp.frames) == 1:
                    return
                interp.resume_at(bblk.frame, bblk.target, bblk.prev)
                continue
            raise GuestFault(
                "loop function returned during non-speculative recovery")

    # -- adaptive sequential fallback ---------------------------------------------------

    def _run_sequential_span(self, frame: Frame, inv: InvocationResult,
                             start: int, end: int, init: int) -> None:
        """Run iterations ``[start, end)`` sequentially and committed
        (non-speculative), as directed by the adaptive controller's
        fallback policy after repeated whole-epoch squashes.  Reuses the
        recovery machinery: stores commit straight to main memory and are
        marked as committed definitions, then speculation resumes at
        ``end`` with freshly forked workers."""
        interp = self.interp
        runtime = self.runtime
        t_start = max(w.clock for w in runtime.workers)
        runtime.begin_sequential_span()
        seq_frame = frame.copy()
        interp.swap_stack([seq_frame])
        hook = _RecoveryHook(runtime)
        interp.hooks.append(hook)
        c0 = interp.cycles
        try:
            for i in range(start, end):
                self._execute_iteration_plain(seq_frame, i, init)
        finally:
            interp.hooks.remove(hook)
            interp.swap_stack([])
        cycles = interp.cycles - c0
        inv.sequential_cycles += cycles
        inv.sequential_iterations += end - start
        runtime.resume_after_recovery(end)
        t_end = t_start + self.costs.recovery_fixed + cycles
        for worker in runtime.workers:
            worker.clock = t_end
        if self.timeline is not None:
            self.timeline.add("sequential", None, t_start, t_end,
                              f"iters [{start},{end})")
        log.info("adaptive fallback: ran iterations [%d,%d) sequentially "
                 "in %d cycles", start, end, cycles)
        runtime.recorder.record("epoch", outcome="sequential",
                                epoch_start=start, epoch_end=end,
                                cycles=cycles)
        if TRACER.enabled:
            METRICS.counter("adapt.sequential_iterations").inc(end - start)
            TRACER.instant("executor.sequential_span", cat="executor",
                           start=start, end=end, cycles=cycles)

    # -- recovery -----------------------------------------------------------------------

    def _recover(self, frame: Frame, inv: InvocationResult, epoch_start: int,
                 earliest: Tuple[int, Misspeculation], init: int) -> int:
        """Squash, re-execute [epoch_start, m] sequentially, resume.
        Returns the next iteration to execute speculatively."""
        interp = self.interp
        runtime = self.runtime
        m, _exc = earliest
        inv.misspeculations += 1
        t_abort = max(w.clock for w in runtime.workers)

        runtime.squash_to_recovery(m)
        recovery_frame = frame.copy()
        interp.swap_stack([recovery_frame])
        hook = _RecoveryHook(runtime)
        interp.hooks.append(hook)
        c0 = interp.cycles
        try:
            for i in range(epoch_start, m + 1):
                self._execute_iteration_plain(recovery_frame, i, init)
        finally:
            interp.hooks.remove(hook)
            interp.swap_stack([])
        recovery_cycles = interp.cycles - c0
        inv.recovery_cycles += recovery_cycles
        inv.recovered_iterations += m + 1 - epoch_start

        t_resume = t_abort + self.costs.recovery_fixed + recovery_cycles
        if self.timeline is not None:
            self.timeline.add("recovery", None, t_abort, t_resume,
                              f"iters [{epoch_start},{m}]")
        log.info("recovery: re-executed iterations [%d,%d] in %d cycles",
                 epoch_start, m, recovery_cycles)
        runtime.recorder.record("epoch", outcome="squash",
                                epoch_start=epoch_start, epoch_end=m + 1,
                                misspec_iteration=m,
                                recovered=m + 1 - epoch_start,
                                cycles=recovery_cycles)
        if TRACER.enabled:
            METRICS.counter("executor.recoveries").inc()
            METRICS.histogram("executor.recovery.cycles").observe(
                recovery_cycles)
            TRACER.instant("executor.recovery", cat="executor",
                           misspec_iteration=m, epoch_start=epoch_start,
                           recovered_iterations=m + 1 - epoch_start,
                           cycles=recovery_cycles)
        runtime.resume_after_recovery(m + 1)
        for worker in runtime.workers:
            worker.clock = t_resume
        return m + 1
