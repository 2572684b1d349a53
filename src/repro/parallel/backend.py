"""The speculative DOALL executor, and the translation of a backend
name to its one process setting.

:class:`DOALLExecutor` holds the speculative DOALL machinery —
invocation detection, trip counting, epoch scheduling,
checkpoint/commit, misspeculation recovery, cycle accounting.  It runs
one team of workers, each on private replicas, in P processes with the
parent included (``--processes``).  P = 1, reported as ``simulated``,
runs every worker's slice in the parent, one after the other — the
deterministic reference: workers share no speculative state, exactly
the property Privateer validates, so running them one at a time is
behaviourally equivalent to running them concurrently, and timing is
modelled with per-worker cycle clocks (``costmodel.py``).  P > 1,
reported as ``pool``, adds a :class:`~repro.parallel.pool_backend.Pool`
of P - 1 resident children that run workers 1 .. n-1 while the parent
runs worker 0 — see docs/BACKENDS.md for the full guide.

Every slice, in whichever process hosts its worker, runs by one loop
(:meth:`DOALLExecutor._run_slice`) into a :class:`WorkerEpochReport`,
and the parent accounts every report by one method
(:meth:`DOALLExecutor._account_slices`) with the simulated scheduler's
earliest-misspeculation cut, then commits through one
:meth:`RuntimeSystem.checkpoint`.  So committed memory, ``RuntimeStats``,
misspeculations and telemetry are identical at every P by construction
(``tests/test_backend_parity.py`` sweeps P); every slice records its
trace lane and ``worker.<wid>.*`` metrics apart, wherever it ran
(:func:`_slice_telemetry`).

The loop driver — :func:`run_guest` (the guest's breakpoint loop),
:func:`invocation_trips` (the trip count and its below-minimum
fallback), :func:`run_iteration` (one iteration to the next header
entry) and :func:`leave_loop` (the IV's final value, back to the
header) — is the one way a loop runs, here and in the DOALL-only
baseline (:mod:`repro.baselines.doall_only`).  :func:`run_iteration`
reports a loop function that returned from inside the iteration; the
speculative iteration turns that into a control misspeculation,
recovery into a :class:`GuestFault`.

Callers that name a backend (``PreparedProgram.execute(backend=...)``,
a job payload's ``backend``/``pool_workers``) are translated to P by
:func:`processes_for`; :func:`make_executor` builds the executor.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.loops import InductionVariable, Loop
from ..forensics.recorder import FLIGHT_DIR_ENV, heap_map_of, write_dump
from ..interp.errors import GuestExit, GuestFault, GuestTimeout, Misspeculation
from ..interp.interpreter import BlockBreakpoint, Frame, Hook, Interpreter
from ..ir.instructions import CmpPred, Phi
from ..ir.types import IntType
from ..ir.module import BasicBlock, Function, Module
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

_NEGATE = {
    CmpPred.LT: CmpPred.GE, CmpPred.GE: CmpPred.LT,
    CmpPred.LE: CmpPred.GT, CmpPred.GT: CmpPred.LE,
    CmpPred.EQ: CmpPred.NE, CmpPred.NE: CmpPred.EQ,
}


class BackendError(ValueError):
    """An unknown backend name, a team size below 1, or a team this
    platform cannot fork."""


def processes_for(backend: Optional[str], workers: int,
                  count: Optional[int] = None) -> int:
    """The team size P an outside caller's settings name: an explicit
    ``count`` of processes, else one per worker for the ``pool``
    spelling of ``backend``, else 1 (``simulated``, the default); at
    most ``workers``, and at least 1."""
    if backend not in (None, "simulated", "pool"):
        raise BackendError(f"unknown backend {backend!r} "
                           f"(available: simulated, pool)")
    return max(1, min(count or (workers if backend == "pool" else 1),
                      workers))


def team_label(processes: int) -> str:
    """How reports, trace metadata and flight dumps name a team of
    ``processes``: ``simulated`` for the parent alone, else ``pool``."""
    return "simulated" if processes == 1 else "pool"


def make_executor(module: Module, plan: ParallelPlan,
                  **kwargs) -> "DOALLExecutor":
    """Build the executor (the name the pipeline calls it by)."""
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


def whole_rounds(k: int, workers: int) -> int:
    """An epoch size the runtime picked, as whole rounds of the team:
    the next multiple of ``workers``, or the one below when that would
    pass :data:`MAX_CHECKPOINT_PERIOD`.  A size below one round stays."""
    if k < workers:
        return k
    up = -(-k // workers) * workers
    return up if up <= MAX_CHECKPOINT_PERIOD else k // workers * workers


# -- the loop driver: the speculative executor's, and the DOALL-only
# -- baseline's (repro.baselines.doall_only) -------------------------------------

def run_guest(interp: Interpreter, fn: Function, args: Sequence[object],
              loops: Dict[BasicBlock, Loop],
              invoke: Callable[[BlockBreakpoint], None]) -> object:
    """Run ``fn(*args)`` to its end and return what it returned (or the
    ``exit()`` code): every entry into a loop of ``loops`` (keyed by
    header, each header a block breakpoint of ``interp``) from outside
    it is handed to ``invoke``; a back edge of a loop that runs in
    place just continues."""
    interp.push_function(fn, args)
    result: object = None
    try:
        while interp.frames:
            try:
                result = interp.run_until_event()
            except BlockBreakpoint as bp:
                if bp.prev in loops[bp.target].blocks:
                    interp.resume_at(bp.frame, bp.target, bp.prev)
                else:
                    invoke(bp)
    except GuestExit as e:
        interp.exit_code = e.code
        result = e.code
        interp.frames.clear()
    return result


def invocation_trips(interp: Interpreter, bp: BlockBreakpoint,
                     iv: InductionVariable,
                     min_trips: int) -> Optional[Tuple[int, int]]:
    """The IV's initial value and the trip count of the loop invocation
    entering at ``bp``; or None, with the loop resumed in place to run
    sequentially, when the count is unknown or below ``min_trips``."""
    frame = bp.frame
    init = int(interp.value_of(frame, iv.init))
    bound = int(interp.value_of(frame, iv.bound))
    trips = trip_count(init, bound, iv.step, iv.pred, iv.exit_on_true)
    if trips is not None and trips >= min_trips:
        return init, trips
    log.debug("sequential fallback: trip count %s below minimum %d",
              trips, min_trips)
    if TRACER.enabled:
        TRACER.instant("executor.sequential_fallback", cat="executor",
                       trips=trips, min_parallel_trips=min_trips)
    interp.resume_at(frame, bp.target, bp.prev)
    return None


def iv_value(iv: InductionVariable, init: int, i: int) -> int:
    """The IV's value in iteration ``i`` (``trips`` for the exit)."""
    value = init + i * iv.step
    ty = iv.phi.type
    return ty.wrap(value) if isinstance(ty, IntType) else value


def run_iteration(interp: Interpreter, frame: Frame, header: BasicBlock,
                  iv: InductionVariable, init: int, i: int) -> bool:
    """Run iteration ``i`` on ``frame``, the only frame of ``interp``'s
    stack: enter ``header`` with the IV's value and run to the next
    entry into it.  False if instead the frame stack drained — the
    loop's function returned from inside the loop."""
    interp.enter_block(frame, header, fire_breakpoints=False)
    frame.regs[iv.phi] = iv_value(iv, init, i)
    while True:
        try:
            interp.run_until_event()
        except BlockBreakpoint as bblk:
            if bblk.target is header and len(interp.frames) == 1:
                return True
            interp.resume_at(bblk.frame, bblk.target, bblk.prev)
            continue
        return False


def leave_loop(frame: Frame, header: BasicBlock, iv: InductionVariable,
               init: int, trips: int) -> None:
    """Set ``frame`` at ``header`` after the last of ``trips``
    iterations ran elsewhere: the IV phi takes its final value and the
    header's exit test runs next."""
    frame.regs[iv.phi] = iv_value(iv, init, trips)
    frame.prev_block = frame.block
    frame.block = header
    frame.index = sum(1 for inst in header.instructions
                      if isinstance(inst, Phi))


class _RecoveryHook(Hook):
    """Marks stores executed during sequential recovery as committed
    definitions (they must fail later live-in reads)."""

    subscription = frozenset(("store",))

    def __init__(self, runtime: RuntimeSystem):
        self.runtime = runtime

    def on_store(self, interp, inst, addr: int, size: int) -> None:
        self.runtime.note_recovery_write(addr, size)


@dataclass
class IterationRecord:
    """What one worker observed executing one iteration.

    Every slice builds these, wherever it runs, and the parent accounts
    the slice from them (:meth:`DOALLExecutor._account_slices`): cycle
    and step increments, validation-cycle attribution, additive
    RuntimeStats counter deltas, deferred output texts, and — if the
    iteration misspeculated — the misspeculation terms.  A child ships
    them over its report pipe; of a slice run in-process, the
    parent reads only clocks, timeline, useful cycles and the
    misspeculation, its other effects being in place already.
    """

    iteration: int
    cycles: int
    steps: int
    validation_cycles: int
    stats_delta: Tuple[int, ...]
    io: Tuple[str, ...] = ()
    #: ``(kind, detail, exc_iteration, injected, from_fault)`` when the
    #: iteration ended in a misspeculation; ``from_fault`` marks guest
    #: faults/timeouts (no timeline event).
    misspec: Optional[Tuple[str, str, int, bool, bool]] = None
    #: Forensic conflict context captured in the worker at the point of
    #: misspeculation (plain dict; see
    #: :meth:`repro.runtime.system.RuntimeSystem.capture_conflict_context`).
    misspec_context: Optional[Dict[str, object]] = None


@dataclass
class WorkerEpochReport:
    """Everything one worker produced for one epoch."""

    wid: int
    #: One per iteration the slice started; after the parent's
    #: accounting, the ones the epoch kept.
    records: List[IterationRecord] = field(default_factory=list)
    #: Present iff the slice ran clean: no misspeculation, no cut.
    fragment: Optional[EpochFragment] = None
    #: Trace events recorded in the worker (empty unless tracing is on).
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: In-worker :meth:`MetricsRegistry.dump` for the slice (empty unless
    #: tracing is on); the parent merges it under ``worker.<wid>.*``.
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)


@contextmanager
def _slice_telemetry(report: WorkerEpochReport, epoch_start: int,
                     epoch_end: int) -> Iterator[None]:
    """Record one worker slice's telemetry apart from this process's,
    onto its report: its ``backend.worker_epoch`` span and
    ``epoch.busy_us``, and whatever the slice records itself (shadow
    traffic, interpreter tallies ...).  The parent absorbs it
    (:func:`_absorb_slice`) wherever the slice ran, so every worker
    keeps its own trace lane and ``worker.<wid>.*`` metrics, and
    nothing of it lands on the parent's own lines."""
    if not TRACER.enabled:
        yield
        return
    t_begin = time.perf_counter()
    with TRACER.capture() as events, METRICS.capture() as registry:
        span = TRACER.span("backend.worker_epoch", cat="backend",
                           tid=report.wid + 1, worker=report.wid,
                           epoch_start=epoch_start, epoch_end=epoch_end)
        yield
        records = report.records
        span.end(iterations=len(records),
                 misspeculated=bool(records)
                 and records[-1].misspec is not None)
        METRICS.counter("epoch.busy_us").inc(
            round((time.perf_counter() - t_begin) * 1e6))
    report.trace_events = events
    report.metrics = registry.dump()


def _absorb_slice(wid: int, trace_events: List[Dict[str, object]],
                  metrics: Dict[str, Dict[str, object]]) -> None:
    """Merge one slice's recorded telemetry into this process's: events
    re-homed to the worker's trace process, metrics under
    ``worker.<wid>.*``."""
    TRACER.absorb_worker_events(wid, trace_events)
    if metrics:
        METRICS.merge(metrics, prefix=f"worker.{wid}.")


def _tally_slice(wid: int, iterations: int, misspeculated: bool) -> None:
    """Count one slice under ``worker.<wid>.epoch.*`` as the simulated
    scheduler ran it: ``iterations`` up to the earliest-misspeculation
    cut, the misspeculated one included.  A child runs past the cut;
    the parent tallies what its accounting kept, so the counts read the
    same at every team size."""
    if not TRACER.enabled:
        return
    prefix = f"worker.{wid}.epoch."
    METRICS.counter(prefix + "slices").inc()
    METRICS.counter(prefix + "iterations").inc(iterations)
    if misspeculated:
        METRICS.counter(prefix + "misspeculations").inc()


class DOALLExecutor:
    """The speculative DOALL executor: one team of ``workers`` in
    ``processes`` processes, the parent included, with per-worker cycle
    clocks.

    Everything — region detection, the slice loop and its accounting,
    sequential fallback, checkpoint commit, recovery, final resume — is
    here; the children of a team of P > 1 are :attr:`pool`'s.
    """

    #: Kept for ``perfbench``: fragments have no second transport to
    #: overflow into.
    ring_overflows = 0

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
        processes: int = 1,
    ):
        self.module = module
        self.plan = plan
        self.workers = max(1, workers)
        if processes < 1:
            raise BackendError(f"processes must be >= 1, got {processes}")
        #: Team size P: the parent, which hosts worker 0 (every worker
        #: when P = 1), and P - 1 children, which host the rest
        #: round-robin; at most one process per worker.
        self.processes = min(processes, self.workers)
        self.backend_name = team_label(self.processes)
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
        #: The resident children of a team of P > 1; None when P = 1.
        self.pool = None
        if self.processes > 1:
            from .pool_backend import Pool

            self.pool = Pool(self)

    @property
    def pool_spawns(self) -> int:
        """Times the team's children were forked: 0 when P = 1, else 1
        per run unless a child died or a sync was refused."""
        return self.pool.spawns if self.pool is not None else 0

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
        dump the flight recorder before returning/re-raising.  The
        team's children, if any, are gone when it returns, clean or
        not."""
        self.runtime.recorder.set_metadata(backend=self.backend_name,
                                           module=self.module.name,
                                           workers=self.workers)
        try:
            result = self._run_guest(entry, args)
        except BaseException:
            self._dump_flight(crash=True)
            raise
        finally:
            if self.pool is not None:
                self.pool.teardown()
        if self.runtime.stats.misspec_count() > 0:
            self._dump_flight(crash=False)
        return result

    def _run_guest(self, entry: str, args: Sequence[object]) -> ExecutionResult:
        interp = self.interp
        loop = self.plan.loop
        result = run_guest(interp, self.module.function_named(entry), args,
                           {loop.header: loop}, self._run_invocation)
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

    def _execute_epoch(
        self, frame: Frame, inv: InvocationResult, epoch_start: int,
        epoch_end: int, init: int,
    ) -> Tuple[Optional[Tuple[int, Misspeculation]],
               Optional[List[EpochFragment]]]:
        """Execute iterations ``[epoch_start, epoch_end)`` across the
        team, as the simulated scheduler orders it: worker by worker,
        none starting an iteration past the earliest misspeculation of
        those before it.

        The parent runs the slices it hosts — every worker's when
        P = 1, worker 0's when P > 1 — one after the other, each cut at
        the earliest misspeculation so far, and accounts each as it
        ends.  The children, handed the epoch plan first, run the rest
        meanwhile; the parent then drains their reports and accounts
        them ``shipped``, after its own and cut alike.

        Returns ``(earliest, fragments)``: ``earliest`` is the
        ``(iteration, exception)`` of the earliest misspeculation (or
        None on a clean epoch); ``fragments`` is the per-worker epoch
        state to commit, in wid order, or None when ``earliest`` is set.
        """
        pool = self.pool
        hosted = self.runtime.workers
        if pool is not None:
            pool.ship(frame, epoch_start, epoch_end, init)
            hosted = hosted[:1]
        earliest: Optional[Tuple[int, Misspeculation]] = None
        reports: List[WorkerEpochReport] = []
        for worker in hosted:
            report = self._run_slice(
                worker, frame, epoch_start, epoch_end, init,
                cut=None if earliest is None else earliest[0])
            earliest = self._account_slices([report], inv, earliest)
            reports.append(report)
        if pool is not None:
            shipped, death = pool.collect(epoch_start, epoch_end)
            earliest = self._account_slices(shipped, inv, earliest,
                                            shipped=True)
            reports += shipped
            if death is not None:
                self.runtime.record_misspeculation(death[1])
                if earliest is None or death[0] < earliest[0]:
                    earliest = death
        if earliest is not None:
            return earliest, None
        fragments = [r.fragment for r in reports]
        if pool is not None:
            pool.committed(fragments, epoch_start, epoch_end)
        return None, fragments

    def _run_slice(
        self, worker: WorkerState, frame: Frame, epoch_start: int,
        epoch_end: int, init: int, cut: Optional[int] = None,
    ) -> WorkerEpochReport:
        """Run ``worker``'s iterations of ``[epoch_start, epoch_end)`` on
        this process's interpreter — the one slice loop, in whichever
        process hosts the worker — and report them: one
        :class:`IterationRecord` per iteration started, the fragment iff
        the slice ran clean, and its telemetry, recorded apart
        (:func:`_slice_telemetry`).

        The slice stops at its own misspeculation, and starts no
        iteration past ``cut``: the earliest misspeculation of the
        workers before it in the simulated order.  That dooms the
        epoch, so a slice given a cut extracts no fragment.  What the
        iterations did to this process — cycles, steps, ``RuntimeStats``
        counters, deferred output — stays where it happened; the records
        carry it to the parent from a child (:meth:`_account_slices`).
        """
        interp = self.interp
        runtime = self.runtime
        stats = runtime.stats
        count = self.workers
        report = WorkerEpochReport(wid=worker.wid)
        records = report.records
        misspec: Optional[Tuple[str, str, int, bool, bool]] = None
        main_space = interp.space
        interp.space = worker.space
        if worker.frame is None:
            worker.frame = frame.copy()
        interp.swap_stack([worker.frame])
        with _slice_telemetry(report, epoch_start, epoch_end):
            first = epoch_start + (worker.wid - epoch_start) % count
            for i in range(first, epoch_end, count):
                if cut is not None and i > cut:
                    break
                c0 = interp.cycles
                s0 = interp.steps
                v0 = stats.validation_cycles()
                k0 = stats.counter_snapshot()
                context: Optional[Dict[str, object]] = None
                try:
                    self._execute_iteration(worker, i, init)
                    if self._inject_misspec(i):
                        raise self._injected_misspec(worker, i)
                except Misspeculation as exc:
                    runtime.capture_conflict_context(worker, exc)
                    misspec = (exc.kind, exc.detail, exc.iteration,
                               exc.kind == "injected", False)
                    context = exc.context
                except (GuestFault, GuestTimeout) as fault:
                    misspec = ("fault", str(fault), i, False, True)
                records.append(IterationRecord(
                    iteration=i,
                    cycles=interp.cycles - c0,
                    steps=interp.steps - s0,
                    validation_cycles=stats.validation_cycles() - v0,
                    stats_delta=stats.counter_delta(k0),
                    io=runtime.deferred.records_for(i),
                    misspec=misspec,
                    misspec_context=context,
                ))
                if misspec is not None:
                    break
            if misspec is None and cut is None:
                report.fragment = runtime.extract_fragment(worker,
                                                           epoch_start)
        interp.swap_stack([])
        interp.space = main_space
        return report

    def _account_slices(
        self, reports: List[WorkerEpochReport], inv: InvocationResult,
        earliest: Optional[Tuple[int, Misspeculation]] = None,
        shipped: bool = False,
    ) -> Optional[Tuple[int, Misspeculation]]:
        """Account the slices ``reports`` in worker order, after those
        that set ``earliest``, as the simulated scheduler ran them:
        a record past the earliest misspeculation so far is one no
        simulated worker started (a child ran it anyway; it is
        squashed), and is dropped from its report.  Returns the earliest
        misspeculation after ``reports``.

        Every slice's telemetry is absorbed under its worker, its clock,
        timeline, useful cycles and ``worker.<wid>.epoch.*`` tally
        applied, and its misspeculation recorded on this process's own
        lines.  A slice that ran in-process has left its other effects
        in place already; those of ``shipped`` records (a child's) are
        added here: counter deltas, cycles, steps and deferred output.
        """
        interp = self.interp
        runtime = self.runtime
        stats = runtime.stats
        timeline = self.timeline
        for report in reports:
            _absorb_slice(report.wid, report.trace_events, report.metrics)
            worker = runtime.workers[report.wid]
            misspec: Optional[Misspeculation] = None
            kept = 0
            for rec in report.records:
                if earliest is not None and rec.iteration > earliest[0]:
                    break
                kept += 1
                t0 = worker.clock
                worker.clock += rec.cycles
                if shipped:
                    stats.apply_counter_delta(rec.stats_delta)
                    interp.cycles += rec.cycles
                    interp.steps += rec.steps
                if rec.misspec is not None:
                    kind, detail, exc_iter, injected, from_fault = rec.misspec
                    misspec = Misspeculation(kind, detail, exc_iter)
                    misspec.context = rec.misspec_context
                    # Earlier than the cut: no other worker runs it.
                    earliest = (rec.iteration, misspec)
                    # A guest fault leaves no timeline event.
                    if timeline is not None and not from_fault:
                        timeline.add("misspec", worker.wid, t0,
                                     worker.clock, kind)
                    break
                if shipped:
                    runtime.deferred.absorb(rec.iteration, rec.io)
                inv.useful_cycles += max(0, rec.cycles - rec.validation_cycles)
                if timeline is not None:
                    timeline.add("iteration", worker.wid, t0, worker.clock,
                                 f"i={rec.iteration}")
            del report.records[kept:]
            _tally_slice(report.wid, kept, misspec is not None)
            if misspec is not None:
                runtime.record_misspeculation(misspec, injected=injected)
        return earliest

    def _run_invocation(self, bp: BlockBreakpoint) -> None:
        """Run one invocation of the parallel loop as checkpoint epochs.

        Worker ``w`` runs the iterations ``i`` with ``i % workers == w``
        of each epoch.  An explicit ``checkpoint_period`` sizes every
        epoch exactly; otherwise the runtime picks ``trips // 5`` (in
        ``[2, 253]``), or the adaptive controller picks, and that size
        runs as whole rounds (:func:`whole_rounds`) so no worker waits
        out an epoch on a shorter slice.
        """
        interp = self.interp
        plan = self.plan
        runtime = self.runtime
        frame = bp.frame
        cycles_at_entry = interp.cycles
        entry = invocation_trips(interp, bp, plan.iv, self.min_parallel_trips)
        if entry is None:
            return
        init, trips = entry

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
        # invocation, bounded by the metadata-byte limit of 253.  A size
        # the runtime picks runs as whole rounds; an explicit one is exact.
        k = self.checkpoint_period or max(
            2, min(MAX_CHECKPOINT_PERIOD, trips // 5))
        controller = self.controller
        if controller is not None:
            # The controller keeps its own AIMD size; what it hands back
            # is rounded below.
            controller.begin_invocation(k)
        elif not self.checkpoint_period:
            k = whole_rounds(k, workers)

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
                k = whole_rounds(controller.next_epoch_size(), workers)
            epoch_end = min(next_iter + k, trips)
            # One span per checkpoint epoch, so every team size records
            # the same parent-side span chain (the service tier's per-job
            # traces rely on this being structurally identical).
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

        # Resume the main thread at the loop exit.
        interp.swap_stack(main_stack)
        leave_loop(frame, plan.loop.header, plan.iv, init, trips)
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
        plan = self.plan
        self.runtime.begin_iteration(worker, i)
        try:
            looped = run_iteration(self.interp, worker.frame,
                                   plan.loop.header, plan.iv, init, i)
        except GuestExit as e:
            raise Misspeculation(
                "control", f"guest exit({e.code}) inside speculative "
                f"region", i) from e
        if not looped:
            raise Misspeculation(
                "control", "loop function returned inside the parallel "
                "region", i)
        self.runtime.end_iteration(worker, i)

    # -- committed sequential stretches ------------------------------------------------

    def _run_committed(self, frame: Frame, start: int, end: int, init: int,
                       t_start: int) -> Tuple[int, int]:
        """Run iterations ``[start, end)`` on a copy of ``frame``,
        non-speculatively: stores commit straight to main memory and are
        marked as committed definitions.  Speculation then resumes at
        ``end`` with freshly forked workers, their clocks at ``t_start``
        plus the stretch's cost.  Returns ``(cycles, that clock)``."""
        interp = self.interp
        runtime = self.runtime
        header, iv = self.plan.loop.header, self.plan.iv
        run_frame = frame.copy()
        interp.swap_stack([run_frame])
        hook = _RecoveryHook(runtime)
        interp.add_hook(hook)
        c0 = interp.cycles
        try:
            for i in range(start, end):
                if not run_iteration(interp, run_frame, header, iv, init, i):
                    raise GuestFault("loop function returned during "
                                     "non-speculative recovery")
        finally:
            interp.remove_hook(hook)
            interp.swap_stack([])
        cycles = interp.cycles - c0
        runtime.resume_after_recovery(end)
        t_end = t_start + self.costs.recovery_fixed + cycles
        for worker in runtime.workers:
            worker.clock = t_end
        return cycles, t_end

    def _run_sequential_span(self, frame: Frame, inv: InvocationResult,
                             start: int, end: int, init: int) -> None:
        """Run iterations ``[start, end)`` sequentially and committed
        (non-speculative), as directed by the adaptive controller's
        fallback policy after repeated whole-epoch squashes."""
        runtime = self.runtime
        t_start = max(w.clock for w in runtime.workers)
        runtime.begin_sequential_span()
        cycles, t_end = self._run_committed(frame, start, end, init, t_start)
        inv.sequential_cycles += cycles
        inv.sequential_iterations += end - start
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

    def _recover(self, frame: Frame, inv: InvocationResult, epoch_start: int,
                 earliest: Tuple[int, Misspeculation], init: int) -> int:
        """Squash, re-execute [epoch_start, m] sequentially, resume.
        Returns the next iteration to execute speculatively."""
        runtime = self.runtime
        m, _exc = earliest
        inv.misspeculations += 1
        t_abort = max(w.clock for w in runtime.workers)
        runtime.squash_to_recovery(m)
        recovery_cycles, t_resume = self._run_committed(
            frame, epoch_start, m + 1, init, t_abort)
        inv.recovery_cycles += recovery_cycles
        inv.recovered_iterations += m + 1 - epoch_start
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
        return m + 1
