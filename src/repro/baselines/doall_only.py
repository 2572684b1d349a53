"""DOALL-only baseline (Figure 7): non-speculative parallelization.

This models the comparison system in §6.1 — a DOALL transform with *no*
privatization, *no* reductions, and *no* speculation.  Loops must be
proven parallel by static analysis alone (:func:`doall_legal_static`), so:

* dijkstra / enc-md5: nothing is parallelizable (real false dependences
  through the reused structures);
* swaptions: the loop is parallelizable in truth but cannot be *proven*
  so (linked matrices defeat the points-to analysis);
* blackscholes: only the inner per-option loop is provable;
* alvinn: only deeply nested inner loops are provable, and spawning
  workers for them costs more than they gain — the slowdown in Figure 7.

Execution: legal loops run their iterations round-robin over workers
*directly in main memory* (no isolation needed — independence is proven),
paying spawn/join per invocation but no checkpoint or validation costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.depgraph import doall_legal_static
from ..analysis.loops import InductionVariable, Loop
from ..analysis.modref import ModRefAnalysis
from ..analysis.pointsto import PointsToAnalysis
from ..frontend.lower import compile_minic
from ..interp.errors import GuestExit
from ..interp.interpreter import BlockBreakpoint, Frame, Interpreter
from ..ir.instructions import Phi
from ..ir.module import BasicBlock, Module
from ..parallel.costmodel import DEFAULT_COSTS, CostModelConfig
from ..parallel.backend import trip_count
from ..profiling.data import LoopRef
from ..profiling.looptracker import LoopInfoCache
from ..profiling.timeprof import profile_execution_time
from ..transform.selection import loops_may_be_simultaneously_active


#: Minimum profiled cycles per invocation for a loop to be worth a
#: spawn/join round trip — the profitability cutoff every production
#: DOALL compiler applies before dispatching worker threads.
MIN_INVOCATION_CYCLES = 2500


@dataclass
class DOALLCandidate:
    """A loop the non-speculative DOALL baseline considered: its
    induction variable, profiled cycles, and static legality verdict.
    """
    ref: LoopRef
    loop: Loop
    iv: InductionVariable
    cycles: int
    invocations: int
    legal: bool
    reasons: List[str] = field(default_factory=list)

    @property
    def cycles_per_invocation(self) -> float:
        return self.cycles / self.invocations if self.invocations else 0.0


@dataclass
class DOALLOnlyResult:
    """Execution result of the DOALL-only baseline (Fig. 7): output
    plus parallel/sequential cycle accounting.
    """
    return_value: object
    output: List[str]
    workers: int
    wall_cycles: int
    parallel_cycles: int
    sequential_cycles_outside: int
    invocations: int
    selected: List[LoopRef] = field(default_factory=list)
    candidates: List[DOALLCandidate] = field(default_factory=list)

    def speedup_over(self, sequential_cycles: int) -> float:
        return sequential_cycles / self.wall_cycles if self.wall_cycles else 0.0


def analyze_loops(module: Module, entry: str = "main",
                  args: Sequence[object] = ()) -> List[DOALLCandidate]:
    """Statically judge every profiled-hot loop; returns candidates with
    legality verdicts, hottest first."""
    report = profile_execution_time(module, entry, tuple(args))
    cache = LoopInfoCache(module)
    pta = PointsToAnalysis(module)
    modref = ModRefAnalysis(module, pta)
    out: List[DOALLCandidate] = []
    for rec in report.hottest(top_level_only=False):
        fn = module.function_named(rec.ref.function)
        info = cache.info(fn)
        loop = info.loop_with_header(rec.ref.header)
        iv = info.find_induction_variable(loop)
        verdict = doall_legal_static(module, loop, info, pta, modref)
        out.append(DOALLCandidate(
            ref=rec.ref, loop=loop, iv=iv, cycles=rec.cycles,
            invocations=rec.invocations,
            legal=bool(verdict) and iv is not None,
            reasons=verdict.reasons,
        ))
    return out


def select_compatible(
    module: Module,
    candidates: List[DOALLCandidate],
    min_invocation_cycles: int = MIN_INVOCATION_CYCLES,
) -> List[DOALLCandidate]:
    """Greedy largest-first selection of legal loops that are never
    simultaneously active (no nested parallelism), subject to a
    profitability cutoff per invocation."""
    selected: List[DOALLCandidate] = []
    for cand in sorted(candidates, key=lambda c: c.cycles, reverse=True):
        if not cand.legal or cand.iv is None:
            continue
        if cand.cycles_per_invocation < min_invocation_cycles:
            continue
        if any(
            loops_may_be_simultaneously_active(
                module, cand.ref, cand.loop, other.ref, other.loop)
            for other in selected
        ):
            continue
        selected.append(cand)
    return selected


class DOALLOnlyExecutor:
    """Executes the selected loops' iterations round-robin over simulated
    workers, directly against main memory."""

    def __init__(self, module: Module, selected: List[DOALLCandidate],
                 workers: int = 24, costs: Optional[CostModelConfig] = None,
                 min_parallel_trips: int = 2):
        self.module = module
        self.selected = {c.loop.header: c for c in selected}
        self.workers = max(1, workers)
        self.costs = costs or DEFAULT_COSTS
        self.min_parallel_trips = min_parallel_trips
        self.interp = Interpreter(module)
        for header in self.selected:
            self.interp.block_breakpoints.add(header)
        self.parallel_cycles = 0
        self.cycles_in_invocations = 0
        self.invocations = 0

    def run(self, entry: str = "main", args: Sequence[object] = ()) -> DOALLOnlyResult:
        interp = self.interp
        interp.push_function(self.module.function_named(entry), args)
        result: object = None
        try:
            while interp.frames:
                try:
                    result = interp.run_until_event()
                except BlockBreakpoint as bp:
                    cand = self.selected.get(bp.target)
                    if cand is None or bp.prev in cand.loop.blocks:
                        interp.resume_at(bp.frame, bp.target, bp.prev)
                    else:
                        self._run_invocation(bp, cand)
        except GuestExit as e:
            result = e.code
            interp.frames.clear()
        seq_outside = interp.cycles - self.cycles_in_invocations
        return DOALLOnlyResult(
            return_value=result,
            output=list(interp.output),
            workers=self.workers,
            wall_cycles=seq_outside + self.parallel_cycles,
            parallel_cycles=self.parallel_cycles,
            sequential_cycles_outside=seq_outside,
            invocations=self.invocations,
            selected=[c.ref for c in self.selected.values()],
        )

    def _run_invocation(self, bp: BlockBreakpoint, cand: DOALLCandidate) -> None:
        interp = self.interp
        frame = bp.frame
        iv = cand.iv
        cycles_at_entry = interp.cycles
        init = int(interp.value_of(frame, iv.init))
        bound = int(interp.value_of(frame, iv.bound))
        trips = trip_count(init, bound, iv.step, iv.pred, iv.exit_on_true)
        if trips is None or trips < self.min_parallel_trips:
            interp.resume_at(frame, bp.target, bp.prev)
            return

        self.invocations += 1
        workers = self.workers
        spawn = self.costs.spawn_time(workers)
        clocks = [spawn] * workers
        header = cand.loop.header
        phi_count = sum(1 for i in header.instructions if isinstance(i, Phi))

        main_stack = interp.swap_stack([])
        worker_frames: List[Optional[Frame]] = [None] * workers
        for i in range(trips):
            w = i % workers
            if worker_frames[w] is None:
                worker_frames[w] = frame.copy()
            wframe = worker_frames[w]
            interp.swap_stack([wframe])
            c0 = interp.cycles
            self._execute_iteration(wframe, cand, init, i)
            clocks[w] += interp.cycles - c0
            interp.swap_stack([])

        wall = max(clocks) + self.costs.join_time(workers)
        self.parallel_cycles += wall
        self.cycles_in_invocations += interp.cycles - cycles_at_entry

        interp.swap_stack(main_stack)
        ty = iv.phi.type
        final = init + trips * iv.step
        frame.regs[iv.phi] = ty.wrap(final) if hasattr(ty, "wrap") else final
        frame.prev_block = frame.block
        frame.block = header
        frame.index = phi_count

    def _execute_iteration(self, wframe: Frame, cand: DOALLCandidate,
                           init: int, i: int) -> None:
        interp = self.interp
        iv = cand.iv
        interp.enter_block(wframe, cand.loop.header, fire_breakpoints=False)
        ty = iv.phi.type
        value = init + i * iv.step
        wframe.regs[iv.phi] = ty.wrap(value) if hasattr(ty, "wrap") else value
        while True:
            try:
                interp.run_until_event()
            except BlockBreakpoint as bblk:
                if bblk.target is cand.loop.header and len(interp.frames) == 1:
                    return
                interp.resume_at(bblk.frame, bblk.target, bblk.prev)


def run_doall_only(source: str, name: str, entry: str = "main",
                   args: Sequence[object] = (), workers: int = 24,
                   costs: Optional[CostModelConfig] = None) -> DOALLOnlyResult:
    """Compile, statically select, and run under the DOALL-only baseline."""
    module = compile_minic(source, name)
    candidates = analyze_loops(module, entry, args)
    selected = select_compatible(module, candidates)
    executor = DOALLOnlyExecutor(module, selected, workers=workers, costs=costs)
    result = executor.run(entry, tuple(args))
    result.candidates = candidates
    return result
