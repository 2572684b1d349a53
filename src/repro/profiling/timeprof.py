"""Execution-time profiler: finds hot loops (à la gprof, §4.1) and, as
the pipeline's one profiling run, loop-profiles every outermost loop in
the same interpretation."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..obs.trace import TRACER
from .data import HotLoopReport, LoopProfile, LoopRef
from .loopprof import ProfilerHook


def profile_execution_time(
    module: Module, entry: str = "main", args: Sequence[object] = (),
    plain_run: Optional[List[Tuple[object, List[str]]]] = None,
    loop_profiles: Optional[Dict[LoopRef, LoopProfile]] = None,
) -> HotLoopReport:
    """Run the program once, attributing inclusive cycles to every loop.

    The hook only observes, so this is also a plain run of the program
    on ``args``: a caller that would otherwise make one passes a list as
    ``plain_run`` and finds ``(return value, output)`` appended (the
    run's cycles are the report's ``total_cycles``).

    A caller that passes a dict as ``loop_profiles`` makes this the
    program's one profiling run: it also loop-profiles every loop
    entered while no profiled loop is active, and the dict receives, by
    ref, the profile of each loop whose every invocation it profiled —
    exactly what :func:`~repro.profiling.loopprof.profile_loop` records
    for that loop (DESIGN.md §7 "One profiling run")."""
    with TRACER.span("pipeline.profile.time", cat="pipeline",
                     entry=entry) as sp:
        interp = Interpreter(module)
        hook = ProfilerHook(module, outermost=loop_profiles is not None)
        interp.add_hook(hook)
        rv = interp.run(entry, args)
        if plain_run is not None:
            plain_run.append((rv, list(interp.output)))
        hook.close(interp)
        kept = hook.complete_profiles()
        if loop_profiles is not None:
            loop_profiles.update(kept)
        sp.set(cycles=interp.cycles, loops=len(hook.records),
               loops_profiled=len(hook.states), profiles_kept=len(kept))
    return HotLoopReport(interp.cycles, list(hook.records.values()))
