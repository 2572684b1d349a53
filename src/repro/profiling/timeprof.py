"""Execution-time profiler: finds hot loops (à la gprof, §4.1)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.interpreter import Hook, Interpreter
from ..ir.module import Module
from ..obs.trace import TRACER
from .data import HotLoopReport, LoopRef, LoopTimeRecord
from .looptracker import ActiveLoop, LoopInfoCache, LoopTracker


class _TimeHook(Hook):
    #: Only an edge that enters, exits or iterates a loop moves a record.
    subscription = frozenset(("loop_edge",))

    def __init__(self, module: Module):
        self.cache = LoopInfoCache(module)
        self.records: Dict[LoopRef, LoopTimeRecord] = {}
        self.tracker = LoopTracker(
            self.cache,
            on_enter=self._on_enter,
            on_iterate=self._on_iterate,
            on_exit=self._on_exit,
        )
        # The tracker is all this hook does with an edge or a return.
        self.on_branch = self.tracker.handle_branch
        self.on_return = self.tracker.handle_return

    def _on_enter(self, active: ActiveLoop) -> None:
        rec = self.records.get(active.ref)
        if rec is None:
            rec = LoopTimeRecord(active.ref, depth=active.loop.depth)
            self.records[active.ref] = rec
        # Iterations are counted at back edges, so loops that exit through
        # the header report their exact trip count.
        rec.invocations += 1
        active.record = rec

    def _on_iterate(self, active: ActiveLoop) -> None:
        active.record.iterations += 1

    def _on_exit(self, active: ActiveLoop, cycles_now: int) -> None:
        active.record.cycles += cycles_now - active.entry_cycles


def profile_execution_time(
    module: Module, entry: str = "main", args: Sequence[object] = (),
    plain_run: Optional[List[Tuple[object, List[str]]]] = None,
) -> HotLoopReport:
    """Run the program once, attributing inclusive cycles to every loop.

    The hook only observes, so this is also a plain run of the program
    on ``args``: a caller that would otherwise make one passes a list as
    ``plain_run`` and finds ``(return value, output)`` appended (the
    run's cycles are the report's ``total_cycles``)."""
    with TRACER.span("pipeline.profile.time", cat="pipeline",
                     entry=entry) as sp:
        interp = Interpreter(module)
        hook = _TimeHook(module)
        interp.add_hook(hook)
        rv = interp.run(entry, args)
        if plain_run is not None:
            plain_run.append((rv, list(interp.output)))
        # Close any loops still open at program end (exit() inside a loop).
        while hook.tracker.stack:
            hook.tracker._pop(interp)
        sp.set(cycles=interp.cycles, loops=len(hook.records))
    return HotLoopReport(interp.cycles, list(hook.records.values()))
