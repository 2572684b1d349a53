"""Naive dependence-speculation baseline (§2).

Dependence speculation removes a dependence by *predicting it never
manifests* and squashing when it does.  The paper's motivation: for
programs like dijkstra, the false dependences on reused structures
manifest on **every** iteration, so a dependence-speculating system
misspeculates constantly, while privatization succeeds.

This module estimates, from the loop profile, how often each
privatization-removable dependence would actually manifest under naive
dependence speculation, and models the resulting performance: every
iteration that touches a reused location after another iteration wrote it
triggers a squash-and-replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..frontend.lower import compile_minic
from ..interp.interpreter import Hook, Interpreter
from ..ir.instructions import Call, Instruction
from ..ir.module import Module
from ..profiling.data import LoopRef
from ..profiling.looptracker import ActiveLoop, LoopInfoCache, LoopTracker


class _ManifestHook(Hook):
    """Counts iterations in which *any* same-location cross-iteration
    dependence (flow, anti, or output) manifests.  Loads and stores are
    subscribed to only while the loop is active."""

    subscription = frozenset(("loop_edge",))
    _ACTIVE = frozenset(("load", "store", "loop_edge"))

    def __init__(self, module: Module, ref: LoopRef):
        self.ref = ref
        self.cache = LoopInfoCache(module)
        self.tracker = LoopTracker(self.cache, on_enter=self._enter,
                                   on_iterate=self._iterate, on_exit=self._exit)
        self.active = None
        self.iteration_touched = False
        self.iterations = 0
        self.conflicting_iterations = 0
        self.last_touch: Dict[int, int] = {}  # address -> iteration

    def _enter(self, active: ActiveLoop) -> None:
        if active.ref == self.ref and self.active is None:
            self.active = active
            self.last_touch.clear()
            self.iteration_touched = False

    def _iterate(self, active: ActiveLoop) -> None:
        if active is self.active:
            self.iterations += 1
            if self.iteration_touched:
                self.conflicting_iterations += 1
            self.iteration_touched = False

    def _exit(self, active: ActiveLoop, cycles: int) -> None:
        if active is self.active:
            self.active = None

    def _touch(self, addr: int, size: int, is_write: bool) -> None:
        it = self.active.iteration
        for b in range(addr, addr + size, max(1, size)):
            prev = self.last_touch.get(b)
            if prev is not None and prev != it:
                self.iteration_touched = True
            if is_write:
                self.last_touch[b] = it

    def on_load(self, interp, inst, addr, size) -> None:
        self._touch(addr, size, is_write=False)

    def on_store(self, interp, inst, addr, size) -> None:
        self._touch(addr, size, is_write=True)

    def _resubscribe(self, interp) -> None:
        """The loop was entered or left: follow it."""
        interp.subscribe(self, self.subscription if self.active is None
                         else self._ACTIVE)

    def on_branch(self, interp, inst, target) -> None:
        was = self.active
        self.tracker.handle_branch(interp, inst, target)
        if (self.active is None) != (was is None):
            self._resubscribe(interp)

    def on_return(self, interp, fn) -> None:
        was = self.active
        self.tracker.handle_return(interp, fn)
        if (self.active is None) != (was is None):
            self._resubscribe(interp)


@dataclass
class DepSpecEstimate:
    """Profiled misspeculation rate for naive dependence speculation
    on one loop: conflicting iterations over total iterations (§2).
    """
    ref: LoopRef
    iterations: int
    conflicting_iterations: int

    @property
    def misspec_rate(self) -> float:
        if not self.iterations:
            return 0.0
        return self.conflicting_iterations / self.iterations

    def projected_speedup(self, workers: int, replay_factor: float = 2.0) -> float:
        """Optimistic model: conflict-free iterations scale linearly;
        each conflicting iteration serializes and pays a replay."""
        if not self.iterations:
            return 1.0
        clean = self.iterations - self.conflicting_iterations
        time = clean / workers + self.conflicting_iterations * replay_factor
        return self.iterations / time if time else float(workers)


def estimate_dependence_speculation(
    source: str, name: str, ref: LoopRef = None,  # type: ignore[assignment]
    entry: str = "main", args: Sequence[object] = (),
) -> DepSpecEstimate:
    """Measure how often cross-iteration dependences manifest in the hot
    loop (they manifest on ~100% of iterations for dijkstra-like reuse)."""
    module = compile_minic(source, name)
    if ref is None:
        from ..profiling.timeprof import profile_execution_time

        report = profile_execution_time(module, entry, tuple(args))
        ref = report.hottest(top_level_only=False)[0].ref
    interp = Interpreter(module)
    hook = _ManifestHook(module, ref)
    interp.add_hook(hook)
    interp.run(entry, tuple(args))
    return DepSpecEstimate(ref, hook.iterations, hook.conflicting_iterations)
