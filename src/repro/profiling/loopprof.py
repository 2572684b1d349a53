"""The profiler hook behind both profilers (§4.1 of the paper).

One :class:`ProfilerHook` per run attributes inclusive cycles to every
loop (the hot report of :func:`~repro.profiling.timeprof.
profile_execution_time`) and can loop-profile as it goes.  While an
invocation of a profiled loop is active, at any call depth, it records:

* the pointer-to-object map (which named objects each access touches);
* read/write/reduction footprints at object-site granularity;
* cross-iteration memory flow dependences (byte-accurate last-writer);
* object lifetimes, yielding short-lived allocation sites;
* value-prediction candidates (locations whose cross-iteration reads
  always observed one constant — restricted to global objects so the
  location is nameable by the transformation);
* I/O call sites (for deferral) and block coverage (for control
  speculation).

It profiles no loop (the time profile alone), one given loop
(:func:`profile_loop`), or every loop entered while no profiled loop is
active (the pipeline's one profiling run, DESIGN.md §7 "One profiling
run").  One invocation is profiled at a time: the state of its loop is
selected when it starts, so an access costs the same whichever loop it
is charged to.

The hook subscribes to loads, stores and every edge only while a
profiled invocation is active, and to loop edges otherwise (DESIGN.md §7
"Instrumented sites").  An access resolves its object through a per-site
entry kept by the rule of the interpreter's memory inline cache, records
the site's pointer-to-object fact only when that object changes, and
walks its bytes in the last-writer map with C-level ``map``/``dict``
calls.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from ..analysis.callgraph import CallGraph
from ..analysis.loops import Loop
from ..analysis.reduction import ReductionUpdate, reduction_sites
from ..interp.interpreter import Hook, Interpreter
from ..ir.instructions import Call, Instruction
from ..ir.module import BasicBlock, Function, Module
from .data import FlowDep, LoopProfile, LoopRef, LoopTimeRecord, ValuePrediction
from .looptracker import ActiveLoop, LoopInfoCache, LoopTracker

_IO_NAMES = {"printf", "puts"}

#: A site's entry before its first resolution: ``(space, object, lo, hi,
#: generation, object site)``, as ``AddressSpace.load_entry`` plus the
#: object's site.
_NO_ENTRY = (None, None, 0, 0, 0, "")


class _Site:
    """What the profiler keeps per load/store instruction: its static
    facts, read once, and the last object it resolved."""

    __slots__ = ("site_id", "redux_op", "entry")

    def __init__(self, site_id: str, redux_op: Optional[str]):
        self.site_id = site_id
        self.redux_op = redux_op
        self.entry = _NO_ENTRY


class _LoopState:
    """What the hook keeps for one profiled loop across its invocations."""

    __slots__ = ("profile", "sites", "executed", "deps", "vp_values",
                 "vp_deps", "lifetime_violations")

    def __init__(self, ref: LoopRef):
        self.profile = LoopProfile(ref)
        self.sites: Dict[Instruction, _Site] = {}
        self.executed: Set[BasicBlock] = set()
        self.deps: Dict[Tuple[str, str, str], FlowDep] = {}
        # (obj_site, offset, size) -> set of observed values (capped)
        self.vp_values: Dict[Tuple[str, int, int], Set[int]] = {}
        # (obj_site, offset, size) -> the dependences its reads carried,
        # by identity (one FlowDep object per distinct dependence)
        self.vp_deps: Dict[Tuple[str, int, int], Dict[int, FlowDep]] = {}
        self.lifetime_violations: Set[str] = set()


class ProfilerHook(Hook):
    """Time records for every loop, and the loop profile of ``ref`` or,
    with ``outermost``, of every loop entered while none is profiled."""

    subscription = frozenset(("loop_edge",))
    #: The subscription while a profiled invocation is active.
    _ACTIVE = frozenset(("load", "store", "edge", "call"))

    def __init__(self, module: Module, ref: Optional[LoopRef] = None,
                 outermost: bool = False):
        self.module = module
        self.cache = LoopInfoCache(module)
        self.tracker = LoopTracker(
            self.cache,
            on_enter=self._on_enter,
            on_iterate=self._on_iterate,
            on_exit=self._on_exit,
        )
        self._edges = self.cache._edges
        self.records: Dict[LoopRef, LoopTimeRecord] = {}
        self._outermost = outermost
        #: The one loop to profile, when ``ref`` names it.
        self.only: Optional[Loop] = (
            self.cache.loop_by_ref(ref) if ref is not None else None)
        self.states: Dict[Loop, _LoopState] = {}
        if self.only is not None:
            self.states[self.only] = _LoopState(ref)
        elif not outermost:
            # The time profile alone: the tracker is all this hook does
            # with an edge or a return.
            self.on_branch = self.tracker.handle_branch
            self.on_return = self.tracker.handle_return

        # The profiled invocation, its loop's state, and the parts of
        # that state the per-access paths read (selected at its start).
        self.active: Optional[ActiveLoop] = None
        self.state: Optional[_LoopState] = None
        self.profile: Optional[LoopProfile] = None
        self._sites: Dict[Instruction, _Site] = {}
        self._executed: Set[BasicBlock] = set()
        # Byte address -> (iteration, store site) of its last writer in
        # the active invocation; a writer from an earlier invocation
        # never makes a flow dependence, so starting one clears it.
        self.last_writer: Dict[int, Tuple[int, str]] = {}
        # Live allocations of the active invocation: base -> (site,
        # iteration); the invocation's end empties it.
        self.live_allocs: Dict[int, Tuple[str, int]] = {}
        # Static reduction pairing, per function (lazy).
        self._redux_maps: Dict[Function, Dict[Instruction, ReductionUpdate]] = {}
        self._callgraph: Optional[CallGraph] = None

    # -- loop lifecycle ------------------------------------------------------

    def _on_enter(self, active: ActiveLoop) -> None:
        rec = self.records.get(active.ref)
        if rec is None:
            rec = LoopTimeRecord(active.ref, depth=active.loop.depth)
            self.records[active.ref] = rec
        # Iterations are counted at back edges, so loops that exit through
        # the header report their exact trip count.
        rec.invocations += 1
        active.record = rec
        if self.active is None and (self._outermost
                                    or active.loop is self.only):
            self._begin(active)

    def _begin(self, active: ActiveLoop) -> None:
        state = self.states.get(active.loop)
        if state is None:
            state = self.states[active.loop] = _LoopState(active.ref)
        self.active, self.state = active, state
        self.profile, self._sites = state.profile, state.sites
        self._executed = state.executed
        state.profile.invocations += 1
        self.last_writer.clear()

    def _on_iterate(self, active: ActiveLoop) -> None:
        active.record.iterations += 1
        if active is self.active:
            self.profile.iterations += 1
            self._check_lifetimes()

    def _on_exit(self, active: ActiveLoop, cycles_now: int) -> None:
        active.record.cycles += cycles_now - active.entry_cycles
        if active is self.active:
            self._check_lifetimes(end_of_invocation=True)
            self.active = None

    def _check_lifetimes(self, end_of_invocation: bool = False) -> None:
        """Objects allocated in an earlier iteration and still live violate
        short-lived lifetime speculation [13]."""
        now = self.active.iteration
        stale = [
            base
            for base, (site, iteration) in self.live_allocs.items()
            if iteration != now or end_of_invocation
        ]
        for base in stale:
            site, _ = self.live_allocs.pop(base)
            self.state.lifetime_violations.add(site)

    # -- helpers -----------------------------------------------------------------

    def _new_site(self, inst: Instruction) -> _Site:
        fn = inst.parent.parent if inst.parent is not None else None
        upd = None
        if fn is not None:
            if fn not in self._redux_maps:
                self._redux_maps[fn] = reduction_sites(fn)
            upd = self._redux_maps[fn].get(inst)
        site = _Site(inst.site_id(),
                     upd.operator.name if upd is not None else None)
        self._sites[inst] = site
        return site

    def _miss(self, interp, inst, addr: int, size: int
              ) -> Tuple[Optional[_Site], bool]:
        """Resolve an access its site's entry does not answer: ``(site,
        changed)``, ``changed`` when the object is not the one the site
        resolved last, whose pointer-to-object fact is then recorded.
        ``site`` is None where the access resolves to no object."""
        site = self._sites.get(inst) or self._new_site(inst)
        sp = interp.space
        found = sp.try_find(addr, size)
        if found is None:
            return None, False
        obj = found[0]
        changed = obj is not site.entry[1]
        site.entry = (sp, obj, obj.base, obj.base + obj.size,
                      sp.generation, obj.site or obj.name)
        if changed:
            self.profile.pointer_objects.setdefault(
                site.site_id, set()).add(site.entry[5])
        return site, changed

    # -- hook events -----------------------------------------------------------------

    def _resubscribe(self, interp) -> None:
        """A profiled invocation started or ended: follow it."""
        interp.subscribe(self, self.subscription if self.active is None
                         else self._ACTIVE)

    def on_branch(self, interp, inst, target) -> None:
        actions = self._edges.get((inst.parent, target))
        if actions is None or actions.moves:
            was = self.active
            self.tracker.handle_branch(interp, inst, target)
            if (self.active is None) != (was is None):
                self._resubscribe(interp)
        if self.active is not None and target not in self._executed:
            self._executed.add(target)
            fn = target.parent
            if fn is not None:
                self.profile.executed_blocks.add((fn.name, target.name))

    def on_return(self, interp, fn) -> None:
        was = self.active
        self.tracker.handle_return(interp, fn)
        if (self.active is None) != (was is None):
            self._resubscribe(interp)

    def on_call(self, interp, inst: Call, callee) -> None:
        if callee.name in _IO_NAMES:
            self.profile.io_sites.add(inst.site_id())
        if not callee.is_declaration:
            self.profile.executed_blocks.add((callee.name, callee.entry.name))

    def on_alloc(self, interp, obj, inst) -> None:
        if self.active is None:
            return
        site = obj.site
        self.profile.loop_alloc_sites.add(site)
        self.live_allocs[obj.base] = (site, self.active.iteration)

    def on_free(self, interp, obj, inst) -> None:
        if self.active is None:
            return
        if isinstance(inst, Call) and obj.site:
            # The pointer-to-object map also covers free sites, so the
            # transformation can route them to the right logical heap.
            self.profile.pointer_objects.setdefault(
                inst.site_id(), set()).add(obj.site)
        entry = self.live_allocs.pop(obj.base, None)
        if entry is None:
            # Freeing an object allocated outside the loop (or in an
            # earlier invocation): its site cannot be short-lived.
            if obj.site:
                self.state.lifetime_violations.add(obj.site)
            return
        site, iteration = entry
        if iteration != self.active.iteration:
            self.state.lifetime_violations.add(site)

    # on_load and on_store test the site's entry by the hit rule of the
    # interpreter's memory inline cache before anything else.

    def on_load(self, interp, inst, addr: int, size: int) -> None:
        site = self._sites.get(inst)
        sp = interp.space
        changed = False
        if site is None:
            site, changed = self._miss(interp, inst, addr, size)
        else:
            c, o, lo, hi, g, _ = site.entry
            if not (c is sp and g == sp.generation and lo <= addr
                    and addr + size <= hi and o.alive):
                site, changed = self._miss(interp, inst, addr, size)
        if site is None:
            return
        obj_site = site.entry[5]
        profile = self.profile
        profile.loads += 1
        profile.bytes_read += size
        if site.redux_op is not None:
            profile.redux_ops[obj_site] = site.redux_op
            if changed:
                profile.redux_sites.add(obj_site)
        elif changed:
            profile.read_sites.add(obj_site)

        # Cross-iteration flow detection (byte granular).
        if not self.last_writer:
            return
        writers = set(map(self.last_writer.get, range(addr, addr + size)))
        writers.discard(None)
        if not writers:
            return
        iteration = self.active.iteration
        dep_store_sites = set()
        for w_iter, w_site in writers:
            if w_iter < iteration:
                dep_store_sites.add(w_site)
        if dep_store_sites:
            self._flow(site, addr, size, dep_store_sites)

    def _flow(self, site: _Site, addr: int, size: int,
              dep_store_sites: Set[str]) -> None:
        state = self.state
        obj_site = site.entry[5]
        deps = []
        for store_site in dep_store_sites:
            key = (store_site, site.site_id, obj_site)
            dep = state.deps.get(key)
            if dep is None:
                dep = state.deps[key] = FlowDep(*key)
                self.profile.flow_deps.add(dep)
            deps.append(dep)
        # Value-prediction candidate: global objects only, word-sized.
        if obj_site.startswith("global:") and size <= 8:
            _sp, obj, lo, _hi, _g, _os = site.entry
            offset = addr - lo
            vp_key = (obj_site, offset, size)
            value = int.from_bytes(obj.data[offset:offset + size], "little")
            values = state.vp_values.setdefault(vp_key, set())
            if len(values) < 3:
                values.add(value)
            state.vp_deps.setdefault(vp_key, {}).update(
                (id(dep), dep) for dep in deps)

    def on_store(self, interp, inst, addr: int, size: int) -> None:
        site = self._sites.get(inst)
        sp = interp.space
        changed = False
        if site is None:
            site, changed = self._miss(interp, inst, addr, size)
        else:
            c, o, lo, hi, g, _ = site.entry
            if not (c is sp and g == sp.generation and lo <= addr
                    and addr + size <= hi and o.alive):
                site, changed = self._miss(interp, inst, addr, size)
        if site is None:
            return
        obj_site = site.entry[5]
        profile = self.profile
        profile.stores += 1
        profile.bytes_written += size
        if site.redux_op is not None:
            profile.redux_ops[obj_site] = site.redux_op
            if changed:
                profile.redux_sites.add(obj_site)
        elif changed:
            profile.write_sites.add(obj_site)
        self.last_writer.update(dict.fromkeys(
            range(addr, addr + size), (self.active.iteration, site.site_id)))

    # -- the end of the run ------------------------------------------------------------

    def close(self, interp) -> None:
        """The run is over: close the loops still open (``exit()`` inside
        a loop), and drop what pins the run's address space and bytes
        (the hook outlives it in a cycle with its tracker)."""
        while self.tracker.stack:
            self.tracker._pop(interp)
        self.last_writer.clear()
        for state in self.states.values():
            state.sites.clear()

    def complete_profiles(self) -> Dict[LoopRef, LoopProfile]:
        """The finished profile of every loop whose every invocation the
        run profiled — as many as the hot report counts.  Each of them
        started with no other loop active, so the profile is exactly
        what :func:`profile_loop` records for that loop."""
        return {state.profile.ref: self.finish(loop)
                for loop, state in self.states.items()
                if state.profile.invocations
                == self.records[state.profile.ref].invocations}

    def finish(self, loop: Loop) -> LoopProfile:
        """The profile of profiled ``loop``, completed from its state."""
        state = self.states[loop]
        p = state.profile
        p.short_lived_sites = p.loop_alloc_sites - state.lifetime_violations
        for vp_key, values in state.vp_values.items():
            if len(values) == 1:
                obj_site, offset, size = vp_key
                vp = ValuePrediction(obj_site, offset, size, next(iter(values)))
                p.value_predictions[vp] = set(state.vp_deps[vp_key].values())
        p.unexecuted_blocks = (self._region_blocks(loop, p.ref)
                               - p.executed_blocks)
        return p

    def _region_blocks(self, loop: Loop,
                       ref: LoopRef) -> Set[Tuple[str, str]]:
        """All blocks statically reachable inside the loop region: the
        loop's blocks plus every block of defined functions transitively
        callable from it."""
        out: Set[Tuple[str, str]] = {(ref.function, bb.name)
                                     for bb in loop.blocks}
        if self._callgraph is None:
            self._callgraph = CallGraph(self.module)
        cg = self._callgraph
        callees: Set[Function] = set()
        for bb in loop.blocks:
            for inst in bb.instructions:
                if isinstance(inst, Call):
                    callees.add(inst.callee)
                    callees |= cg.transitive_callees(inst.callee)
        for g in callees:
            if not g.is_declaration:
                out |= {(g.name, bb.name) for bb in g.blocks}
        return out


def profile_loop(
    module: Module,
    ref: LoopRef,
    entry: str = "main",
    args: Sequence[object] = (),
) -> LoopProfile:
    """Run the program once with detailed instrumentation for ``ref``."""
    from ..obs.trace import TRACER

    with TRACER.span("pipeline.profile.loop", cat="pipeline",
                     loop=str(ref)) as sp:
        interp = Interpreter(module)
        hook = ProfilerHook(module, ref)
        interp.add_hook(hook)
        interp.run(entry, args)
        hook.close(interp)
        profile = hook.finish(hook.only)
        sp.set(cycles=interp.cycles, iterations=profile.iterations,
               invocations=profile.invocations)
    return profile
