"""End-to-end Privateer pipeline: compile, profile, classify, transform,
and execute — the driver used by examples, tests, and benchmarks.

Profiling results (the sequential baseline plus every profiler pass) are
memoized on disk via :mod:`repro.bench.cache`; repeated invocations on
the same module + inputs skip guest re-execution entirely.  Disable with
``use_cache=False`` (CLI: ``--no-cache``) or point ``$REPRO_CACHE_DIR``
at a scratch directory.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adapt import (
    AdaptConfig,
    PolicyStore,
    SpeculationController,
    apply_demotions,
    resolve_adapt_enabled,
)
from ..classify.classifier import HeapAssignment, classify
from ..frontend.lower import compile_minic
from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..obs.trace import TRACER
from ..parallel.backend import make_executor, processes_for
from ..parallel.costmodel import CostModelConfig
from ..parallel.stats import ExecutionResult
from ..profiling.data import HotLoopReport, LoopProfile, LoopRef
from ..profiling.loopprof import profile_loop
from ..profiling.serialize import (
    hot_report_from_dict,
    hot_report_to_dict,
    profile_from_dict,
    profile_to_dict,
)
from ..profiling.timeprof import profile_execution_time
from ..transform.plan import ParallelPlan, SelectionError
from ..transform.privatize import PrivateerTransform
from . import cache as profile_cache


@dataclass
class SequentialBaseline:
    """Best sequential execution of the unmodified program."""

    cycles: int
    return_value: object
    output: List[str]


@dataclass
class PreparedProgram:
    """A program taken through profile -> classify -> transform.

    Following the paper's methodology, profiling uses the *train* input
    and performance evaluation uses the *ref* input (§6).
    """

    name: str
    source: str
    entry: str
    train_args: tuple
    ref_args: tuple
    sequential: SequentialBaseline
    module: Module               # the transformed module
    hot_report: HotLoopReport
    profile: LoopProfile
    assignment: HeapAssignment
    plan: ParallelPlan
    rejected: Dict[LoopRef, List[str]] = field(default_factory=dict)
    #: Pre-transform module fingerprint (the profile-cache key component);
    #: also keys the adaptive policy store.
    fingerprint: str = ""
    #: Whether :func:`prepare` resolved adaptation on (and applied any
    #: persisted demotions before the transform).
    adapt_enabled: bool = False
    #: Demotions from the policy store that prepare() applied, per loop.
    applied_demotions: List[str] = field(default_factory=list)

    def make_controller(
        self, adapt_config: Optional[AdaptConfig] = None,
        store: Optional[PolicyStore] = None,
    ) -> SpeculationController:
        """A speculation controller bound to this program's fingerprint
        and selected loop (``store=None`` uses the default policy dir)."""
        return SpeculationController(
            key=self.fingerprint, loop=str(self.plan.ref),
            workload=self.name, config=adapt_config,
            store=store if store is not None else PolicyStore())

    def execute(
        self,
        workers: int = 24,
        checkpoint_period: Optional[int] = None,
        misspec_period: int = 0,
        misspec_burst: int = 0,
        costs: Optional[CostModelConfig] = None,
        record_timeline: bool = False,
        args: Optional[Sequence[object]] = None,
        backend: Optional[str] = None,
        processes: Optional[int] = None,
        adapt: Optional[bool] = None,
        adapt_config: Optional[AdaptConfig] = None,
        flight_dir: Optional[str] = None,
    ) -> ExecutionResult:
        """Run the transformed program under the speculative DOALL
        executor on the ref input; each call uses a fresh machine.

        ``processes`` is the team size P, the parent included (at most
        ``workers``; see docs/BACKENDS.md); without it ``backend``
        names it — ``"pool"`` is one process per worker, ``"simulated"``
        and None are 1.
        ``adapt`` enables the adaptive speculation controller (None
        inherits :func:`prepare`'s resolution; False fully bypasses the
        subsystem).  ``flight_dir`` overrides ``$REPRO_FLIGHT_DIR`` as
        the destination for flight-recorder dumps.
        """
        enabled = adapt if adapt is not None else self.adapt_enabled
        controller = self.make_controller(adapt_config) if enabled else None
        executor = make_executor(
            self.module,
            self.plan,
            workers=workers,
            checkpoint_period=checkpoint_period,
            misspec_period=misspec_period,
            misspec_burst=misspec_burst,
            costs=costs,
            record_timeline=record_timeline,
            controller=controller,
            flight_dir=flight_dir,
            processes=processes_for(backend, workers, processes),
        )
        from .. import __version__

        run_meta = {
            "repro_version": __version__,
            "workload": self.name,
            "fingerprint": self.fingerprint,
            "adapt": enabled,
            "argv": list(sys.argv),
        }
        executor.runtime.recorder.set_metadata(**run_meta)
        if TRACER.enabled:
            TRACER.set_run_metadata(**run_meta, backend=executor.backend_name)
        with TRACER.span("pipeline.execute", cat="pipeline",
                         program=self.name, workers=workers,
                         backend=executor.backend_name) as sp:
            result = executor.run(self.entry, tuple(args) if args is not None
                                  else self.ref_args)
            if TRACER.enabled:
                stats = result.runtime_stats
                sp.set(wall_cycles=result.total_wall_cycles,
                       invocations=stats.invocations,
                       checkpoints=stats.checkpoints,
                       misspeculations=stats.misspec_count())
        result.timeline = executor.timeline  # type: ignore[attr-defined]
        result.forensics = (  # type: ignore[attr-defined]
            executor.flight_snapshot())
        result.flight_dump = (  # type: ignore[attr-defined]
            executor.flight_dump_path)
        return result

    def speedup(self, result: ExecutionResult) -> float:
        return result.speedup_over(self.sequential.cycles)


def _run_baseline(module: Module, entry: str,
                  args: Sequence[object]) -> SequentialBaseline:
    interp = Interpreter(module)
    rv = interp.run(entry, tuple(args))
    return SequentialBaseline(interp.cycles, rv, list(interp.output))


def run_sequential(source: str, name: str, entry: str = "main",
                   args: Sequence[object] = ()) -> SequentialBaseline:
    """Compile and run the unmodified program (the clang -O3 stand-in)."""
    return _run_baseline(compile_minic(source, name), entry, args)


def prepare(source: str, name: str, **options) -> PreparedProgram:
    """Run the full Privateer compiler pipeline on MiniC source: compile
    it, then :func:`prepare_module`, which takes and documents every
    other argument."""
    return prepare_module(compile_minic(source, name), source, name,
                          **options)


def prepare_module(
    module: Module,
    source: str,
    name: str,
    entry: str = "main",
    args: Sequence[object] = (),
    ref_args: Optional[Sequence[object]] = None,
    min_coverage: float = 0.10,
    max_candidates: int = 6,
    use_cache: bool = True,
    adapt: Optional[bool] = None,
    fingerprint: Optional[str] = None,
) -> PreparedProgram:
    """Everything :func:`prepare` does after the compile, on a module
    ``compile_minic(source, name)`` produced — in this call, or earlier
    and since round-tripped through :mod:`pickle` (``repro serve`` keeps
    such snapshots).  ``module`` must be pristine and is consumed: the
    transform rewrites it in place and interpretation attaches code to
    it.  ``fingerprint`` is its :func:`module_fingerprint` when the
    caller already holds it.

    Profiles hot loops with the train input (``args``), selects the
    hottest transformable loop, and applies the privatization
    transformation.  One profiling run gives the hot report and the loop
    profile of every loop it could profile completely; a candidate it
    could not gets a run of its own (DESIGN.md §7 "One profiling run").
    The sequential baseline is measured on the ref input
    (``ref_args``, defaulting to the train input).  Raises
    :class:`SelectionError` if no loop can be parallelized.

    With ``use_cache`` (the default) profiling observations are memoized
    on disk keyed by module fingerprint + inputs; the classification and
    transformation always run fresh (they mutate the module).

    With ``adapt`` resolved on (explicit flag > ``REPRO_ADAPT``), any
    demotions the adaptive controller persisted for this module are
    applied to each candidate's classification before the transform —
    the re-plan either proceeds without speculating on the demoted
    objects or rejects the loop and falls through to the next candidate.
    """
    train_args = tuple(args)
    eval_args = tuple(ref_args) if ref_args is not None else train_args
    prepare_span = TRACER.span("pipeline.prepare", cat="pipeline",
                               program=name, train_args=list(train_args),
                               ref_args=list(eval_args))

    # Fingerprint and key are captured now, before any transform mutates
    # the module in place.
    if fingerprint is None:
        fingerprint = profile_cache.module_fingerprint(module)
    ckey = profile_cache.cache_key(fingerprint, entry, train_args, eval_args)

    cached = profile_cache.load_entry(ckey, fingerprint) if use_cache else None
    if TRACER.enabled:
        TRACER.instant("pipeline.cache."
                       + ("hit" if cached is not None else "miss"),
                       cat="pipeline", program=name, use_cache=use_cache)
    profiles: Dict[str, LoopProfile] = {}
    # What the one profiling run profiled completely: a candidate takes
    # its profile from here before it runs a loop profile of its own.
    kept: Dict[LoopRef, LoopProfile] = {}
    if cached is not None:
        seq = cached["sequential"]
        sequential = SequentialBaseline(
            seq["cycles"], seq["return_value"], list(seq["output"]))
        hot_report = hot_report_from_dict(cached["hot_report"])
        for key, pdata in cached["profiles"].items():
            try:
                profiles[key] = profile_from_dict(pdata)
            except ValueError:
                pass  # stale per-candidate entry: re-profile below
    else:
        # The baseline runs on the module the profilers and the transform
        # use, before either touches it: interpreting only attaches code
        # caches to the IR.  When the evaluation input is the training
        # input, the profiling run is that run (its hook observes).
        if eval_args == train_args:
            plain: List[Tuple[object, List[str]]] = []
            hot_report = profile_execution_time(module, entry, train_args,
                                                plain_run=plain,
                                                loop_profiles=kept)
            sequential = SequentialBaseline(hot_report.total_cycles,
                                            *plain[0])
        else:
            sequential = _run_baseline(module, entry, eval_args)
            hot_report = profile_execution_time(module, entry, train_args,
                                                loop_profiles=kept)

    def _persist() -> None:
        if not use_cache or cached is not None:
            return
        profile_cache.store_entry(ckey, fingerprint, {
            "sequential": {
                "cycles": sequential.cycles,
                "return_value": sequential.return_value,
                "output": sequential.output,
            },
            "hot_report": hot_report_to_dict(hot_report),
            # The entry-level fingerprint covers the profiles; they are
            # serialized without their own (the module may already be
            # mutated by the time this runs).
            "profiles": {
                key: profile_to_dict(p)
                for key, p in profiles.items()
            },
        })

    rejected: Dict[LoopRef, List[str]] = {}
    candidates = [
        rec for rec in hot_report.hottest(top_level_only=False)
        if hot_report.coverage(rec.ref) >= min_coverage
    ][:max_candidates]

    adapt_enabled = resolve_adapt_enabled(adapt)
    policy_store = PolicyStore() if adapt_enabled else None

    last_error: Optional[SelectionError] = None
    for rec in candidates:
        profile = profiles.get(str(rec.ref))
        if profile is None:
            profile = kept.get(rec.ref)
            if profile is None:
                profile = profile_loop(module, rec.ref, entry, train_args)
            profiles[str(rec.ref)] = profile
        assignment = classify(profile)
        applied: List[str] = []
        if policy_store is not None:
            applied = apply_demotions(
                assignment,
                policy_store.demotions_for(fingerprint, str(rec.ref)))
            if applied and TRACER.enabled:
                TRACER.instant("pipeline.demotions_applied", cat="pipeline",
                               program=name, loop=str(rec.ref), sites=applied)
        try:
            plan = PrivateerTransform(module, rec.ref, profile,
                                      assignment).run()
        except SelectionError as e:
            rejected[rec.ref] = e.reasons
            last_error = e
            continue
        _persist()
        prepare_span.end(selected=str(rec.ref), rejected=len(rejected),
                         cache_hit=cached is not None)
        return PreparedProgram(
            name=name, source=source, entry=entry, train_args=train_args,
            ref_args=eval_args, sequential=sequential, module=module,
            hot_report=hot_report, profile=profile, assignment=assignment,
            plan=plan, rejected=rejected, fingerprint=fingerprint,
            adapt_enabled=adapt_enabled, applied_demotions=applied,
        )
    _persist()
    prepare_span.end(selected=None, rejected=len(rejected),
                     cache_hit=cached is not None)
    raise last_error or SelectionError(
        LoopRef(entry, "?"), ["no hot loop candidates found"])

