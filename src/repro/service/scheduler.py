"""Fingerprint-batched drain loop over a resident prepared-program cache.

The scheduler claims every queued job, groups the claim set by module
fingerprint (submission order preserved within and across groups), and
runs each group as one *batch*: the first job of a batch pays the cold
:func:`~repro.bench.pipeline.prepare_module` on a fresh copy of the
module the :class:`~repro.service.frontend_cache.FrontEndCache` compiled
at submit time (profiling itself is memoized by the on-disk profile
cache, so a server restart is only as cold as ``$REPRO_CACHE_DIR``),
and every later job with the same prepare identity reuses the resident
:class:`~repro.bench.pipeline.PreparedProgram` — a warm start that skips
compile/profile/classify/transform entirely.  The resident cache keeps
:data:`RESIDENT_MAX` programs, least recently used out first; a job
whose program was evicted is simply cold again.  With ``adapt`` on, the
batch also shares :class:`~repro.adapt.PolicyStore` state, so demotions
learned by an earlier job in the batch re-plan later ones.

Execution itself goes through ``PreparedProgram.execute``; a team of
more than one process keeps its children resident across every epoch
and invocation of a job (one fork per job, not per epoch — see
docs/BACKENDS.md).  Jobs run serially on the scheduler thread: the
parallelism budget belongs to the workers of the job being served, and
serial drains are what make per-job tracing with the global ``TRACER``
safe.

Terminal-state mapping (see docs/SERVICE.md):

* output matches the sequential baseline → ``done`` — even when the run
  misspeculated, as long as every misspeculation was caught and
  recovered; the payload carries squash/recovery counts and a forensics
  summary;
* output diverges → ``misspeculated`` (containment violated — this is
  the never-happens state the runtime's validation exists to prevent);
* ``SelectionError`` / guest fault / backend error → ``failed``.
"""

from __future__ import annotations

import threading
import traceback
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..interp import codegen
from ..obs.metrics import METRICS, labeled
from ..obs.trace import TRACER
from ..parallel.backend import BackendError
from ..transform.plan import SelectionError
from .frontend_cache import FrontEndCache
from .jobstore import (
    Job,
    JobStore,
    STATE_DONE,
    STATE_FAILED,
    STATE_MISSPECULATED,
    cache_tier,
)

#: Diagnoses included inline in a job payload (full detail lives in the
#: flight dump / trace artifacts).
MAX_INLINE_DIAGNOSES = 8

#: Prepared programs kept resident (the warm path), least recently used
#: out first.
RESIDENT_MAX = 64


class Scheduler:
    """Drains the :class:`JobStore` on a daemon thread, batch by batch."""

    def __init__(self, store: JobStore, spool_dir: str,
                 registry=None, tracer=None,
                 frontend: Optional[FrontEndCache] = None):
        self.store = store
        #: Trace artifacts (``<job id>.trace.jsonl``) are spooled here.
        self.spool_dir = Path(spool_dir)
        self.registry = registry if registry is not None else METRICS
        self.tracer = tracer if tracer is not None else TRACER
        #: Where cold jobs get their module (the HTTP tier's, when there
        #: is one: it compiled the source at submit time).
        self.frontend = (frontend if frontend is not None
                         else FrontEndCache(registry=self.registry))
        #: prepare identity -> resident PreparedProgram (the warm path);
        #: a lookup moves the entry to the young end.
        self._resident: "OrderedDict[Tuple, object]" = OrderedDict()
        self._batches = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Finish the in-flight job, then stop the drain thread."""
        self._stop.set()
        self.store.close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.store.wait_for_work(timeout=0.2):
                continue
            claimed = self.store.take_queued()
            if claimed and not self._stop.is_set():
                self.drain(claimed)

    # -- batching ----------------------------------------------------------

    def drain(self, jobs: List[Job]) -> None:
        """Run a claim set as fingerprint batches, submission order
        preserved within each batch and across batch leaders."""
        batches: Dict[str, List[Job]] = {}
        for job in jobs:
            batches.setdefault(job.fingerprint, []).append(job)
        for fingerprint, batch in batches.items():
            self._batches += 1
            self.registry.counter("service.batches").inc()
            self.registry.histogram("service.batch.size").observe(len(batch))
            fstats = self.store.fingerprints.get(fingerprint)
            if fstats is not None:
                fstats["batches"] += 1
            for position, job in enumerate(batch):
                job.batch = self._batches
                job.batch_position = position
                self._run_job(job)

    # -- one job -----------------------------------------------------------

    def _prepare_key(self, job: Job) -> Tuple:
        spec = job.spec
        return (job.fingerprint, spec.train_args, spec.args, spec.adapt)

    def _begin_job_trace(self, job: Job):
        """Open the per-job root span, set the ambient ``job``/``job_span``
        context every later event inherits (including events shipped back
        from forked workers), and land the phases that completed *before*
        the tracer existed — submit-side validation and queue wait — as
        synthetic spans carrying their wall-clock durations."""
        t = self.tracer
        span = t.span("job", cat="service", job=job.id,
                      fingerprint=job.fingerprint, program=job.spec.name,
                      workload=job.spec.workload,
                      processes=job.spec.processes)
        t.set_context(job=job.id, job_span=span.attrs["span_id"])
        t.set_run_metadata(job=job.id, fingerprint=job.fingerprint)
        t.emit_span("job.submit", cat="service",
                    dur_us=max(0.0, job.validate_s) * 1e6,
                    submitted_unix=job.submitted_unix,
                    frontend=job.frontend)
        started = job.started_unix or job.submitted_unix
        t.emit_span("job.queue_wait", cat="service",
                    dur_us=max(0.0, started - job.submitted_unix) * 1e6,
                    started_unix=job.started_unix)
        t.instant("job.batch", cat="service", batch=job.batch,
                  batch_position=job.batch_position)
        return span

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        traced = spec.trace
        trace_path = self.spool_dir / f"{job.id}.trace.jsonl"
        job_span = None
        if traced:
            self.tracer.enable()  # resets events: the artifact is per-job
            job_span = self._begin_job_trace(job)
        # Jobs must not kill the drain: whatever a job raises fails it.
        try:
            outcome = self._execute(job)
        except Exception as exc:  # noqa: BLE001
            outcome = self._failed(exc)
        if traced:
            # The artifact is in place before the job turns terminal: a
            # client that has seen the end of a traced job can fetch it.
            try:
                job_span.end(state=outcome["state"])
                self.tracer.write_jsonl(trace_path)
                job.trace_path = str(trace_path)
            except Exception as exc:  # noqa: BLE001
                outcome = self._failed(exc)
            finally:
                self.tracer.clear_context()
                self.tracer.disable()
        # "Did this job regenerate code?", answerable from /metrics by
        # whoever has seen the job end.
        self.registry.gauge("codegen.generations").set(codegen.generations)
        self.store.finish(job, **outcome)

    @staticmethod
    def _failed(exc: Exception) -> Dict[str, object]:
        """The :meth:`JobStore.finish` arguments of a job that raised."""
        detail = str(exc) or type(exc).__name__
        if isinstance(exc, SelectionError):
            detail = "no parallelizable loop: " + "; ".join(exc.reasons)
        elif isinstance(exc, BackendError):
            detail = f"backend error: {detail}"
        else:
            detail = f"{type(exc).__name__}: {detail}"
            traceback.print_exc()
        return {"state": STATE_FAILED, "error": detail}

    def _evict_resident(self) -> None:
        while len(self._resident) > RESIDENT_MAX:
            (fingerprint, *_), _program = self._resident.popitem(last=False)
            fstats = self.store.fingerprints.get(fingerprint)
            if fstats is not None:
                fstats["resident"] = any(
                    key[0] == fingerprint for key in self._resident)

    def _execute(self, job: Job) -> Dict[str, object]:
        """Prepare (or find resident), execute and build the result;
        returns the arguments of the :meth:`JobStore.finish` that
        :meth:`_run_job` makes."""
        from ..bench.pipeline import prepare_module
        import time as _time

        spec = job.spec
        key = self._prepare_key(job)
        program = self._resident.get(key)
        job.warm = program is not None
        tier = cache_tier(job)
        t0 = _time.monotonic()
        with self.tracer.span("job.prepare", cat="service", tier=tier):
            if program is None:
                self.registry.counter("service.prepare.cold").inc()
                module, fingerprint = self.frontend.module(spec.source,
                                                           spec.name)
                program = prepare_module(
                    module, spec.source, spec.name,
                    args=spec.train_args, ref_args=spec.args,
                    adapt=spec.adapt or None, fingerprint=fingerprint,
                )
                self._resident[key] = program
                self._evict_resident()
            else:
                self.registry.counter("service.prepare.warm").inc()
                self._resident.move_to_end(key)
        self.registry.histogram(labeled(
            "service.job.prepare_us", tier=tier)).observe(
                (_time.monotonic() - t0) * 1e6)
        fstats = self.store.fingerprints.get(job.fingerprint)
        if fstats is not None:
            fstats["resident"] = True
            fstats["warm_runs" if job.warm else "cold_prepares"] += 1

        t0 = _time.monotonic()
        with self.tracer.span("job.execute", cat="service", tier=tier,
                              processes=spec.processes,
                              workers=spec.workers):
            result = program.execute(
                workers=spec.workers,
                checkpoint_period=spec.checkpoint_period,
                misspec_period=spec.misspec_period,
                misspec_burst=spec.misspec_burst,
                processes=spec.processes,
                adapt=spec.adapt or None,
            )
        exec_s = _time.monotonic() - t0
        self.registry.histogram("service.job.exec_us").observe(exec_s * 1e6)
        with self.tracer.span("job.commit", cat="service", tier=tier):
            payload = self._result_payload(job, program, result)
        matches = bool(payload["output_matches"])
        state = STATE_DONE if matches else STATE_MISSPECULATED
        self.registry.histogram(labeled(
            "service.job.execute_us", outcome=state, tier=tier)).observe(
                exec_s * 1e6)
        # A traced run is not cached: a later cache hit could not serve
        # the trace artifact the client asked for.
        return {"state": state, "result": payload,
                "cacheable": matches and not spec.trace,
                "error": None if matches else
                "speculative output diverged from the sequential baseline"}

    def _result_payload(self, job: Job, program, result) -> Dict[str, object]:
        """The Table-1/Table-3 style result rows plus misspec forensics
        summary reported by ``GET /jobs/<id>``."""
        from ..bench.figures import table3_row

        stats = result.runtime_stats
        matches = result.output == program.sequential.output
        payload: Dict[str, object] = {
            "output_matches": matches,
            "output": list(result.output),
            "return_value": result.return_value,
            "table1": {
                "program": program.name,
                "workers": result.workers,
                "speedup": round(program.speedup(result), 4),
                "sequential_cycles": program.sequential.cycles,
                "wall_cycles": result.total_wall_cycles,
            },
            "table3": table3_row(program, result),
            "misspeculations": stats.misspec_count(),
            "genuine_misspeculations": stats.misspec_count(
                include_injected=False),
            "recoveries": stats.recoveries,
            "squashed_iterations": sum(
                inv.recovered_iterations for inv in result.invocations),
            "checkpoints": stats.checkpoints,
            "invocations": stats.invocations,
            "warm": job.warm,
            "batch": job.batch,
            "batch_position": job.batch_position,
            "selected_loop": str(program.plan.ref),
            "fingerprint": job.fingerprint,
            "applied_demotions": list(program.applied_demotions),
        }
        if stats.misspec_count() > 0:
            payload["forensics"] = self._forensics_summary(result)
        return payload

    def _forensics_summary(self, result) -> Dict[str, object]:
        """Root-cause the run's misspeculations from its flight snapshot
        (same engine as ``repro explain``)."""
        from ..forensics.explain import explain_snapshot

        snapshot = getattr(result, "forensics", None) or {}
        try:
            diagnoses = explain_snapshot(snapshot)
        except Exception:  # noqa: BLE001 - forensics are best-effort
            diagnoses = []
        return {
            "diagnoses": [d.to_dict()
                          for d in diagnoses[:MAX_INLINE_DIAGNOSES]],
            "total_diagnoses": len(diagnoses),
            "flight_dump": getattr(result, "flight_dump", None),
        }
