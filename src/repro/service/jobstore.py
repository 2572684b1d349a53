"""Job lifecycle and the bounded submit queue.

A job moves ``queued -> running -> done | failed | misspeculated``:

* ``done`` — the run completed and its output matched the sequential
  baseline (misspeculations that were caught and recovered still end
  here, with squash/recovery counts in the result);
* ``misspeculated`` — speculation was *not* contained: the output
  diverged from the sequential baseline, or a misspeculation escaped
  the recovery machinery (this is the contract-violation state and
  should never be reached);
* ``failed`` — the pipeline rejected the program (no parallelizable
  loop), the guest faulted, or the backend errored.

The store also owns the **warm result cache** (``cache key -> result
payload``): an identical ``(fingerprint, args, knobs)`` resubmission is
answered at submit time without touching the scheduler, recorded as a
``service.cache_hits`` increment.  It keeps :data:`RESULT_CACHE_MAX`
results; a hit refreshes its entry and the least recently served goes
first.

Backpressure: the queue of not-yet-running jobs is bounded
(``queue_depth``, default :data:`DEFAULT_QUEUE_DEPTH` or
``$REPRO_SERVE_QUEUE``); a submit beyond the bound raises
:class:`QueueFull`, which the HTTP tier maps to ``429 Too Many
Requests`` with a ``Retry-After`` hint derived from recent job latency.

Retention: finished jobs are kept up to ``retain`` entries; evicting a
job also drops its ``job.<id>.*`` entries from the metrics registry so
the ``/metrics`` payload stays bounded on a long-lived server.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import METRICS, labeled
from .serializers import SERVICE_FORMAT, JobSpec

STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"
STATE_MISSPECULATED = "misspeculated"

#: Every state a job can report; terminal states are the last three.
JOB_STATES = (STATE_QUEUED, STATE_RUNNING, STATE_DONE, STATE_FAILED,
              STATE_MISSPECULATED)

TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_MISSPECULATED)

#: Default bound on queued (not yet running) jobs.
DEFAULT_QUEUE_DEPTH = 64

#: Default count of finished jobs retained for ``GET /jobs/<id>``.
DEFAULT_RETAIN = 256

#: Results the warm result cache keeps, least recently served out first.
RESULT_CACHE_MAX = 1024


class QueueFull(RuntimeError):
    """The submit queue is at capacity; retry after ``retry_after_s``."""

    def __init__(self, depth: int, retry_after_s: float):
        super().__init__(
            f"job queue is full ({depth} queued); retry after "
            f"{retry_after_s:.0f}s")
        self.depth = depth
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One submitted job and everything the API reports about it."""

    id: str
    spec: JobSpec
    fingerprint: str
    state: str = STATE_QUEUED
    submitted_unix: float = field(default_factory=time.time)
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    #: Served straight from the warm result cache at submit time.
    cache_hit: bool = False
    #: Submit-side validation + fingerprinting wall time (seconds),
    #: measured by the HTTP tier; lands in the trace as ``job.submit``.
    validate_s: float = 0.0
    #: Whether submit-side validation found the source in the front-end
    #: cache (``"hit"``) or had to compile it (``"miss"``); an attribute
    #: of the ``job.submit`` span.
    frontend: str = "miss"
    #: Drain batch this job ran in (jobs sharing a fingerprint share one).
    batch: Optional[int] = None
    #: Position of this job within its fingerprint batch (0 = the cold
    #: leader; >0 ran against the already-resident prepared program).
    batch_position: Optional[int] = None
    #: The prepared program was already resident when this job ran.
    warm: bool = False
    #: Result payload (see Scheduler._result_payload) once terminal.
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: On-disk JSONL trace artifact, when the job requested tracing.
    trace_path: Optional[str] = None

    def to_json(self, verbose: bool = True) -> Dict[str, object]:
        """JSON-safe payload for ``GET /jobs/<id>`` (``verbose=False``
        trims the result body for the ``GET /jobs`` listing)."""
        out: Dict[str, object] = {
            "service_format": SERVICE_FORMAT,
            "id": self.id,
            "name": self.spec.name,
            "workload": self.spec.workload,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "args": list(self.spec.args),
            "train_args": list(self.spec.train_args),
            "knobs": self.spec.knobs(),
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "cache_hit": self.cache_hit,
            "batch": self.batch,
            "batch_position": self.batch_position,
            "warm": self.warm,
            "error": self.error,
            "has_trace": self.trace_path is not None,
        }
        if verbose:
            out["result"] = self.result
        return out


def cache_tier(job: Job) -> str:
    """The cache tier a job was served from — the ``tier`` label on the
    service latency histograms (``cold``/``warm``/``cache_hit``)."""
    if job.cache_hit:
        return "cache_hit"
    return "warm" if job.warm else "cold"


class JobStore:
    """Thread-safe job registry + bounded queue + warm result cache.

    All mutation happens under one lock; readers take JSON-safe
    snapshots under the same lock, so a ``GET`` polled concurrently with
    the scheduler never observes a torn job payload.
    """

    def __init__(self, queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 retain: int = DEFAULT_RETAIN,
                 registry=None):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1 (got {queue_depth})")
        self.queue_depth = queue_depth
        self.retain = max(1, retain)
        self.registry = registry if registry is not None else METRICS
        self._lock = threading.Condition(threading.Lock())
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []          # submission order
        self._ids = itertools.count(1)
        #: cache key -> (producing job id, result); a hit moves the
        #: entry to the young end.
        self._cache: "OrderedDict[str, Tuple[str, Dict[str, object]]]" \
            = OrderedDict()
        self._latency_sum = 0.0
        self._latency_count = 0
        #: Per-fingerprint aggregate stats for ``GET /fingerprints``.
        self.fingerprints: Dict[str, Dict[str, object]] = {}
        self._closed = False

    # -- submission --------------------------------------------------------

    def _queue_len_locked(self) -> int:
        return sum(1 for j in self._jobs.values()
                   if j.state == STATE_QUEUED)

    def _retry_after_locked(self) -> float:
        """Backpressure hint: roughly one average job latency (floor 1s),
        i.e. when the scheduler should next free a queue slot."""
        if not self._latency_count:
            return 1.0
        return max(1.0, self._latency_sum / self._latency_count)

    def submit(self, spec: JobSpec, fingerprint: str,
               validate_s: float = 0.0, frontend: str = "miss") -> Job:
        """Register a new job.

        Returns it in ``queued`` state — or, when the warm result cache
        already holds this exact ``(fingerprint, args, knobs)``, in
        ``done`` state with ``cache_hit=True`` and the cached result
        attached.  Raises :class:`QueueFull` when the queue is at
        capacity (cache hits never consume a queue slot).
        ``validate_s`` is the submit-side validation wall time measured
        by the HTTP tier (traced as the ``job.submit`` span, which also
        carries ``frontend``).

        Traced submissions bypass the cache lookup entirely: the client
        asked for a trace artifact, and a cache hit could not serve one
        (the cache key already ignores ``trace``, so an earlier untraced
        run of the same job would otherwise answer here).
        """
        key = spec.cache_key(fingerprint)
        with self._lock:
            if self._closed:
                raise RuntimeError("job store is closed")
            cached = None if spec.trace else self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
            job = Job(id=f"j{next(self._ids)}", spec=spec,
                      fingerprint=fingerprint, validate_s=validate_s,
                      frontend=frontend)
            fstats = self.fingerprints.setdefault(fingerprint, {
                "jobs": 0, "cache_hits": 0, "batches": 0,
                "cold_prepares": 0, "warm_runs": 0, "resident": False,
            })
            fstats["jobs"] += 1
            self.registry.counter("service.jobs.submitted").inc()
            if cached is not None:
                job.state = STATE_DONE
                job.cache_hit = True
                job.finished_unix = job.submitted_unix
                job.result = dict(cached[1], cached_from=cached[0])
                fstats["cache_hits"] += 1
                self.registry.counter("service.cache_hits").inc()
                self.registry.counter(f"job.{job.id}.cache_hit").inc()
                # A cache hit's whole latency is the submit-side
                # validation; it never waits in the queue.
                self.registry.histogram(labeled(
                    "service.job.total_us",
                    outcome=STATE_DONE, tier="cache_hit")).observe(
                        max(0.0, validate_s) * 1e6)
                self._remember(job)
                return job
            depth = self._queue_len_locked()
            if depth >= self.queue_depth:
                self.registry.counter("service.queue.rejected").inc()
                self._publish_backpressure_locked(depth)
                raise QueueFull(depth, self._retry_after_locked())
            self._remember(job)
            self._publish_backpressure_locked(depth + 1)
            self._lock.notify_all()
            return job

    def _publish_backpressure_locked(self, depth: int) -> None:
        """Keep the live backpressure gauges current: queue depth and
        the Retry-After hint a 429 would carry *right now*, so saturation
        is visible on ``/metrics`` before clients start seeing 429s."""
        self.registry.gauge("service.queue.depth").set(depth)
        self.registry.gauge("service.retry_after_s").set(
            round(self._retry_after_locked(), 3))

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._evict_locked()

    def _evict_locked(self) -> None:
        """Drop the oldest finished jobs beyond the retention cap, along
        with their per-job metrics."""
        finished = [jid for jid in self._order
                    if self._jobs[jid].state in TERMINAL_STATES]
        excess = len(finished) - self.retain
        for jid in finished[:max(0, excess)]:
            del self._jobs[jid]
            self._order.remove(jid)
            self.registry.remove(f"job.{jid}.")

    # -- scheduler side ----------------------------------------------------

    def wait_for_work(self, timeout: Optional[float] = None) -> bool:
        """Block until a queued job exists (or the store closes);
        returns True iff there is work."""
        with self._lock:
            if self._queue_len_locked() == 0 and not self._closed:
                self._lock.wait(timeout)
            return self._queue_len_locked() > 0

    def take_queued(self) -> List[Job]:
        """Claim every queued job (marking it ``running``), in
        submission order.  The scheduler groups the claimed jobs by
        fingerprint into batches."""
        now = time.time()
        with self._lock:
            claimed = [self._jobs[jid] for jid in self._order
                       if self._jobs[jid].state == STATE_QUEUED]
            for job in claimed:
                job.state = STATE_RUNNING
                job.started_unix = now
            self._publish_backpressure_locked(0)
            return claimed

    def finish(self, job: Job, state: str,
               result: Optional[Dict[str, object]] = None,
               error: Optional[str] = None,
               cacheable: bool = True) -> None:
        """Move a claimed job to a terminal state and (on success)
        populate the warm result cache."""
        assert state in TERMINAL_STATES, state
        now = time.time()
        with self._lock:
            job.state = state
            job.finished_unix = now
            job.result = result
            job.error = error
            latency = now - job.submitted_unix
            self._latency_sum += latency
            self._latency_count += 1
            queue_wait = (job.started_unix or now) - job.submitted_unix
            r = self.registry
            if state == STATE_DONE:
                r.counter("service.jobs.completed").inc()
                if cacheable and result is not None:
                    key = job.spec.cache_key(job.fingerprint)
                    self._cache[key] = (job.id, dict(result))
                    self._cache.move_to_end(key)
                    while len(self._cache) > RESULT_CACHE_MAX:
                        self._cache.popitem(last=False)
            elif state == STATE_MISSPECULATED:
                r.counter("service.jobs.misspeculated").inc()
            else:
                r.counter("service.jobs.failed").inc()
            r.histogram("service.job.latency_us").observe(latency * 1e6)
            r.histogram("service.job.queue_wait_us").observe(
                queue_wait * 1e6)
            tier = cache_tier(job)
            r.histogram(labeled("service.job.total_us",
                                outcome=state, tier=tier)).observe(
                                    latency * 1e6)
            r.histogram(labeled("service.job.queue_wait_us",
                                outcome=state, tier=tier)).observe(
                                    queue_wait * 1e6)
            self._publish_backpressure_locked(self._queue_len_locked())
            r.gauge(f"job.{job.id}.latency_us").set(round(latency * 1e6))
            r.gauge(f"job.{job.id}.queue_wait_us").set(
                round(queue_wait * 1e6))
            if result and isinstance(result.get("misspeculations"), int):
                r.counter(f"job.{job.id}.misspeculations").inc(
                    result["misspeculations"])
            self._evict_locked()
            self._lock.notify_all()

    # -- read side ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def job_payload(self, job_id: str) -> Optional[Dict[str, object]]:
        """JSON-safe snapshot of one job, taken under the lock."""
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.to_json()

    def list_payload(self) -> List[Dict[str, object]]:
        """JSON-safe summaries of every retained job, newest first."""
        with self._lock:
            return [self._jobs[jid].to_json(verbose=False)
                    for jid in reversed(self._order)]

    def fingerprint_payload(self) -> Dict[str, object]:
        """The ``GET /fingerprints`` body: per-fingerprint batching and
        cache statistics."""
        with self._lock:
            return {
                "service_format": SERVICE_FORMAT,
                "fingerprints": {fp: dict(stats)
                                 for fp, stats in self.fingerprints.items()},
                "cache_entries": len(self._cache),
                "jobs_retained": len(self._jobs),
                "queue_depth": self._queue_len_locked(),
                "queue_capacity": self.queue_depth,
            }

    def counts(self) -> Dict[str, int]:
        """State -> count over retained jobs (for logs and tests)."""
        with self._lock:
            out = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def close(self) -> None:
        """Wake any scheduler blocked in :meth:`wait_for_work`."""
        with self._lock:
            self._closed = True
            self._lock.notify_all()
