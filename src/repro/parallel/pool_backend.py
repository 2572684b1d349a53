"""Persistent worker-pool DOALL backend: long-lived worker processes.

The real-parallel backend, and the paper's runtime shape with the spawn
paid once: workers are forked once per :meth:`PoolDOALLExecutor.run`,
stay resident across epochs, recoveries and invocations, and hand their
speculative state back over their report pipes.  Each child runs
its round-robin slices of every epoch on its own private/reduction heap
replicas and ships back, per hosted worker, one
:class:`~repro.parallel.backend.IterationRecord` per executed iteration,
an :class:`~repro.runtime.fragments.EpochFragment` iff the slice
completed cleanly, and any trace events and metrics it recorded.  The
parent drains all report pipes concurrently (``selectors``), **replays**
the iteration records in worker order — reproducing the simulated
scheduler's earliest-misspeculation cut exactly — and feeds the
fragments to the shared :meth:`RuntimeSystem.checkpoint` commit path.
Phase-two validation, merge, reduction folding, deferred-I/O commit,
squash and sequential recovery therefore all run in the parent,
identically to the simulated backend; the parity suite asserts equality
of final memory, ``RuntimeStats`` and misspeculation counts.
docs/BACKENDS.md is the end-to-end guide; section pointers below.

Lifecycle (docs/BACKENDS.md §"pool lifecycle"):

* Pool children are forked **lazily at the first epoch of the run**,
  inheriting the whole parent image by copy-on-write — worker COW
  overlays, replica shadows, reduction copies and the loop frame —
  exactly the state a persistent simulated worker starts from.  From
  that fork on the parent's main space records what changes in it
  (:meth:`AddressSpace.track_changes`).
* Across *clean* epochs each epoch plan (:class:`_PoolEpoch`) arrives
  over a per-child task pipe and carries the previous epoch's **commit
  delta** (:class:`_CommitDelta`): the private bytes the parent's
  checkpoint merged into main memory plus the folded reduction results.
  The child patches its own main-memory image and performs the same
  per-worker post-checkpoint reset the parent did
  (``reset_after_checkpoint`` + ``mark_old_write_runs`` +
  epoch-tracking/redux reset), so the resident workers are
  byte-for-byte the simulated backend's persistent workers.
* Whenever main ran behind the children's back — a squash and its
  sequential recovery, an adaptive sequential span, the code between
  two invocations — the runtime has replaced its worker states
  (:meth:`RuntimeSystem.refork_workers`), and the next plan carries a
  **sync** (:class:`_PoolSync`) instead: what main changed, by value.
  Each child applies it to its copy of main while none of its overlays
  is in use and then re-forks its worker states through the runtime's
  own path (:meth:`RuntimeSystem.resync_workers`).
* The pool is forked again only for what a sync cannot express, each
  counted under ``pool.respawns.<reason>``: there is no pool yet
  (``no_pool``), a child is dead (``child_died``), or the stretch
  changed more than :data:`SYNC_MAX_BYTES` (``oversize``).

Fragment transport (docs/BACKENDS.md §"transport formats"): each
child's report pipe carries one pickled :class:`_PoolReply` per epoch:
per hosted worker the fragment header — which holds the reduction
runs, a few ``bytes`` objects of one byte per reduced byte (alvinn:
1 800 B in three runs) — the private-heap part of the packed format-3
:class:`~repro.runtime.fragments.EpochFragment` (interval runs +
kind/value blobs) as one struct-framed ``bytearray``
(:mod:`repro.parallel.shm_ring`), and one
:class:`~repro.parallel.backend.IterationRecord` per iteration
(0.1–0.3 KB each), plus metrics dumps and trace events when tracing.
Everything on the pipe keys on worker ids that are stable for the
whole run, which is what the telemetry plane (``worker.N.*`` merge,
per-worker Chrome lanes, partial-epoch absorption) relies on.

Failure semantics (docs/BACKENDS.md §"failure semantics"): a child
that dies mid-epoch (e.g. SIGKILL) is detected as EOF on its report
pipe; the parent absorbs the surviving workers' telemetry, synthesizes
a ``fault`` misspeculation at the dead workers' first iteration of the
epoch, squashes the epoch through the standard recovery path, and
respawns the pool at the next epoch (a child found dead before a sync
is sent — killed between two invocations, say — costs the respawn
alone).  A wedged pool still hits the
``epoch_timeout`` deadline and fails the run loudly.  The pool is
killed and reaped on the way out of :meth:`PoolDOALLExecutor.run`,
clean or not.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.codegen import _UNDEF
from ..interp.errors import GuestFault, GuestTimeout, Misspeculation
from ..interp.interpreter import Frame
from ..obs.log import get_logger
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from ..runtime.fragments import EpochFragment
from ..runtime.intervals import union_runs
from ..runtime.iodefer import DeferredOutput
from ..runtime.system import WorkerState
from .backend import (
    BackendError,
    BaseDOALLExecutor,
    IterationRecord,
    WorkerEpochReport,
)
from .shm_ring import (
    pack_fragment_payload,
    payload_size,
    unpack_fragment_payload,
)
from .stats import ExecutionResult, InvocationResult

log = get_logger("pool_backend")

#: Length prefix for pipe frames: one unsigned 64-bit little-endian int.
_LEN = struct.Struct("<Q")

#: Default wall-clock budget per epoch before the pool is killed.
DEFAULT_EPOCH_TIMEOUT = 300.0

#: Most bytes of main memory (changed contents and new objects) a sync
#: carries; a stretch of main that changed more respawns the pool.
#: Where shipping stops being cheaper than forking, measured:
#: EXPERIMENTS.md "Resident pool (PR 24)".
SYNC_MAX_BYTES = 2 << 20


@dataclass
class _ChildFailure:
    """Shipped instead of a report when a child hits an internal error."""

    wid: int
    error: str


def _write_frame(fd: int, data: bytes) -> None:
    view = memoryview(_LEN.pack(len(data)) + data)
    while view:
        n = os.write(fd, view)
        view = view[n:]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    """Blocking read of exactly ``n`` bytes; None on EOF."""
    buf = bytearray()
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def _read_frame(fd: int) -> Optional[bytes]:
    """Blocking read of one length-prefixed frame (the task-pipe
    counterpart of :func:`_write_frame`); None on EOF at a frame
    boundary or mid-frame (parent gone: exit either way)."""
    head = _read_exact(fd, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    return _read_exact(fd, length)


@dataclass
class _CommitDelta:
    """What the parent's last checkpoint changed in main memory.

    Shipped to resident children on the next epoch plan so their main
    images stay identical to the parent's: ``private_runs`` are
    ``(private-heap offset, committed bytes)`` read back from the
    parent's main memory over the merged write extents; ``redux_runs``
    are ``(absolute address, bytes)`` over the folded reduction runs,
    adjacent ones coalesced.  Application is idempotent (plain content
    stores).
    """

    private_runs: List[Tuple[int, bytes]] = field(default_factory=list)
    redux_runs: List[Tuple[int, bytes]] = field(default_factory=list)


@dataclass
class _PoolSync:
    """What main did behind the resident children's backs, by value:
    everything of the parent image a child's slice reads that a fork at
    this point would have inherited and a fork before it did not."""

    #: The runtime's ``invocation_index``.  Whether it moved since the
    #: children's last plan or this is a resume inside the invocation
    #: makes no difference to what they do (the ``backend.sync`` span
    #: says which).
    invocation_index: int
    #: :meth:`AddressSpace.take_changes` of the main space: layout and
    #: contents, the last commit's spans included.
    main: tuple
    #: The loop frame: function name, block and previous-block indices
    #: (-1 = none), instruction index, slot values and which slots are
    #: undefined (their value here is a placeholder).
    frame: Tuple[str, int, int, int, List[object], List[int]]
    #: ``prng_state``, ``cycles``, ``steps``, ``call_context`` and
    #: ``_context_ids`` of the interpreter.
    interp: Tuple[int, int, int, List[str], Dict[Tuple[str, ...], int]]


@dataclass
class _PoolEpoch:
    """One epoch plan, parent -> child over the task pipe."""

    epoch_start: int
    epoch_end: int
    init: int
    #: Commit delta of the previous epoch, when the children saw it run.
    commit: Optional[_CommitDelta] = None
    #: Set instead when main ran since the children's last plan.  After
    #: a (re)spawn both are None: the fork inherited everything.
    sync: Optional[_PoolSync] = None


@dataclass
class _PoolReply:
    """One epoch's results, child -> parent over the report pipe.

    ``payloads`` parallels ``reports``: None for a misspeculated slice,
    else ``(fragment header, packed payload)``.
    """

    cwid: int
    reports: List[WorkerEpochReport] = field(default_factory=list)
    payloads: List[Optional[tuple]] = field(default_factory=list)


@dataclass
class _PoolChild:
    """Parent-side handle on one resident pool process."""

    cwid: int
    pid: int
    #: Parent's read end of the report pipe.
    rfd: int
    #: Parent's write end of the task pipe (length-prefixed pickled
    #: :class:`_PoolEpoch` frames).
    task_wfd: int
    wids: List[int] = field(default_factory=list)


@dataclass
class _Resident:
    """What the resident children's images match, as of the last plan
    they were sent; None on the executor while there is no pool."""

    #: The parent's ``runtime.workers`` their worker states mirror.  The
    #: runtime replaces the list exactly when main has run behind them
    #: (new invocation, recovery, sequential span): identity is the test.
    workers: List[WorkerState]
    invocation: int
    #: ``(merged write spans, merged reduction run spans)`` of a commit
    #: they have not been told of yet — the recipe for the next commit
    #: delta, or part of the next sync.
    commit: Optional[tuple] = None


class PoolDOALLExecutor(BaseDOALLExecutor):
    """DOALL backend with persistent pool workers."""

    backend_name = "pool"
    #: Kept for ``perfbench``: fragments no longer have a second
    #: transport to overflow into.
    ring_overflows = 0

    def __init__(self, *args, epoch_timeout: float = DEFAULT_EPOCH_TIMEOUT,
                 pool_workers: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        if not hasattr(os, "fork"):
            raise BackendError(
                "the pool backend requires os.fork (POSIX); "
                "use --backend simulated on this platform")
        self.epoch_timeout = epoch_timeout
        if pool_workers is not None and pool_workers < 1:
            raise BackendError(
                f"--pool-workers must be >= 1, got {pool_workers}")
        #: Requested pool size; None = one process per logical worker.
        self.pool_workers = pool_workers
        #: Effective pool size.  Fewer processes than logical workers
        #: means each child hosts several worker ids and runs their
        #: slices sequentially — precisely the simulated semantics.
        self.pool_size = min(pool_workers or self.workers, self.workers)
        #: Forks of the pool by reason: ``no_pool`` (one per run),
        #: ``child_died``, ``oversize``.
        self.pool_respawns: Dict[str, int] = {}
        #: Syncs sent: plans that brought resident children up to date
        #: with a stretch main ran, where a fork used to.
        self.pool_syncs = 0
        self._children: List[_PoolChild] = []
        self._resident: Optional[_Resident] = None
        #: Child-side: previous epoch's write spans per hosted wid (for
        #: ``mark_old_write_runs`` on commit notification).
        self._child_prev_spans: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def pool_spawns(self) -> int:
        """Times the pool was forked — 1 per run unless a reason of
        ``pool_respawns`` other than ``no_pool`` came up."""
        return sum(self.pool_respawns.values())

    # -- whole-program run ----------------------------------------------------

    def run(self, entry: str = "main",
            args: Sequence[object] = ()) -> ExecutionResult:
        """Run the guest; always tear the pool down on the way out
        (clean or crashed)."""
        try:
            return super().run(entry, args)
        finally:
            self._teardown_children()

    # -- epoch execution ------------------------------------------------------

    def _execute_epoch(
        self, frame: Frame, inv: InvocationResult, epoch_start: int,
        epoch_end: int, init: int,
    ) -> Tuple[Optional[Tuple[int, Misspeculation]],
               Optional[List[EpochFragment]]]:
        runtime = self.runtime
        plan = _PoolEpoch(epoch_start, epoch_end, init)
        resident = self._resident
        if resident is None:
            respawn = "no_pool"
        elif (resident.workers is runtime.workers
              and resident.commit is not None):
            plan.commit = self._build_commit_delta()
            respawn = None
        else:
            with TRACER.span(
                    "backend.sync", cat="backend",
                    invocation=runtime.invocation_index,
                    new_invocation=(resident.invocation
                                    != runtime.invocation_index)) as span:
                plan.sync, respawn = self._build_sync(frame, resident)
                span.set(outcome=respawn or "sync")
        if respawn:
            self._spawn_pool(frame, respawn)
        self._resident = resident = _Resident(runtime.workers,
                                              runtime.invocation_index)
        blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        if plan.sync is not None:
            self.pool_syncs += 1
            if TRACER.enabled:
                METRICS.counter("pool.syncs").inc()
                METRICS.counter("pool.sync_bytes").inc(len(blob))
        for child in self._children:
            try:
                _write_frame(child.task_wfd, blob)
            except BrokenPipeError:
                # Child already dead: _drain_pool sees EOF on its report
                # pipe and the epoch is squashed + the pool respawned.
                pass

        payloads: Dict[int, WorkerEpochReport] = {}
        try:
            replies, dead = self._drain_pool(payloads)
        except BaseException:
            # Deadline or protocol failure: kill the pool, but keep the
            # telemetry that already crossed the pipe.
            self._teardown_children()
            self._absorb_telemetry(payloads)
            raise
        self._absorb_telemetry(payloads)
        for reply in replies.values():
            if isinstance(reply, _ChildFailure):
                self._teardown_children()
                raise RuntimeError(
                    f"pool worker process {reply.wid} failed during epoch "
                    f"[{epoch_start},{epoch_end}):\n{reply.error}")
        for reply in replies.values():
            for report, entry in zip(reply.reports, reply.payloads):
                if entry is not None:
                    report.fragment = self._rebuild_fragment(entry)

        death = None
        if dead:
            dead_wids = sorted(w for child in dead for w in child.wids)
            death = self._synthesize_death(dead, dead_wids, epoch_start,
                                           epoch_end)
            # Iterations a simulated scheduler would cut at the death
            # point were executed speculatively by survivors; drop them
            # before replay (they are squashed anyway).
            for report in payloads.values():
                report.records = [r for r in report.records
                                  if r.iteration <= death[0]]

        reports = [payloads[wid] for wid in sorted(payloads)]
        earliest = self._replay_reports(reports, inv)
        if death is not None:
            self.runtime.record_misspeculation(death[1])
            if earliest is None or death[0] < earliest[0]:
                earliest = death
        if earliest is not None:
            return earliest, None

        fragments = [r.fragment for r in reports]
        if len(fragments) != self.workers or any(
                f is None for f in fragments):
            raise RuntimeError(
                f"pool backend: clean epoch [{epoch_start},{epoch_end}) "
                f"is missing fragments ({len(fragments)}/{self.workers} "
                f"reports)")
        resident.commit = (
            union_runs([f.write_spans() for f in fragments]),
            union_runs([f.redux_spans() for f in fragments]),
        )
        return None, fragments

    def _absorb_telemetry(self, payloads: Dict[int, object]) -> None:
        """Merge the telemetry shipped by completed workers into the
        parent tracer and metrics registry: trace events re-homed to the
        per-worker trace process, metrics under ``worker.<wid>.*``.

        Called for every received payload — including when the epoch is
        about to fail because another worker died mid-epoch: telemetry
        that already crossed the pipe must survive the failure, so the
        Chrome export still shows the partial epoch."""
        if not TRACER.enabled:
            return
        for wid in sorted(payloads):
            report = payloads[wid]
            if not isinstance(report, WorkerEpochReport):
                continue
            if report.trace_events:
                TRACER.absorb_worker_events(report.wid, report.trace_events)
            if report.metrics:
                METRICS.merge(report.metrics, prefix=f"worker.{report.wid}.")

    def _synthesize_death(self, dead: List[_PoolChild],
                          dead_wids: List[int], epoch_start: int,
                          epoch_end: int) -> Tuple[int, Misspeculation]:
        """Turn mid-epoch child death into a standard squash: a fault
        misspeculation at the dead workers' first iteration of the
        epoch (the epoch cannot commit without their fragments)."""
        log.warning("pool worker(s) %s (pid %s) died during epoch "
                    "[%d,%d); squashing and respawning",
                    dead_wids, [c.pid for c in dead], epoch_start,
                    epoch_end)
        if TRACER.enabled:
            METRICS.counter("pool.worker_deaths").inc(len(dead))
        wid_set = set(dead_wids)
        death_iter = next(
            (i for i in range(epoch_start, epoch_end)
             if i % self.workers in wid_set), epoch_start)
        exc = Misspeculation(
            "fault",
            f"pool worker process died mid-epoch (worker(s) {dead_wids})",
            death_iter)
        return death_iter, exc

    # -- parent-side replay ---------------------------------------------------

    def _replay_reports(self, reports: List[WorkerEpochReport],
                        inv: InvocationResult
                        ) -> Optional[Tuple[int, Misspeculation]]:
        """Replay the shipped iteration records in worker order,
        reproducing exactly the bookkeeping the simulated backend does
        in-process — including the earliest-misspeculation cut, under
        which iterations a simulated worker would never have started
        are discarded (the children executed them speculatively; that
        wasted work is squashed anyway)."""
        interp = self.interp
        runtime = self.runtime
        stats = runtime.stats
        earliest: Optional[Tuple[int, Misspeculation]] = None
        for report in reports:
            worker = runtime.workers[report.wid]
            for rec in report.records:
                if earliest is not None and rec.iteration > earliest[0]:
                    break
                t0 = worker.clock
                stats.apply_counter_delta(rec.stats_delta)
                interp.cycles += rec.cycles
                interp.steps += rec.steps
                worker.clock += rec.cycles
                if rec.misspec is not None:
                    kind, detail, exc_iter, injected, from_fault = rec.misspec
                    exc = Misspeculation(kind, detail, exc_iter)
                    exc.context = rec.misspec_context
                    runtime.record_misspeculation(exc, injected=injected)
                    if earliest is None or rec.iteration < earliest[0]:
                        earliest = (rec.iteration, exc)
                    if self.timeline is not None and not from_fault:
                        self.timeline.add("misspec", worker.wid, t0,
                                          worker.clock, exc.kind)
                    break
                worker.iterations += 1
                runtime.deferred.absorb(rec.iteration, rec.io)
                inv.useful_cycles += max(0, rec.cycles - rec.validation_cycles)
                if self.timeline is not None:
                    self.timeline.add("iteration", worker.wid, t0,
                                      worker.clock, f"i={rec.iteration}")
        return earliest

    # -- commit-delta sync ----------------------------------------------------

    def _build_commit_delta(self) -> _CommitDelta:
        """Read the last checkpoint's committed content back out of the
        parent's main memory (freed/worker-local extents are skipped by
        ``covering_pieces``, matching what the merge skipped)."""
        spans, redux_spans = self._resident.commit
        ms = self.runtime.main_space
        pb = self.runtime.private_base
        delta = _CommitDelta()
        for start, end in spans:
            for s, e, obj in ms.covering_pieces(pb + start, end - start):
                delta.private_runs.append(
                    (s - pb, bytes(obj.data[s - obj.base:e - obj.base])))
        for start, end in redux_spans:
            for s, e, obj in ms.covering_pieces(start, end - start):
                delta.redux_runs.append(
                    (s, bytes(obj.data[s - obj.base:e - obj.base])))
        return delta

    def _build_sync(self, frame: Frame, resident: _Resident
                    ) -> Tuple[Optional[_PoolSync], Optional[str]]:
        """The sync that brings the resident children up to the
        parent's image, or the reason the pool must be forked again
        instead: ``(sync, None)`` or ``(None, reason)``."""
        for child in self._children:
            try:
                # Nothing is owed on a report pipe between epochs: a
                # read either would block or meets the end of a child
                # that died (mid-epoch, or killed while it was idle).
                os.read(child.rfd, 1)
                return None, "child_died"
            except BlockingIOError:
                pass
        runtime = self.runtime
        interp = self.interp
        pb = runtime.private_base
        spans, redux_spans = resident.commit or ((), ())
        # The checkpoint's merge and fold wrote ``data`` directly.
        also = [(pb + start, pb + end) for start, end in spans]
        also.extend(redux_spans)
        main = runtime.main_space.take_changes(also, SYNC_MAX_BYTES)
        if main is None:
            return None, "oversize"
        blocks = frame.function.blocks
        undefined = [i for i, v in enumerate(frame.slots) if v is _UNDEF]
        slots = list(frame.slots)
        for i in undefined:
            slots[i] = 0
        return _PoolSync(
            invocation_index=runtime.invocation_index,
            main=main,
            frame=(frame.function.name, blocks.index(frame.block),
                   -1 if frame.prev_block is None
                   else blocks.index(frame.prev_block),
                   frame.index, slots, undefined),
            interp=(interp.prng_state, interp.cycles, interp.steps,
                    list(interp.call_context), dict(interp._context_ids)),
        ), None

    @staticmethod
    def _rebuild_fragment(entry: tuple) -> EpochFragment:
        """Parent side: reassemble one worker's fragment from its header
        and packed payload."""
        header, payload = entry
        wid, ep_start, fmt, redux_runs, dirty = header
        rr, wr, er, kinds, values = unpack_fragment_payload(
            memoryview(payload))
        return EpochFragment(
            wid=wid, epoch_start=ep_start, format=fmt,
            read_live_in_runs=rr, write_runs=wr, write_kinds=kinds,
            write_values=values, epoch_written_runs=er,
            redux_runs=redux_runs, dirty_private_pages=dirty)

    # -- pool lifecycle -------------------------------------------------------

    def _spawn_pool(self, frame: Frame, reason: str) -> None:
        """(Re)fork the pool from the current parent image.  Each child
        inherits everything by COW: worker overlays, shadows, reduction
        copies, the loop frame — the persistent-worker starting state.
        ``reason`` is why no sync would do (``pool.respawns.<reason>``)."""
        self._teardown_children()
        wids_of = [list(range(c, self.workers, self.pool_size))
                   for c in range(self.pool_size)]
        sys.stdout.flush()
        sys.stderr.flush()
        for cwid in range(self.pool_size):
            fds = list(os.pipe())
            try:
                fds += os.pipe()
                task_rfd, task_wfd, rfd, wfd = fds
                pid = os.fork()
            except OSError:
                # EMFILE/EAGAIN on a loaded host: the children forked so
                # far are on self._children, so run()'s shutdown reaps
                # them; only this iteration's pipe ends are ours to close.
                for fd in fds:
                    os.close(fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(rfd)
                    os.close(task_wfd)
                    # fd hygiene: drop inherited ends that belong to
                    # the parent <-> earlier-sibling channels.
                    for prev in self._children:
                        for fd in (prev.rfd, prev.task_wfd):
                            try:
                                os.close(fd)
                            except OSError:
                                pass
                    self._child_main(cwid, wids_of[cwid], frame,
                                     task_rfd, wfd)
                    status = 0
                except BaseException:
                    try:
                        _write_frame(wfd, pickle.dumps(
                            _ChildFailure(wids_of[cwid][0],
                                          traceback.format_exc()),
                            protocol=pickle.HIGHEST_PROTOCOL))
                    except BaseException:
                        pass
                finally:
                    for fd in (wfd, task_rfd):
                        try:
                            os.close(fd)
                        except OSError:
                            pass
                    # Never run parent atexit/flush machinery in the
                    # forked interpreter image.
                    os._exit(status)
            os.close(wfd)
            os.close(task_rfd)
            os.set_blocking(rfd, False)
            # Registered as forked, not after the loop: a later fork()
            # that raises must leave every live child reachable.
            self._children.append(_PoolChild(cwid=cwid, pid=pid, rfd=rfd,
                                             task_wfd=task_wfd,
                                             wids=wids_of[cwid]))
        # What main changes from here on is what a later sync carries.
        self.runtime.main_space.track_changes()
        self.pool_respawns[reason] = self.pool_respawns.get(reason, 0) + 1
        if TRACER.enabled:
            METRICS.counter("pool.spawns").inc()
            METRICS.counter(f"pool.respawns.{reason}").inc()
        log.info("pool spawned (%s): %d process(es) for %d worker(s), "
                 "invocation %d", reason, self.pool_size, self.workers,
                 self.runtime.invocation_index)

    def _drain_pool(self, payloads: Dict[int, WorkerEpochReport]
                    ) -> Tuple[Dict[int, object], List[_PoolChild]]:
        """Read exactly one length-prefixed reply frame per live child
        within the epoch deadline.  EOF means the child died mid-epoch;
        the caller turns that into a squash.  Reports are recorded into
        ``payloads`` as they arrive so telemetry survives failures."""
        deadline = time.monotonic() + self.epoch_timeout
        waiting = {child.rfd: child for child in self._children}
        buffers: Dict[int, bytearray] = {fd: bytearray() for fd in waiting}
        replies: Dict[int, object] = {}
        dead: List[_PoolChild] = []
        sel = selectors.DefaultSelector()
        for fd in waiting:
            sel.register(fd, selectors.EVENT_READ)
        try:
            while waiting:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    wids = sorted(w for child in waiting.values()
                                  for w in child.wids)
                    raise RuntimeError(
                        f"pool backend: worker(s) {wids} did not report "
                        f"within {self.epoch_timeout:.0f}s (deadlocked "
                        f"or wedged pool)")
                for key, _events in sel.select(timeout=remaining):
                    fd = key.fd
                    if fd not in waiting:
                        continue
                    try:
                        chunk = os.read(fd, 1 << 20)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        child = waiting.pop(fd)
                        sel.unregister(fd)
                        dead.append(child)
                        continue
                    buf = buffers[fd]
                    buf.extend(chunk)
                    if len(buf) < _LEN.size:
                        continue
                    (length,) = _LEN.unpack(bytes(buf[:_LEN.size]))
                    if len(buf) < _LEN.size + length:
                        continue
                    child = waiting.pop(fd)
                    sel.unregister(fd)
                    reply = pickle.loads(
                        bytes(buf[_LEN.size:_LEN.size + length]))
                    replies[child.cwid] = reply
                    if isinstance(reply, _PoolReply):
                        for report in reply.reports:
                            payloads[report.wid] = report
        finally:
            sel.close()
        return replies, dead

    def _teardown_children(self) -> None:
        """SIGKILL and reap every resident child and release the
        parent-side channel resources."""
        children, self._children = self._children, []
        self._resident = None
        if not children:
            return
        self._kill_pool({child.cwid: child.pid for child in children})
        for child in children:
            for fd in (child.rfd, child.task_wfd):
                try:
                    os.close(fd)
                except OSError:
                    pass

    @staticmethod
    def _kill_pool(pids: Dict[int, int]) -> None:
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in pids.values():
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass

    # -- child side -----------------------------------------------------------

    def _child_main(self, cwid: int, wids: List[int], frame: Frame,
                    task_rfd: int, wfd: int) -> None:
        """Resident child loop: wait for epoch plans on the task pipe,
        run the hosted worker slices, ship replies.  Runs until killed
        (or the task pipe closes)."""
        if hasattr(os, "sched_setaffinity"):
            # A pool on dedicated cores: process c gets the (c mod n)-th
            # CPU of the mask it inherited.  Left alone, two children
            # woken from one core share it for most of a ~10 ms epoch.
            cpus = sorted(os.sched_getaffinity(0))
            try:
                os.sched_setaffinity(0, {cpus[cwid % len(cpus)]})
            except OSError as e:
                log.debug("pool process %d: not pinned (%s)", cwid, e)
        while True:
            data = _read_frame(task_rfd)
            if data is None:
                return
            plan = pickle.loads(data)
            reply = self._child_epoch(cwid, wids, frame, plan)
            _write_frame(wfd, pickle.dumps(
                reply, protocol=pickle.HIGHEST_PROTOCOL))

    def _child_epoch(self, cwid: int, wids: List[int], frame: Frame,
                     plan: _PoolEpoch) -> _PoolReply:
        """Execute one epoch plan for every hosted worker id."""
        runtime = self.runtime
        if plan.sync is not None:
            self._child_apply_sync(frame, plan)
        elif plan.commit is not None:
            self._child_apply_commit(wids, plan.commit)
        runtime.epoch_start = plan.epoch_start
        reply = _PoolReply(cwid=cwid)
        for w in wids:
            worker = runtime.workers[w]
            report = self._child_slice(worker, frame, plan.epoch_start,
                                       plan.epoch_end, plan.init)
            reply.payloads.append(self._child_ship_fragment(report))
            reply.reports.append(report)
        # Bound resident-child memory: shipped trace events and deferred
        # output are authoritative parent-side.
        if TRACER.enabled:
            del TRACER.events[:]
        runtime.deferred = DeferredOutput()
        return reply

    def _child_slice(self, worker: WorkerState, frame: Frame,
                     epoch_start: int, epoch_end: int,
                     init: int) -> WorkerEpochReport:
        """Run one worker's slice of the epoch (inside the forked child)
        and build its report."""
        interp = self.interp
        runtime = self.runtime
        stats = runtime.stats
        telemetry = TRACER.enabled
        trace_mark = len(TRACER.events) if telemetry else 0
        if telemetry:
            # Fresh worker-local registry: the fork inherited the
            # parent's tallies by COW; this slice ships only what it
            # records itself, and the parent re-homes the shipped dump
            # under ``worker.<wid>.*``.
            METRICS.reset()
        t_begin = time.perf_counter()
        span = TRACER.span("backend.worker_epoch", cat="backend",
                           tid=worker.wid + 1, worker=worker.wid,
                           epoch_start=epoch_start, epoch_end=epoch_end)
        interp.space = worker.space
        if worker.frame is None:
            worker.frame = frame.copy()
        interp.swap_stack([worker.frame])
        records: List[IterationRecord] = []
        workers = self.workers
        misspeculated = False
        for i in range(epoch_start, epoch_end):
            if i % workers != worker.wid:
                continue
            c0 = interp.cycles
            s0 = interp.steps
            v0 = stats.validation_cycles()
            k0 = stats.counter_snapshot()
            misspec: Optional[Tuple[str, str, int, bool, bool]] = None
            misspec_context: Optional[Dict[str, object]] = None
            try:
                self._execute_iteration(worker, i, init)
                if self._inject_misspec(i):
                    raise self._injected_misspec(worker, i)
            except Misspeculation as exc:
                runtime.capture_conflict_context(worker, exc)
                misspec = (exc.kind, exc.detail, exc.iteration,
                           exc.kind == "injected", False)
                misspec_context = exc.context
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
                misspec_context=misspec_context,
            ))
            if misspec is not None:
                misspeculated = True
                break
        fragment = (None if misspeculated
                    else runtime.extract_fragment(worker, epoch_start))
        span.end(iterations=len(records), misspeculated=misspeculated)
        metrics: Dict[str, Dict[str, object]] = {}
        if telemetry:
            # Per-worker utilization counters for the live dashboard,
            # alongside whatever the slice itself recorded (shadow
            # traffic, separation checks, interpreter tallies ...).
            METRICS.counter("epoch.slices").inc()
            METRICS.counter("epoch.iterations").inc(len(records))
            METRICS.counter("epoch.busy_us").inc(
                round((time.perf_counter() - t_begin) * 1e6))
            if misspeculated:
                METRICS.counter("epoch.misspeculations").inc()
            metrics = METRICS.dump()
        events = ([dict(ev) for ev in TRACER.events[trace_mark:]]
                  if telemetry else [])
        return WorkerEpochReport(wid=worker.wid, records=records,
                                 fragment=fragment, trace_events=events,
                                 metrics=metrics)

    def _child_apply_commit(self, wids: List[int],
                            commit: _CommitDelta) -> None:
        """Apply the parent's checkpoint outcome to this child's image:
        patch main memory with the committed content, then perform the
        same per-worker reset the parent's checkpoint did, so resident
        workers enter the next epoch exactly like simulated ones."""
        runtime = self.runtime
        ms = runtime.main_space
        pb = runtime.private_base
        for off, blob in commit.private_runs:
            ms.patch(pb + off, blob)
        for addr, blob in commit.redux_runs:
            ms.patch(addr, blob)
        for w in wids:
            worker = runtime.workers[w]
            worker.shadow.reset_after_checkpoint()
            worker.shadow.mark_old_write_runs(
                self._child_prev_spans.get(w, []))
            worker.reset_epoch_tracking()
            runtime._reset_worker_redux(worker)

    def _child_apply_sync(self, frame: Frame, plan: _PoolEpoch) -> None:
        """Make this child's image the one a fork at this point would
        have inherited: main memory, the loop frame (``frame``, updated
        in place: the child's one copy of it) and the interpreter's
        scalars from the sync, then fresh worker states by the
        runtime's own re-fork path."""
        sync = plan.sync
        interp = self.interp
        name, block, prev, index, slots, undefined = sync.frame
        for i in undefined:
            slots[i] = _UNDEF
        blocks = self.module.function_named(name).blocks
        frame.block = blocks[block]
        frame.prev_block = None if prev < 0 else blocks[prev]
        frame.index = index
        frame.slots[:] = slots
        (interp.prng_state, interp.cycles, interp.steps,
         interp.call_context, interp._context_ids) = sync.interp
        self.runtime.resync_workers(sync.invocation_index, plan.epoch_start,
                                    sync.main)

    def _child_ship_fragment(self, report: WorkerEpochReport
                             ) -> Optional[tuple]:
        """Pack one slice's fragment payload for the reply and strip the
        fragment from the report, leaving only the small header to
        pickle beside the packed bytes."""
        frag = report.fragment
        if frag is None:
            return None
        self._child_prev_spans[frag.wid] = frag.write_spans()
        payload = bytearray(payload_size(
            len(frag.read_live_in_runs), len(frag.write_runs),
            len(frag.epoch_written_runs), len(frag.write_kinds),
            len(frag.write_values)))
        pack_fragment_payload(
            payload, 0, frag.read_live_in_runs, frag.write_runs,
            frag.epoch_written_runs, frag.write_kinds, frag.write_values)
        header = (frag.wid, frag.epoch_start, frag.format,
                  frag.redux_runs, frag.dirty_private_pages)
        report.fragment = None
        return (header, payload)
