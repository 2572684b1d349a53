"""Persistent worker-pool DOALL backend: long-lived worker processes.

The real-parallel backend, and the paper's runtime shape with the spawn
paid once.  The pool is a team in the OpenMP sense: the parent that
reaches the parallel region is pool process 0 and hosts worker 0, and
``--pool-workers P`` (default: one process per worker) counts it, so
P - 1 children are forked once per :meth:`PoolDOALLExecutor.run`, stay
resident across epochs, recoveries and invocations, and host workers
1 .. n-1 round-robin.  :class:`PoolDOALLExecutor` is the simulated
backend's :class:`~repro.parallel.backend.DOALLExecutor` with children:
at each epoch the parent writes the epoch plan to the children and runs
worker 0's slice in-process while they run theirs, every one of them
by the simulated backend's own slice loop
(:meth:`DOALLExecutor._run_slice`) on its own private/reduction heap
replicas.  A child ships back, per hosted worker, the slice's one
:class:`~repro.parallel.backend.IterationRecord` per executed
iteration, its :class:`~repro.runtime.fragments.EpochFragment` iff it
completed cleanly, and any trace events and metrics it recorded.  The
parent drains all report pipes concurrently (``selectors``), then
accounts every report — worker 0's first, then the children's in worker
order — by the simulated backend's own accounting
(:meth:`DOALLExecutor._account_slices`) with the earliest-misspeculation
cut seeded by worker 0's result: in the simulated order worker 0 always
runs first, uncut, so its in-process run *is* the simulated run and the
accounting reproduces the simulated scheduler exactly.  The fragments
then go to the shared :meth:`RuntimeSystem.checkpoint` commit path.
Phase-two validation, merge, reduction folding, deferred-I/O commit,
squash and sequential recovery therefore all run in the parent,
identically to the simulated backend; the parity suite asserts equality
of final memory, ``RuntimeStats``, misspeculation counts and the
accounted records.  P = 1 forks nothing: the pool with no children is
the simulated backend, and runs its epochs.
docs/BACKENDS.md is the end-to-end guide; section pointers below.

Lifecycle (docs/BACKENDS.md §"pool lifecycle"):

* Pool children are forked **lazily at the first epoch of the run**,
  inheriting the whole parent image by copy-on-write — worker COW
  overlays, replica shadows, reduction copies and the loop frame —
  exactly the state a persistent simulated worker starts from.  From
  that fork on the parent's main space records what changes in it
  (:meth:`AddressSpace.track_changes`).  Worker 0's state is the
  parent's own and never leaves it.
* Each epoch plan (:class:`_PoolEpoch`) arrives over a per-child task
  pipe.  Main's changes reach the children in one form, the **change
  record** of :meth:`AddressSpace.take_changes`: what main changed by
  value, the spans the last checkpoint merged and folded into it
  included.  After a *clean* epoch the plan carries that record alone
  (``commit``); the child applies it and performs the parent's
  post-commit worker reset
  (:meth:`RuntimeSystem.reset_worker_after_commit`), so the resident
  workers are byte-for-byte the simulated backend's persistent workers.
* Whenever main ran behind the children's back — a squash and its
  sequential recovery, an adaptive sequential span, the code between
  two invocations — the runtime has replaced its worker states
  (:meth:`RuntimeSystem.refork_workers`), and the next plan carries a
  **sync** (:class:`_PoolSync`) instead: that record plus the loop
  frame.  Each child applies it to its copy of main while none of its
  overlays is in use and then re-forks its worker states through the
  runtime's own path (:meth:`RuntimeSystem.resync_workers`).
* The pool is forked again only for what a sync cannot express, each
  counted under ``pool.respawns.<reason>``: there is no pool yet
  (``no_pool``), a child is dead (``child_died``), or the stretch
  changed more than :data:`SYNC_MAX_BYTES` (``oversize``).

Fragment transport (docs/BACKENDS.md §"transport formats"): worker 0's
fragment is never packed; each child's report pipe carries one pickled
:class:`_PoolReply` per epoch:
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
per-worker Chrome lanes, partial-epoch absorption) relies on; the
slices the parent runs itself record their telemetry apart and are
absorbed the same way (:meth:`DOALLExecutor._account_slices`).

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
from ..interp.errors import Misspeculation
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
    DOALLExecutor,
    WorkerEpochReport,
    _absorb_slice,
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
class _PoolSync:
    """What main did behind the resident children's backs, by value:
    everything of the parent image a child's slice reads that a fork at
    this point would have inherited and a fork before it did not."""

    #: The runtime's ``invocation_index``.  Whether it moved since the
    #: children's last plan or this is a resume inside the invocation
    #: makes no difference to what they do (the ``backend.sync`` span
    #: says which).
    invocation_index: int
    #: The change record of main (:meth:`AddressSpace.take_changes`):
    #: layout and contents, the last commit's spans included.
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
    #: The change record of main after the previous epoch's commit,
    #: when the children saw that epoch run.
    commit: Optional[tuple] = None
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
    #: The address ranges a commit they have not been told of yet wrote
    #: into main's ``data`` directly (merge and fold): the ``also`` of
    #: the next change record, a commit's or a sync's.
    commit: Optional[List[Tuple[int, int]]] = None


class PoolDOALLExecutor(DOALLExecutor):
    """DOALL backend with persistent pool workers: the simulated
    backend with P - 1 children."""

    backend_name = "pool"
    #: Kept for ``perfbench``: fragments no longer have a second
    #: transport to overflow into.
    ring_overflows = 0

    def __init__(self, *args, epoch_timeout: float = DEFAULT_EPOCH_TIMEOUT,
                 pool_workers: Optional[int] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.epoch_timeout = epoch_timeout
        if pool_workers is not None and pool_workers < 1:
            raise BackendError(
                f"--pool-workers must be >= 1, got {pool_workers}")
        #: Requested pool size, the parent included; None = one process
        #: per logical worker.
        self.pool_workers = pool_workers
        #: Effective pool size P: the parent, which hosts worker 0, and
        #: P - 1 children.  Fewer processes than logical workers means a
        #: child hosts several worker ids and runs their slices
        #: sequentially — precisely the simulated semantics; P = 1 forks
        #: nothing and runs every worker in the parent.
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
        #: the post-commit worker reset).
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
        if self.pool_size == 1:
            # A pool of one process is the parent alone: the simulated
            # backend.
            return super()._execute_epoch(frame, inv, epoch_start,
                                          epoch_end, init)
        runtime = self.runtime
        plan = _PoolEpoch(epoch_start, epoch_end, init)
        resident = self._resident
        if resident is None:
            respawn = "no_pool"
        elif (resident.workers is runtime.workers
              and resident.commit is not None):
            # Only the last commit changed main since the last plan.
            plan.commit = runtime.main_space.take_changes(resident.commit)
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

        # Worker 0 runs here while the children run the rest: it comes
        # first in the simulated order, so it runs uncut, and the
        # children's records are cut at its misspeculation.
        payloads: Dict[int, WorkerEpochReport] = {0: self._run_slice(
            runtime.workers[0], frame, epoch_start, epoch_end, init)}
        try:
            replies, dead = self._drain_pool(payloads)
            for reply in replies.values():
                if isinstance(reply, _ChildFailure):
                    raise RuntimeError(
                        f"pool worker process {reply.wid} failed during "
                        f"epoch [{epoch_start},{epoch_end}):\n{reply.error}")
        except BaseException:
            # Deadline, protocol failure or a child's error: kill the
            # pool, but keep the telemetry that already crossed the
            # pipe, so the Chrome export still shows the partial epoch.
            self._teardown_children()
            for wid in sorted(payloads):
                _absorb_slice(wid, payloads[wid].trace_events,
                              payloads[wid].metrics)
            raise
        for reply in replies.values():
            for report, entry in zip(reply.reports, reply.payloads):
                if entry is not None:
                    report.fragment = self._rebuild_fragment(entry)

        reports = [payloads[wid] for wid in sorted(payloads)]
        death = None
        if dead:
            dead_wids = sorted(w for child in dead for w in child.wids)
            death = self._synthesize_death(dead, dead_wids, epoch_start,
                                           epoch_end)
            # Iterations a simulated scheduler would cut at the death
            # point were executed speculatively by survivors; drop them
            # before they are accounted (they are squashed anyway).
            for report in reports[1:]:
                report.records = [r for r in report.records
                                  if r.iteration <= death[0]]

        earliest = self._account_slices(reports[:1], inv)
        earliest = self._account_slices(reports[1:], inv, earliest,
                                        shipped=True)
        if death is not None:
            self.runtime.record_misspeculation(death[1])
            if earliest is None or death[0] < earliest[0]:
                earliest = death
        if earliest is not None:
            return earliest, None

        fragments = [r.fragment for r in reports]
        if len(fragments) != self.workers or None in fragments:
            raise RuntimeError(
                f"pool backend: clean epoch [{epoch_start},{epoch_end}) "
                f"is missing fragments ({len(reports) - 1}/"
                f"{self.workers - 1} child reports)")
        pb = runtime.private_base
        resident.commit = [(pb + start, pb + end) for start, end in
                           union_runs([f.write_spans() for f in fragments])]
        resident.commit += union_runs([f.redux_spans() for f in fragments])
        return None, fragments

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

    # -- sync -----------------------------------------------------------------

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
        main = runtime.main_space.take_changes(resident.commit or (),
                                               SYNC_MAX_BYTES)
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
        if not hasattr(os, "fork"):
            raise BackendError(
                "the pool backend requires os.fork (POSIX); "
                "use --backend simulated on this platform")
        self._teardown_children()
        # The parent is pool process 0 and hosts worker 0; children
        # 1 .. P-1 host workers 1 .. n-1 round-robin.
        children = self.pool_size - 1
        wids_of = {c: list(range(c, self.workers, children))
                   for c in range(1, self.pool_size)}
        sys.stdout.flush()
        sys.stderr.flush()
        for cwid in wids_of:
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
        log.info("pool spawned (%s): %d child process(es) for %d "
                 "worker(s), invocation %d", reason, children, self.workers,
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
            # A pool on dedicated cores: child c (1 .. P-1; the parent
            # is process 0 and keeps its mask) gets the (c mod n)-th CPU
            # of the mask it inherited.  Left alone, two children woken
            # from one core share it for most of a ~10 ms epoch.
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
            runtime.main_space.apply_changes(plan.commit)
            for w in wids:
                runtime.reset_worker_after_commit(runtime.workers[w],
                                                  self._child_prev_spans[w])
        runtime.epoch_start = plan.epoch_start
        reply = _PoolReply(cwid=cwid)
        for w in wids:
            report = self._run_slice(runtime.workers[w], frame,
                                     plan.epoch_start, plan.epoch_end,
                                     plan.init)
            reply.payloads.append(self._child_ship_fragment(report))
            reply.reports.append(report)
        # Bound resident-child memory: events recorded outside a slice
        # (applying a sync) are never shipped, and deferred output is
        # authoritative parent-side.
        if TRACER.enabled:
            del TRACER.events[:]
        runtime.deferred = DeferredOutput()
        return reply

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
