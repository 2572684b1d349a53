"""The resident children of a team of more than one process: fork,
pipes, sync and the child loop.

An executor (:class:`~repro.parallel.backend.DOALLExecutor`) whose team
size P is above 1 holds a :class:`Pool`: P - 1 children, forked once per
run and resident across epochs, recoveries and invocations, that host
workers 1 .. n-1 round-robin; the parent is process 0 and hosts worker
0.  Each epoch the executor hands the children the plan
(:meth:`Pool.ship`), runs worker 0's slice while they run theirs by the
same slice loop (:meth:`DOALLExecutor._run_slice`), then drains their
replies (:meth:`Pool.collect`) — per hosted worker one
:class:`~repro.parallel.backend.IterationRecord` per executed
iteration, the :class:`~repro.runtime.fragments.EpochFragment` iff the
slice completed cleanly, and its trace events and metrics — and
accounts them after worker 0's, from the earliest-misspeculation cut it
left.  docs/BACKENDS.md is the end-to-end guide; section pointers below.

Lifecycle (docs/BACKENDS.md §"pool lifecycle"):

* The children are forked **lazily at the first epoch of the run**,
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
  workers are byte-for-byte the simulated persistent workers.
* Whenever main ran behind the children's back — a squash and its
  sequential recovery, an adaptive sequential span, the code between
  two invocations — the runtime has replaced its worker states
  (:meth:`RuntimeSystem.refork_workers`), and the next plan carries a
  **sync** (:class:`_PoolSync`) instead: that record plus the loop
  frame.  Each child applies it to its copy of main while none of its
  overlays is in use and then re-forks its worker states through the
  runtime's own path (:meth:`RuntimeSystem.resync_workers`).
* The children are forked again only for what a sync cannot express,
  each counted under ``pool.respawns.<reason>``: there is no pool yet
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
respawns the children at the next epoch (a child found dead before a
sync is sent — killed between two invocations, say — costs the respawn
alone).  A wedged child still hits the :data:`EPOCH_TIMEOUT` deadline
and fails the run loudly.  The children are killed and reaped on the
way out of :meth:`DOALLExecutor.run`, clean or not.
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
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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
from .backend import BackendError, WorkerEpochReport, _absorb_slice
from .shm_ring import (
    pack_fragment_payload,
    payload_size,
    unpack_fragment_payload,
)

if TYPE_CHECKING:
    from .backend import DOALLExecutor

log = get_logger("pool_backend")

#: Length prefix for pipe frames: one unsigned 64-bit little-endian int.
_LEN = struct.Struct("<Q")

#: Wall-clock budget per epoch before the children are killed and the
#: run fails.
EPOCH_TIMEOUT = 300.0

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
    they were sent; None on the pool while it has no children."""

    #: The parent's ``runtime.workers`` their worker states mirror.  The
    #: runtime replaces the list exactly when main has run behind them
    #: (new invocation, recovery, sequential span): identity is the test.
    workers: List[WorkerState]
    invocation: int
    #: The address ranges a commit they have not been told of yet wrote
    #: into main's ``data`` directly (merge and fold): the ``also`` of
    #: the next change record, a commit's or a sync's.
    commit: Optional[List[Tuple[int, int]]] = None


class Pool:
    """The P - 1 resident children of an executor's team of P > 1
    processes, and the parent's end of their pipes."""

    def __init__(self, executor: "DOALLExecutor"):
        self.executor = executor
        #: Forks by reason: ``no_pool`` (one per run), ``child_died``,
        #: ``oversize``.
        self.respawns: Dict[str, int] = {}
        #: Syncs sent: plans that brought resident children up to date
        #: with a stretch main ran, where a fork used to.
        self.syncs = 0
        self.children: List[_PoolChild] = []
        self._resident: Optional[_Resident] = None
        #: Child-side: previous epoch's write spans per hosted wid (for
        #: the post-commit worker reset).
        self._prev_spans: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def spawns(self) -> int:
        """Times the children were forked — 1 per run unless a reason of
        ``respawns`` other than ``no_pool`` came up."""
        return sum(self.respawns.values())

    # -- epoch execution ------------------------------------------------------

    def ship(self, frame: Frame, epoch_start: int, epoch_end: int,
             init: int) -> None:
        """Hand every child the plan of ``[epoch_start, epoch_end)``,
        bringing it up to date with main first: the last commit's change
        record, a sync, or a fork."""
        runtime = self.executor.runtime
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
            self._spawn(frame, respawn)
        self._resident = _Resident(runtime.workers, runtime.invocation_index)
        blob = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        if plan.sync is not None:
            self.syncs += 1
            if TRACER.enabled:
                METRICS.counter("pool.syncs").inc()
                METRICS.counter("pool.sync_bytes").inc(len(blob))
        for child in self.children:
            try:
                _write_frame(child.task_wfd, blob)
            except BrokenPipeError:
                # Child already dead: collect() sees EOF on its report
                # pipe and the epoch is squashed + the pool respawned.
                pass

    def collect(self, epoch_start: int, epoch_end: int
                ) -> Tuple[List[WorkerEpochReport],
                           Optional[Tuple[int, Misspeculation]]]:
        """The children's reports of the epoch in worker order, their
        fragments rebuilt, and the fault misspeculation a child's death
        turns into (None if none died), each survivor's records past it
        dropped: a simulated scheduler would cut them there, and they
        are squashed anyway.

        A deadline, protocol failure or a child's error kills the pool,
        but keeps the telemetry that already crossed the pipe, so the
        Chrome export still shows the partial epoch; then it raises."""
        payloads: Dict[int, WorkerEpochReport] = {}
        try:
            replies, dead = self._drain(payloads)
            for reply in replies.values():
                if isinstance(reply, _ChildFailure):
                    raise RuntimeError(
                        f"pool worker process {reply.wid} failed during "
                        f"epoch [{epoch_start},{epoch_end}):\n{reply.error}")
        except BaseException:
            self.teardown()
            for wid in sorted(payloads):
                _absorb_slice(wid, payloads[wid].trace_events,
                              payloads[wid].metrics)
            raise
        for reply in replies.values():
            for report, entry in zip(reply.reports, reply.payloads):
                if entry is not None:
                    report.fragment = self._rebuild_fragment(entry)
        reports = [payloads[wid] for wid in sorted(payloads)]
        if not dead:
            return reports, None
        death = self._synthesize_death(dead, epoch_start, epoch_end)
        for report in reports:
            report.records = [r for r in report.records
                              if r.iteration <= death[0]]
        return reports, death

    def committed(self, fragments: List[Optional[EpochFragment]],
                  epoch_start: int, epoch_end: int) -> None:
        """Note the spans the commit of a clean epoch's ``fragments``
        writes into main directly (merge and fold): the next plan's
        change record carries them."""
        if len(fragments) != self.executor.workers or None in fragments:
            raise RuntimeError(
                f"pool: clean epoch [{epoch_start},{epoch_end}) is "
                f"missing fragments ({len(fragments)} reports for "
                f"{self.executor.workers} workers)")
        pb = self.executor.runtime.private_base
        commit = [(pb + start, pb + end) for start, end in
                  union_runs([f.write_spans() for f in fragments])]
        commit += union_runs([f.redux_spans() for f in fragments])
        self._resident.commit = commit

    def _synthesize_death(self, dead: List[_PoolChild], epoch_start: int,
                          epoch_end: int) -> Tuple[int, Misspeculation]:
        """Turn mid-epoch child death into a standard squash: a fault
        misspeculation at the dead workers' first iteration of the
        epoch (the epoch cannot commit without their fragments)."""
        dead_wids = sorted(w for child in dead for w in child.wids)
        log.warning("pool worker(s) %s (pid %s) died during epoch "
                    "[%d,%d); squashing and respawning",
                    dead_wids, [c.pid for c in dead], epoch_start,
                    epoch_end)
        if TRACER.enabled:
            METRICS.counter("pool.worker_deaths").inc(len(dead))
        workers = self.executor.workers
        death_iter = next(
            (i for i in range(epoch_start, epoch_end)
             if i % workers in dead_wids), epoch_start)
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
        for child in self.children:
            try:
                # Nothing is owed on a report pipe between epochs: a
                # read either would block or meets the end of a child
                # that died (mid-epoch, or killed while it was idle).
                os.read(child.rfd, 1)
                return None, "child_died"
            except BlockingIOError:
                pass
        runtime = self.executor.runtime
        interp = self.executor.interp
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

    def _spawn(self, frame: Frame, reason: str) -> None:
        """(Re)fork the children from the current parent image.  Each child
        inherits everything by COW: worker overlays, shadows, reduction
        copies, the loop frame — the persistent-worker starting state.
        ``reason`` is why no sync would do (``pool.respawns.<reason>``)."""
        if not hasattr(os, "fork"):
            raise BackendError(
                "a team of more than one process requires os.fork "
                "(POSIX); use --processes 1 on this platform")
        self.teardown()
        # The parent is process 0 and hosts worker 0; children 1 .. P-1
        # host workers 1 .. n-1 round-robin.
        ex = self.executor
        children = ex.processes - 1
        wids_of = {c: list(range(c, ex.workers, children))
                   for c in range(1, ex.processes)}
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
                # far are on self.children, so run()'s shutdown reaps
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
                    for prev in self.children:
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
            self.children.append(_PoolChild(cwid=cwid, pid=pid, rfd=rfd,
                                             task_wfd=task_wfd,
                                             wids=wids_of[cwid]))
        # What main changes from here on is what a later sync carries.
        ex.runtime.main_space.track_changes()
        self.respawns[reason] = self.respawns.get(reason, 0) + 1
        if TRACER.enabled:
            METRICS.counter("pool.spawns").inc()
            METRICS.counter(f"pool.respawns.{reason}").inc()
        log.info("pool spawned (%s): %d child process(es) for %d "
                 "worker(s), invocation %d", reason, children, ex.workers,
                 ex.runtime.invocation_index)

    def _drain(self, payloads: Dict[int, WorkerEpochReport]
               ) -> Tuple[Dict[int, object], List[_PoolChild]]:
        """Read exactly one length-prefixed reply frame per live child
        within the epoch deadline.  EOF means the child died mid-epoch;
        :meth:`collect` turns that into a squash.  Reports are recorded into
        ``payloads`` as they arrive so telemetry survives failures."""
        deadline = time.monotonic() + EPOCH_TIMEOUT
        waiting = {child.rfd: child for child in self.children}
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
                        f"within {EPOCH_TIMEOUT:.0f}s (deadlocked "
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

    def teardown(self) -> None:
        """SIGKILL and reap every resident child and release the
        parent-side channel resources."""
        children, self.children = self.children, []
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
        ex = self.executor
        runtime = ex.runtime
        if plan.sync is not None:
            self._child_apply_sync(frame, plan)
        elif plan.commit is not None:
            runtime.main_space.apply_changes(plan.commit)
            for w in wids:
                runtime.reset_worker_after_commit(runtime.workers[w],
                                                  self._prev_spans[w])
        runtime.epoch_start = plan.epoch_start
        reply = _PoolReply(cwid=cwid)
        for w in wids:
            report = ex._run_slice(runtime.workers[w], frame,
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
        ex = self.executor
        interp = ex.interp
        name, block, prev, index, slots, undefined = sync.frame
        for i in undefined:
            slots[i] = _UNDEF
        blocks = ex.module.function_named(name).blocks
        frame.block = blocks[block]
        frame.prev_block = None if prev < 0 else blocks[prev]
        frame.index = index
        frame.slots[:] = slots
        (interp.prng_state, interp.cycles, interp.steps,
         interp.call_context, interp._context_ids) = sync.interp
        ex.runtime.resync_workers(sync.invocation_index, plan.epoch_start,
                                  sync.main)

    def _child_ship_fragment(self, report: WorkerEpochReport
                             ) -> Optional[tuple]:
        """Pack one slice's fragment payload for the reply and strip the
        fragment from the report, leaving only the small header to
        pickle beside the packed bytes."""
        frag = report.fragment
        if frag is None:
            return None
        self._prev_spans[frag.wid] = frag.write_spans()
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
