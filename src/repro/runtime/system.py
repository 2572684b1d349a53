"""The Privateer runtime support system (§5).

Manages the logical heaps, validates speculative separation and privacy,
coordinates checkpoints, and supports recovery.  It plugs into the
interpreter by overriding the runtime intrinsics (``h_alloc``,
``check_heap``, ``private_read`` …) and is driven through its invocation
lifecycle by the DOALL executor (:mod:`repro.parallel.backend`).

Substitutions vs. the paper (see DESIGN.md):

* worker processes + fork/COW  ->  per-worker ``AddressSpace`` overlays;
* mmap page-table tricks for replacement transparency  ->  overlays keep
  every virtual address identical, so transparency holds by construction;
* wall-clock time  ->  deterministic cycle accounting.
"""

from __future__ import annotations

import re
import struct as _struct
from typing import Dict, List, Optional, Tuple

from ..analysis.reduction import REDUCTION_FUNCTIONS, apply_operator
from ..classify.heaps import HeapKind, tag_matches
from ..forensics.explain import summarize_context
from ..forensics.recorder import FlightRecorder
from ..interp.costs import (INTRINSIC_COSTS, PRIVATE_BYTE_COST,
                            REDUX_BYTE_COST, SEPARATION_CHECK_COST)
from ..interp.errors import Misspeculation
from ..interp.interpreter import Interpreter
from ..interp.memory import (AddressSpace, MemoryObject, PAGE_SHIFT,
                             TAG_SHIFT, heap_tag_of)
from ..ir.instructions import BinOpKind
from ..obs.log import get_logger
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from ..transform.plan import ParallelPlan, ReduxObjectPlan
from .fragments import (
    FRAGMENT_FORMAT,
    WRITE_FREED,
    WRITE_LOCAL,
    WRITE_VALUE,
    EpochFragment,
    ReduxElement,
    ReduxRun,
)
from .intervals import IntervalSet, union_runs
from .iodefer import DeferredOutput
from .merge import (
    find_phase2_violation,
    find_phase2_violation_ref,
    merge_fragments,
    merge_fragments_ref,
)
from .shadow import (TS_BASE, ShadowHeap, make_shadow, timestamp_for,
                     use_reference)
from .stats import CheckpointRecord, MisspecEvent, RuntimeStats

log = get_logger("runtime")

#: Checkpoint costing: copying one dirty private page, and the fixed
#: per-worker overhead of acquiring/joining a checkpoint object.
CHECKPOINT_PAGE_COST = 600
CHECKPOINT_FIXED_COST = 1200
CHECKPOINT_BYTE_COST = 1

#: Address tag -> heap, for the per-access checks; anything else still
#: goes to the enum's constructor, which rejects it.
_HEAP_KINDS = {int(kind): kind for kind in HeapKind}

#: Registry counter -> the ``RuntimeStats`` field it publishes.  The
#: validation intrinsics and their inline bodies count into the stats
#: alone; the parent publishes them (:meth:`RuntimeSystem.publish_counters`).
PUBLISHED_COUNTERS = {
    "runtime.separation_checks": "separation_checks",
    "runtime.shadow.bytes_read": "private_read_bytes",
    "runtime.shadow.bytes_written": "private_write_bytes",
    "runtime.redux.bytes_updated": "redux_bytes",
}

#: Reduction operator (``BinOpKind`` name) -> the two-argument function
#: :func:`~repro.analysis.reduction.apply_operator` evaluates for it;
#: what the run fold maps over a whole run.  One function for both
#: folds, so they leave the same NaN payloads.
_REDUX_FOLDS = {kind.name: fn for kind, fn in REDUCTION_FUNCTIONS.items()}


class WorkerState:
    """One simulated worker process."""

    def __init__(self, wid: int, parent_space: AddressSpace, shadow_size: int):
        self.wid = wid
        self.space = AddressSpace(parent=parent_space)
        self.shadow = make_shadow(shadow_size)
        self.frame = None  # interpreter Frame, installed by the executor
        self.clock = 0     # simulated cycles, relative to region start
        self.shortlived_live = 0
        #: Reduction-heap addresses updated this epoch.
        self.redux_written = IntervalSet()
        self.redux_copies: Dict[int, Tuple[MemoryObject, ReduxObjectPlan]] = {}


class RuntimeSystem:
    """The speculative runtime (§5): owns the logical heaps, per-worker
    COW replicas and shadow metadata, performs two-phase privacy
    validation, checkpoint commit, reduction merge, deferred I/O, and
    squash/recovery bookkeeping.
    """
    def __init__(self, module, plan: ParallelPlan, interp: Interpreter):
        self.module = module
        self.plan = plan
        self.interp = interp
        self.main_space = interp.space
        self.stats = RuntimeStats()
        self.deferred = DeferredOutput()

        self.speculating = False
        self.workers: List[WorkerState] = []
        self.current_worker: Optional[WorkerState] = None
        self.current_iteration = 0
        #: Shadow timestamp of ``current_iteration`` (begin_iteration).
        self.current_ts = TS_BASE
        self.epoch_start = 0
        self.invocation_index = -1

        self.private_base = HeapKind.PRIVATE.base
        self.redux_base = HeapKind.REDUX.base
        #: Adaptive speculation controller
        #: (:class:`repro.adapt.SpeculationController`); None runs the
        #: fixed policy.  Installed by the executor, fed from
        #: :meth:`record_misspeculation` and :meth:`checkpoint`.
        self.controller = None
        #: Forensic flight recorder (bounded ring; dumped by the executor
        #: only when a misspeculation or crash occurs).
        self.recorder = FlightRecorder()
        self.committed_meta = bytearray()
        #: PUBLISHED_COUNTERS values as last published.
        self._published: Dict[str, int] = {}
        self._protected: List[MemoryObject] = []
        self._default_printf = None
        self._default_puts = None
        self.install()

    # -- intrinsic installation --------------------------------------------

    def install(self) -> None:
        intr = self.interp.intrinsics
        self._default_printf = intr["printf"]
        self._default_puts = intr["puts"]
        intr["h_alloc"] = self._i_h_alloc
        intr["h_dealloc"] = self._i_h_dealloc
        intr["check_heap"] = self._i_check_heap
        intr["private_read"] = self._i_private_read
        intr["private_write"] = self._i_private_write
        intr["redux_update"] = self._i_redux_update
        intr["predict_value"] = self._i_predict_value
        intr["misspec"] = self._i_misspec
        intr["printf"] = self._i_printf
        intr["puts"] = self._i_puts

    # -- heap allocation -----------------------------------------------------

    def _i_h_alloc(self, interp, inst, args):
        size = int(args[0])
        kind = HeapKind(int(args[1]))
        site = inst.meta.get("replaced_site", inst.site_id())
        obj = interp.space.allocate(
            max(size, 1), f"{site}#h", "logical", kind.base, site=site
        )
        interp.notify_alloc(obj, inst)
        if self.speculating and self.current_worker is not None:
            if kind is HeapKind.SHORTLIVED:
                self.current_worker.shortlived_live += 1
        return obj.base

    def _i_h_dealloc(self, interp, inst, args):
        addr = int(args[0])
        if addr == 0:
            return None
        kind = HeapKind(int(args[1])) if len(args) > 1 else None
        if self.speculating and kind is not None and not tag_matches(addr, kind):
            raise Misspeculation(
                "separation", f"h_dealloc expected {kind}, pointer tag is "
                f"{heap_tag_of(addr)}", self.current_iteration)
        obj = interp.space.free(addr)
        interp.notify_free(obj, inst)
        if self.speculating and self.current_worker is not None:
            if kind is HeapKind.SHORTLIVED:
                self.current_worker.shortlived_live -= 1
        return None

    # -- validation intrinsics (§5.1) -------------------------------------------

    def _i_check_heap(self, interp, inst, args):
        if not self.speculating:
            return None
        self.stats.separation_checks += 1
        self.stats.separation_cycles += SEPARATION_CHECK_COST + 4
        addr = int(args[0])
        tag = int(args[1])
        kind = _HEAP_KINDS.get(tag) or HeapKind(tag)
        if not tag_matches(addr, kind):
            raise Misspeculation(
                "separation",
                f"pointer 0x{addr:x} (tag {heap_tag_of(addr)}) is not in "
                f"heap {kind}", self.current_iteration)
        return None

    def _i_private_read(self, interp, inst, args):
        if not self.speculating or self.current_worker is None:
            return None
        addr, size = int(args[0]), int(args[1])
        offset = addr - self.private_base
        if offset < 0:
            raise Misspeculation(
                "separation", f"private_read outside private heap 0x{addr:x}",
                self.current_iteration)
        cost = INTRINSIC_COSTS["private_read"] + PRIVATE_BYTE_COST * size
        interp.cycles += PRIVATE_BYTE_COST * size
        self.stats.private_read_calls += 1
        self.stats.private_read_bytes += size
        self.stats.private_read_cycles += cost
        self.current_worker.shadow.on_read(offset, size, self.current_ts,
                                           self.current_iteration)
        return None

    def _i_private_write(self, interp, inst, args):
        if not self.speculating or self.current_worker is None:
            return None
        addr, size = int(args[0]), int(args[1])
        offset = addr - self.private_base
        if offset < 0:
            raise Misspeculation(
                "separation", f"private_write outside private heap 0x{addr:x}",
                self.current_iteration)
        cost = INTRINSIC_COSTS["private_write"] + PRIVATE_BYTE_COST * size
        interp.cycles += PRIVATE_BYTE_COST * size
        self.stats.private_write_calls += 1
        self.stats.private_write_bytes += size
        self.stats.private_write_cycles += cost
        self.current_worker.shadow.on_write(offset, size, self.current_ts,
                                            self.current_iteration)
        return None

    def _i_redux_update(self, interp, inst, args):
        if not self.speculating or self.current_worker is None:
            return None
        addr, size = int(args[0]), int(args[1])
        self.stats.redux_updates += 1
        self.stats.redux_bytes += size
        self.stats.redux_cycles += (INTRINSIC_COSTS["redux_update"]
                                    + REDUX_BYTE_COST * size)
        interp.cycles += REDUX_BYTE_COST * size
        self.current_worker.redux_written.add_range(addr, addr + size)
        return None

    def _i_predict_value(self, interp, inst, args):
        if not self.speculating:
            return None
        addr, size, expected = int(args[0]), int(args[1]), int(args[2])
        self.stats.predictions_checked += 1
        self.stats.misc_validation_cycles += 4
        actual = interp.space.read_int(addr, size, signed=False)
        mask = (1 << (size * 8)) - 1
        if actual != (expected & mask):
            raise Misspeculation(
                "value", f"predicted {expected & mask:#x} at 0x{addr:x}, "
                f"found {actual:#x}", self.current_iteration)
        return None

    def _i_misspec(self, interp, inst, args):
        if not self.speculating:
            return None
        raise Misspeculation(
            "control", "execution left the profiled region",
            self.current_iteration)

    # -- deferred I/O ---------------------------------------------------------------

    def _i_printf(self, interp, inst, args):
        if not self.speculating:
            return self._default_printf(interp, inst, args)
        from ..interp.intrinsics import format_printf

        fmt = interp.space.read_cstring(int(args[0]))
        text = format_printf(interp, fmt, args[1:])
        self.deferred.emit(self.current_iteration, text)
        self.stats.io_deferred += 1
        return len(text)

    def _i_puts(self, interp, inst, args):
        if not self.speculating:
            return self._default_puts(interp, inst, args)
        text = interp.space.read_cstring(int(args[0]))
        self.deferred.emit(self.current_iteration, text + "\n")
        self.stats.io_deferred += 1
        return 0

    # -- invocation lifecycle -----------------------------------------------------------

    def private_extent(self) -> int:
        return self.main_space.region_cursor(self.private_base) - self.private_base

    def begin_invocation(self, worker_count: int) -> None:
        self.invocation_index += 1
        self.stats.invocations += 1
        extent = self.private_extent()
        if len(self.committed_meta) < extent:
            self.committed_meta.extend(b"\x00" * (extent - len(self.committed_meta)))
        self._protect_readonly()
        self._fork_workers(worker_count, extent)
        self.deferred = DeferredOutput()
        self.epoch_start = 0
        self.speculating = True
        self.recorder.record("invocation", index=self.invocation_index,
                             workers=worker_count, private_extent=extent)
        log.info("invocation %d: %d worker(s), private extent %d bytes",
                 self.invocation_index, worker_count, extent)

    def refork_workers(self) -> None:
        """After recovery: discard all speculative worker state and fork
        fresh workers from the (now updated) main memory."""
        self._fork_workers(len(self.workers), self.private_extent())

    def _fork_workers(self, count: int, extent: int) -> None:
        """Fork ``count`` fresh workers from main memory, their private
        heaps ``extent`` bytes long."""
        self.workers = [
            WorkerState(w, self.main_space, extent) for w in range(count)
        ]
        for worker in self.workers:
            self._init_worker_redux(worker)

    def _leave_speculation(self) -> None:
        """Stop speculating: no worker is current, generated code stops
        running validation inline against this runtime, and read-only
        objects are writable again."""
        self.speculating = False
        self.current_worker = None
        self.interp.runtime = None
        self._unprotect_readonly()

    def end_invocation(self) -> None:
        if TRACER.enabled:
            self.publish_counters()
        self._leave_speculation()
        self.workers = []
        # Between invocations the heaps behave as normal memory; the
        # committed metadata is per-invocation state.
        self.committed_meta = bytearray()

    def publish_counters(self) -> None:
        """Bring the PUBLISHED_COUNTERS up to the stats."""
        for name, field in PUBLISHED_COUNTERS.items():
            grown = getattr(self.stats, field) - self._published.get(name, 0)
            if grown:
                METRICS.counter(name).inc(grown)
                self._published[name] = getattr(self.stats, field)

    def _protect_readonly(self) -> None:
        self._protected = [
            obj for obj in self.main_space.live_objects()
            if obj.tag == int(HeapKind.READONLY) and obj.writable
        ]
        for obj in self._protected:
            obj.writable = False

    def _unprotect_readonly(self) -> None:
        for obj in self._protected:
            obj.writable = True
        self._protected = []

    # -- reduction heap management ---------------------------------------------------------

    def _redux_objects(self) -> List[Tuple[MemoryObject, ReduxObjectPlan]]:
        out = []
        for obj in self.main_space.live_objects():
            if obj.tag != int(HeapKind.REDUX):
                continue
            rplan = self.plan.redux_objects.get(obj.site)
            if rplan is not None:
                out.append((obj, rplan))
        return out

    @staticmethod
    def _identity_bytes(rplan: ReduxObjectPlan, size: int) -> bytes:
        es = rplan.element_size
        if rplan.operator == "MUL":
            elem = (1).to_bytes(es, "little")
        elif rplan.operator == "FMUL":
            elem = _struct.pack("<d", 1.0) if es == 8 else _struct.pack("<f", 1.0)
        elif rplan.operator == "AND":
            elem = b"\xff" * es
        else:  # ADD, FADD, OR, XOR: identity is all-zero bytes
            elem = b"\x00" * es
        reps, rem = divmod(size, es)
        return elem * reps + b"\x00" * rem

    def _init_worker_redux(self, worker: WorkerState) -> None:
        """Give the worker an identity-initialized copy of every reduction
        object (the paper initializes the replaced reduction pages with the
        operator's identity, §3.2)."""
        for obj, rplan in self._redux_objects():
            copy = MemoryObject(obj.base, obj.size, obj.name, obj.kind,
                                obj.site, writable=True)
            copy.data[:] = self._identity_bytes(rplan, obj.size)
            worker.space.install_copy(copy)
            worker.redux_copies[obj.base] = (copy, rplan)

    def reset_worker_after_commit(self, worker: WorkerState,
                                  write_spans: List[Tuple[int, int]]) -> None:
        """Start ``worker``'s next epoch after a commit: its shadow keeps
        the committed writes — ``write_spans``, its fragment's — as
        old-write (a replica whose shadow never saw them gets them from
        the spans), its epoch tracking clears and its reduction copies
        go back to the identity.  The checkpoint does this for every
        worker, and a pool child for the workers it hosts, so a resident
        worker enters the next epoch exactly like a simulated one."""
        worker.shadow.reset_after_checkpoint()
        worker.shadow.mark_old_write_runs(write_spans)
        worker.redux_written.clear()
        worker.space.dirty_pages.clear()
        for copy, rplan in worker.redux_copies.values():
            copy.data[:] = self._identity_bytes(rplan, copy.size)

    # -- per-iteration hooks (driven by the executor) -----------------------------------------

    def begin_iteration(self, worker: WorkerState, iteration: int) -> None:
        self.current_worker = worker
        self.current_iteration = iteration
        self.current_ts = timestamp_for(iteration, self.epoch_start)
        # Generated code runs the common case of check_heap,
        # private_read, private_write and redux_update inline against
        # ``interp.runtime``: this runtime from here until speculation
        # stops (``speculating`` and ``current_worker`` hold all along),
        # on vectorised shadows only — the per-byte oracle's are driven
        # through the intrinsics alone.
        if self.speculating and type(worker.shadow) is ShadowHeap:
            self.interp.runtime = self
        self.restore_predictions(worker, iteration)

    def restore_predictions(self, worker: WorkerState, iteration: int) -> None:
        """Write the predicted values at iteration start so predicted
        loads see them; routed through the privacy machinery like any
        other private write."""
        for vp in self.plan.predictions:
            gv = self.module.global_named(vp.obj_site[len("global:"):])
            addr = self.interp.global_addrs[gv] + vp.offset
            offset = addr - self.private_base
            if offset >= 0:
                worker.shadow.on_write(offset, vp.size, self.current_ts,
                                       iteration)
            worker.space.write_int(addr, vp.value, vp.size)
            self.stats.misc_validation_cycles += 4

    def end_iteration(self, worker: WorkerState, iteration: int) -> None:
        """Validate object-lifetime speculation: no short-lived object may
        outlive its iteration (§5.1)."""
        self.stats.lifetime_checks += 1
        self.stats.misc_validation_cycles += 2
        if worker.shortlived_live != 0:
            live = worker.shortlived_live
            worker.shortlived_live = 0
            raise Misspeculation(
                "lifetime",
                f"{live} short-lived object(s) live at iteration end",
                iteration)

    # -- checkpoints (§5.2) ----------------------------------------------------------------------

    def extract_fragment(self, worker: WorkerState,
                         epoch_start: int) -> EpochFragment:
        """Snapshot one worker's epoch state as a serializable fragment.

        Pure read: neither the worker nor main memory is mutated, so a
        slice extracts its fragment as it ends — in-process, or in a
        forked worker that pickles the result — without perturbing the
        other workers or the parent.

        The default path works run-at-a-time: constant-timestamp runs
        come straight off the shadow, and each run is classified
        (freed / worker-local / value) by intersecting it with the
        worker-space and main-space object extents, with byte values
        copied out as slices.  ``REPRO_SHADOW=ref`` routes through the
        per-byte oracle instead; both produce the identical canonical
        packed fragment.
        """
        if use_reference():
            return self._extract_fragment_ref(worker, epoch_start)
        pb = self.private_base
        write_runs: List[Tuple[int, int, int]] = []
        kinds = bytearray()
        values = bytearray()
        freed_fill = bytes((WRITE_FREED,))
        local_fill = bytes((WRITE_LOCAL,))
        value_fill = bytes((WRITE_VALUE,))
        for start, end, code in worker.shadow.write_ts_runs():
            write_runs.append((start, end, code - TS_BASE))
            addr, addr_end = pb + start, pb + end
            cursor = addr
            for s, e, obj in worker.space.covering_pieces(addr, end - start):
                if s > cursor:
                    # written then freed within the epoch
                    kinds.extend(freed_fill * (s - cursor))
                    values.extend(bytes(s - cursor))
                piece_cursor = s
                for ms, me, _mobj in self.main_space.covering_pieces(s, e - s):
                    if ms > piece_cursor:
                        # worker-local private allocation
                        kinds.extend(local_fill * (ms - piece_cursor))
                        values.extend(bytes(ms - piece_cursor))
                    off = ms - obj.base
                    kinds.extend(value_fill * (me - ms))
                    values.extend(obj.data[off:off + (me - ms)])
                    piece_cursor = me
                if piece_cursor < e:
                    kinds.extend(local_fill * (e - piece_cursor))
                    values.extend(bytes(e - piece_cursor))
                cursor = e
            if cursor < addr_end:
                kinds.extend(freed_fill * (addr_end - cursor))
                values.extend(bytes(addr_end - cursor))
        redux_runs, dirty_pages = self._extract_redux(worker)
        return EpochFragment(
            wid=worker.wid, epoch_start=epoch_start,
            read_live_in_runs=tuple(worker.shadow.read_live_in_runs()),
            write_runs=tuple(write_runs),
            write_kinds=bytes(kinds), write_values=bytes(values),
            epoch_written_runs=tuple(worker.shadow.written.runs()),
            redux_runs=redux_runs, dirty_private_pages=dirty_pages)

    def _extract_fragment_ref(self, worker: WorkerState,
                              epoch_start: int) -> EpochFragment:
        """Per-byte oracle extraction (``REPRO_SHADOW=ref``): the
        historical one-lookup-per-byte loop, packed into the same
        canonical fragment form."""
        writes: List[Tuple[int, int, int, int]] = []
        for b, iteration in sorted(worker.shadow.write_iterations(epoch_start)):
            addr = self.private_base + b
            found = worker.space.try_find(addr)
            if found is None:
                # written then freed within the epoch
                writes.append((b, iteration, WRITE_FREED, 0))
                continue
            obj, off = found
            if self.main_space.try_find(addr) is None:
                # worker-local private allocation
                writes.append((b, iteration, WRITE_LOCAL, 0))
            else:
                writes.append((b, iteration, WRITE_VALUE, obj.data[off]))
        redux_runs, dirty_pages = self._extract_redux(worker)
        return EpochFragment.pack(
            wid=worker.wid, epoch_start=epoch_start,
            read_live_in=worker.shadow.read_live_in_offsets(),
            writes=writes,
            epoch_written=worker.shadow.written_offsets(),
            redux_runs=redux_runs, dirty_private_pages=dirty_pages)

    def _extract_redux(self, worker: WorkerState
                       ) -> Tuple[Tuple[ReduxRun, ...], int]:
        """Reduction partial results and dirty-page count for a fragment
        (shared by both extraction paths).

        Each coalesced stretch of updated addresses is cut at reduction
        object boundaries and becomes one run: the object's elements
        from the stretch's first address on, whole elements only (a
        4-byte update of an 8-byte element ships the element), sliced
        out of the worker's replica in one piece.  Addresses outside
        every planned reduction object become operator-less runs.
        """
        runs: List[ReduxRun] = []
        for start, end in worker.redux_written.runs():
            cursor = start
            for s, e, mobj in self.main_space.covering_pieces(
                    start, end - start):
                entry = worker.redux_copies.get(mobj.base)
                if entry is None:
                    continue
                if s > cursor:
                    runs.append(ReduxRun(cursor, s - cursor, None, False,
                                         bytes(s - cursor)))
                rplan = entry[1]
                es = rplan.element_size
                length = -(-(e - s) // es) * es
                # Through the worker's space, not the replica itself: a
                # run off the object's end, or into an object the worker
                # freed, faults as a guest load of it would.
                obj, off = worker.space.find(s, length)
                runs.append(ReduxRun(s, es, rplan.operator, rplan.is_float,
                                     bytes(obj.data[off:off + length])))
                cursor = e
            if cursor < end:
                runs.append(ReduxRun(cursor, end - cursor, None, False,
                                     bytes(end - cursor)))
        first = self.private_base >> PAGE_SHIFT
        last = (self.private_base + (1 << TAG_SHIFT)) >> PAGE_SHIFT
        dirty_pages = sum(1 for p in worker.space.dirty_pages
                          if first <= p < last)
        return tuple(runs), dirty_pages

    def checkpoint(self, epoch_start: int, epoch_end: int,
                   fragments: Optional[List[EpochFragment]] = None
                   ) -> CheckpointRecord:
        """Collect all workers' speculative state, run phase-two privacy
        validation, merge, and commit into main memory.

        ``fragments`` is the per-worker epoch state in wid order, as
        the executor's slices extracted it, wherever they ran (on both
        backends; a pool child's crossed its report pipe).  When
        ``None`` — a caller that drives the runtime directly — they are
        extracted here from the in-process worker states.  Either way
        the same validation/merge/commit code runs below.
        """
        if fragments is None:
            fragments = [self.extract_fragment(w, epoch_start)
                         for w in self.workers]
        for frag in fragments:
            if frag.format != FRAGMENT_FORMAT:
                raise ValueError(
                    f"fragment format {frag.format} from worker {frag.wid} "
                    f"does not match this runtime's format "
                    f"{FRAGMENT_FORMAT}")
        record = CheckpointRecord(self.invocation_index, epoch_start, epoch_end)

        # Phase 2 privacy: a byte that some worker read as live-in must not
        # have been defined since the invocation began (committed old-write)
        # nor written by any other worker during this epoch.  Without a
        # read-iteration timestamp this is conservative, as in the paper.
        ref_mode = use_reference()
        violation = (find_phase2_violation_ref if ref_mode
                     else find_phase2_violation)(fragments, self.committed_meta)
        if violation is not None:
            b = violation.offset
            if violation.kind == "committed":
                exc = Misspeculation(
                    "privacy",
                    f"live-in read of byte private+{b} defined in an "
                    f"earlier checkpoint epoch", epoch_start)
            else:
                exc = Misspeculation(
                    "privacy",
                    f"cross-worker flow: worker {violation.writer_wid} wrote "
                    f"private+{b}, worker {violation.reader_wid} read it "
                    f"live-in", epoch_start)
            ctx = self._base_context(None, self.private_base + b,
                                     b, "phase2")
            ctx["reader_wid"] = violation.reader_wid
            if violation.kind == "cross-worker":
                ctx["writer_wid"] = violation.writer_wid
                ctx["writer_iteration"] = violation.writer_iteration
            exc.context = ctx
            raise exc

        # Merge private state: per byte, latest iteration wins.  The
        # outcome buffers cover the written extent; winning WRITE_VALUE
        # runs commit as slice stores, walking main-memory object
        # extents instead of resolving each byte.
        outcome = (merge_fragments_ref if ref_mode
                   else merge_fragments)(fragments)
        merged = outcome.merged_bytes
        committed_limit = len(self.committed_meta)
        for start, end in outcome.value_runs():
            pos = start
            while pos < end:
                tobj, toff = self.main_space.find(self.private_base + pos)
                length = min(end - pos, tobj.size - toff)
                src = pos - outcome.base
                tobj.data[toff:toff + length] = \
                    outcome.values[src:src + length]
                pos += length
            clamped = min(end, committed_limit)
            if start < clamped:
                self.committed_meta[start:clamped] = \
                    b"\x01" * (clamped - start)
        if outcome.freed_bytes or outcome.local_bytes:
            log.debug("checkpoint: skipped %d freed and %d worker-local "
                      "private byte(s) during merge",
                      outcome.freed_bytes, outcome.local_bytes)
        record.private_bytes_copied = merged

        # Merge reduction partial results, in worker order (float merge
        # order is part of the observable semantics).
        fold = self._fold_redux_run_ref if ref_mode else self._fold_redux_run
        redux_bytes = 0
        for frag in fragments:
            for run in frag.redux_runs:
                fold(run)
                redux_bytes += len(run.data)
        record.redux_bytes_merged = redux_bytes

        # Commit deferred output in iteration order.
        record.io_records_committed = self.deferred.commit_range(
            epoch_start, epoch_end, self.interp.emit_output)

        # Reset per-epoch state and cost the copies.
        dirty_total = 0
        for frag in fragments:
            dirty_total += frag.dirty_private_pages
            record.dirty_pages += frag.dirty_private_pages
            self.reset_worker_after_commit(self.workers[frag.wid],
                                           frag.write_spans())

        cost = (CHECKPOINT_FIXED_COST * len(self.workers)
                + CHECKPOINT_PAGE_COST * dirty_total
                + CHECKPOINT_BYTE_COST * (merged + redux_bytes))
        self.stats.checkpoint_cycles += cost
        record.speculative = False
        self.stats.checkpoints += 1
        self.stats.checkpoint_records.append(record)
        self.epoch_start = epoch_end
        log.info("checkpoint [%d,%d): %d private byte(s), %d redux byte(s), "
                 "%d dirty page(s), %d cycles",
                 epoch_start, epoch_end, merged, redux_bytes,
                 record.dirty_pages, cost)
        if TRACER.enabled:
            self.publish_counters()
            METRICS.counter("runtime.checkpoints").inc()
            METRICS.histogram("runtime.checkpoint.cycles").observe(cost)
            METRICS.counter("runtime.checkpoint.private_bytes").inc(merged)
            METRICS.counter("runtime.checkpoint.redux_bytes").inc(redux_bytes)
            TRACER.instant(
                "runtime.checkpoint", cat="runtime",
                invocation=self.invocation_index,
                epoch_start=epoch_start, epoch_end=epoch_end,
                private_bytes=merged, redux_bytes=redux_bytes,
                dirty_pages=record.dirty_pages,
                io_records=record.io_records_committed, cycles=cost)
        self.recorder.record(
            "epoch", outcome="commit", invocation=self.invocation_index,
            epoch_start=epoch_start, epoch_end=epoch_end,
            private_bytes=merged, redux_bytes=redux_bytes,
            dirty_pages=record.dirty_pages, cycles=cost)
        self.recorder.note_site_accesses(
            self._site_byte_counts(
                union_runs(frag.write_spans() for frag in fragments)),
            self._site_byte_counts(
                union_runs(frag.read_live_in_runs for frag in fragments)))
        if self.controller is not None:
            self.controller.note_commit(epoch_start, epoch_end)
        return record

    def _fold_redux_run(self, run: ReduxRun) -> None:
        """Fold one run of a worker's partial results into main memory:
        :meth:`_apply_redux_element` over all its elements at once."""
        if run.operator is None:
            return
        fold = _REDUX_FOLDS[run.operator]
        # Faults as the first element's fold would (freed or read-only
        # target object).
        obj, off = self.main_space._writable_object(run.addr, run.size)
        # Integers read unsigned whatever the operator: every one of
        # them agrees with its signed self modulo the element width.
        fmt = run.struct_format()
        merged = map(fold, _struct.unpack_from(fmt, obj.data, off),
                     _struct.unpack(fmt, run.data))
        if not run.is_float:
            mask = (1 << (run.size * 8)) - 1
            merged = [value & mask for value in merged]
        _struct.pack_into(fmt, obj.data, off, *merged)

    def _fold_redux_run_ref(self, run: ReduxRun) -> None:
        """Per-element oracle fold (``REPRO_SHADOW=ref``)."""
        for el in run.elements():
            self._apply_redux_element(el)

    def _apply_redux_element(self, el: ReduxElement) -> None:
        """Fold one worker's partial result into main memory."""
        if el.operator is None:
            return
        op = BinOpKind[el.operator]
        if el.is_float:
            current = self.main_space.read_float(el.addr, el.size)
            self.main_space.write_float(
                el.addr, apply_operator(op, current, el.delta), el.size)
        else:
            signed = el.operator in ("ADD", "MUL")
            current = self.main_space.read_int(el.addr, el.size, signed)
            merged = apply_operator(op, current, el.delta)
            self.main_space.write_int(el.addr, merged, el.size)

    # -- misspeculation & recovery (§5.3) ------------------------------------------------------------

    def record_misspeculation(self, exc: Misspeculation,
                              injected: bool = False) -> None:
        self.stats.misspeculations.append(
            MisspecEvent(exc.kind, exc.iteration, exc.detail, injected))
        log.warning("misspeculation (%s) at iteration %d: %s%s",
                    exc.kind, exc.iteration, exc.detail,
                    " [injected]" if injected else "")
        if TRACER.enabled:
            METRICS.counter(f"runtime.misspec.{exc.kind}").inc()
            TRACER.instant("runtime.misspec", cat="runtime", kind=exc.kind,
                           iteration=exc.iteration, detail=exc.detail,
                           injected=injected)
        self.recorder.record("misspec", kind=exc.kind,
                             iteration=exc.iteration, detail=exc.detail,
                             injected=injected, context=exc.context)
        if self.controller is not None:
            diagnosis = (summarize_context(exc.kind, exc.detail, exc.context)
                         if exc.context is not None else None)
            self.controller.note_misspec(exc.kind, exc.iteration,
                                         self._attribute_site(exc.detail),
                                         diagnosis)

    def _attribute_site(self, detail: str) -> Optional[str]:
        """Allocation site of the object a misspeculation detail string
        refers to, or None when no address can be recovered.  Feeds the
        controller's demotion policy: the site identifies the object class
        whose speculative classification caused the misprediction."""
        match = re.search(r"private\+(\d+)", detail)
        if match:
            addr = self.private_base + int(match.group(1))
        else:
            match = re.search(r"0x([0-9a-f]+)", detail)
            if not match:
                return None
            addr = int(match.group(1), 16)
        found = self.main_space.try_find(addr)
        return found[0].site if found else None

    # -- conflict forensics ----------------------------------------------------------

    def _base_context(self, worker: Optional[WorkerState], addr: int,
                      offset: Optional[int], source: str) -> Dict[str, object]:
        """Common conflict-context fields: named object, heap tag, and the
        raw shadow bytes around the conflict (phase-1 only: a worker's
        shadow replica is what detected the conflict)."""
        ctx: Dict[str, object] = {
            "source": source,
            "address": addr,
            "offset": offset,
            "heap_tag": heap_tag_of(addr),
            "epoch_start": self.epoch_start,
            "object": None, "site": None,
            "object_base": None, "object_size": None,
            "shadow_code": None, "shadow_window": None, "window_start": None,
            "writer_iteration": None, "reader_iteration": None,
            "writer_wid": None, "reader_wid": None,
        }
        space = worker.space if worker is not None else self.main_space
        found = space.try_find(addr)
        if found is None and space is not self.main_space:
            found = self.main_space.try_find(addr)
        if found is not None:
            obj, _off = found
            ctx["object"] = obj.name
            ctx["site"] = obj.site
            ctx["object_base"] = f"0x{obj.base:x}"
            ctx["object_size"] = obj.size
        if (worker is not None and offset is not None
                and 0 <= offset < worker.shadow.size):
            meta = worker.shadow.meta
            lo = max(0, offset - 16)
            hi = min(len(meta), offset + 17)
            ctx["shadow_code"] = meta[offset]
            ctx["shadow_window"] = bytes(meta[lo:hi]).hex()
            ctx["window_start"] = lo
        return ctx

    def capture_conflict_context(self, worker: Optional[WorkerState],
                                 exc: Misspeculation) -> Misspeculation:
        """Attach a forensic context dict to a phase-1 misspeculation.

        Idempotent and cheap: a no-op when a context is already attached
        (an injected misspeculation's, see
        :meth:`injected_conflict_context`) or when the detail string
        names no address.  The context is a plain picklable
        dict so the pool backend can ship it over the report pipe
        unchanged.
        """
        if exc.context is not None:
            return exc
        match = re.search(r"private\+(\d+)", exc.detail)
        offset = None
        addr = None
        if match:
            offset = int(match.group(1))
            addr = self.private_base + offset
        else:
            match = re.search(r"0x([0-9a-f]+)", exc.detail)
            if match:
                addr = int(match.group(1), 16)
                if heap_tag_of(addr) == int(HeapKind.PRIVATE):
                    offset = addr - self.private_base
        if addr is None:
            return exc
        ctx = self._base_context(worker, addr, offset, "phase1")
        ts = re.search(r"written ts=(\d+), read ts=(\d+)", exc.detail)
        if ts:
            ctx["writer_iteration"] = self.epoch_start + int(ts.group(1)) - TS_BASE
            ctx["reader_iteration"] = self.epoch_start + int(ts.group(2)) - TS_BASE
        elif "before the last checkpoint" in exc.detail:
            ctx["reader_iteration"] = exc.iteration
        elif "read-live-in" in exc.detail:
            ctx["writer_iteration"] = exc.iteration
        exc.context = ctx
        return exc

    def injected_conflict_context(self, worker: WorkerState,
                                  iteration: int) -> Dict[str, object]:
        """Deterministic conflict context for an injected misspeculation.

        Anchored at the lowest private-heap byte the worker has written
        this epoch (prediction restores count), so both backends name the
        same site/object/tag for the same injection point — the forensics
        parity tests rely on that.
        """
        offset = worker.shadow.first_written()
        if offset is None:
            offset = 0
        ctx = self._base_context(worker, self.private_base + offset,
                                 offset, "injected")
        ctx["writer_iteration"] = iteration
        ctx["reader_iteration"] = iteration
        return ctx

    def _site_byte_counts(self, runs) -> Dict[str, int]:
        """Bytes-per-allocation-site histogram for coalesced runs of
        private-heap offsets.  Attribution is per object extent, not per
        byte: one address-space intersection per run, so the
        per-checkpoint recording cost stays small as dirty bytes grow."""
        counts: Dict[str, int] = {}
        pb = self.private_base
        for start, end in runs:
            for s, e, obj in self.main_space.covering_pieces(
                    pb + start, end - start):
                site = obj.site or obj.name
                counts[site] = counts.get(site, 0) + (e - s)
        return counts

    def squash_to_recovery(self, misspec_iteration: int) -> None:
        """Discard all speculative state newer than the last checkpoint."""
        self.stats.recoveries += 1
        log.info("squash to recovery: re-executing [%d,%d] sequentially",
                 self.epoch_start, misspec_iteration)
        self.deferred.squash_from(self.epoch_start)
        # Recovery may legally write read-only-classified objects.
        self._leave_speculation()

    def begin_sequential_span(self) -> None:
        """Leave speculation for an adaptive sequential-fallback span.

        Entered only at an epoch boundary (right after a recovery
        resumed), so there is no uncommitted speculative state to squash:
        the freshly forked workers are discarded wholesale when
        :meth:`resume_after_recovery` re-forks at span end.  While the
        span runs, stores commit directly to main memory (the executor's
        recovery hook marks them as committed definitions) and I/O
        bypasses the deferral queue.
        """
        # Like recovery, the span may legally write read-only objects.
        self._leave_speculation()

    def resume_after_recovery(self, next_iteration: int) -> None:
        self._protect_readonly()
        self.refork_workers()
        self.epoch_start = next_iteration
        self.speculating = True

    def resync_workers(self, invocation_index: int, epoch_start: int,
                       main_changes: tuple) -> None:
        """Pool-child side of a sync (docs/BACKENDS.md §"pool
        lifecycle"): main ran on behind this resident process's back —
        a new invocation, a recovery, a sequential span — and
        ``main_changes`` (:meth:`AddressSpace.take_changes` of the
        parent's main space) brings this copy of it up to date.

        The worker states are out of use from here on and new ones are
        forked afterwards by the path the parent itself took
        (:meth:`resume_after_recovery`: read-only protection over the
        objects now alive, overlays with main's cursors, zeroed shadows,
        identity reduction replicas).  None of the parent's bookkeeping
        is repeated: no ``stats`` bump, flight-recorder event or log
        line of :meth:`begin_invocation` / :meth:`squash_to_recovery`.
        """
        self._unprotect_readonly()
        self.main_space.apply_changes(main_changes)
        self.invocation_index = invocation_index
        self.resume_after_recovery(epoch_start)

    def note_recovery_write(self, addr: int, size: int) -> None:
        """Called for stores executed during sequential recovery: they are
        committed definitions, so later live-in reads of them must fail
        phase-2 validation."""
        if heap_tag_of(addr) != int(HeapKind.PRIVATE):
            return
        offset = addr - self.private_base
        end = offset + size
        if end > len(self.committed_meta):
            self.committed_meta.extend(b"\x00" * (end - len(self.committed_meta)))
        self.committed_meta[offset:end] = b"\x01" * size
