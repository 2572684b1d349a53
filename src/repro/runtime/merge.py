"""Checkpoint-time phase-two privacy validation and private-state merge
(§5.2), over packed :class:`~repro.runtime.fragments.EpochFragment` runs.

Two implementations of each step share a result type so
:meth:`~repro.runtime.system.RuntimeSystem.checkpoint` and ``repro
perf`` can swap them freely:

* the default vectorized path — sorted-interval intersections for the
  cross-worker check, ``find`` scans of the committed-definition
  metadata for the committed-old-write check, and latest-iteration-wins
  merge as bulk slice stores ordered by iteration;
* a ``*_ref`` per-byte oracle matching the historical nested loops
  byte for byte, selected by ``REPRO_SHADOW=ref`` (and used as the
  baseline ``repro perf`` measures against).

Both orders ties identically: the merge scans fragments in list (wid)
order and a later fragment only wins a byte with a strictly greater
iteration, and validation reports the violation the per-byte scan would
have found first (lowest offset of the first failing fragment, committed
check before the cross-worker check at equal offsets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fragments import EpochFragment, WRITE_FREED, WRITE_LOCAL, WRITE_VALUE
from .intervals import first_overlap, value_runs

#: Sentinel kind for merge-buffer bytes no fragment wrote (not a valid
#: ``WRITE_*`` code).
KIND_NONE = 0xFF


@dataclass
class Phase2Violation:
    """The first phase-two privacy violation, in per-byte scan order."""

    kind: str                 # "committed" | "cross-worker"
    offset: int               # private-heap byte offset
    reader_wid: int
    writer_wid: Optional[int] = None
    writer_iteration: Optional[int] = None


@dataclass
class MergeOutcome:
    """Latest-iteration-wins merge result over the written extent.

    ``kinds``/``values`` cover ``[base, base + len(kinds))`` with one
    byte per offset; bytes no fragment wrote hold :data:`KIND_NONE`.
    """

    base: int = 0
    kinds: bytes = b""
    values: bytes = b""
    merged_bytes: int = 0
    freed_bytes: int = 0
    local_bytes: int = 0

    def value_runs(self) -> List[Tuple[int, int]]:
        """Absolute ``(start, end)`` runs of winning WRITE_VALUE bytes —
        the slices the checkpoint commits into main memory."""
        return value_runs(self.kinds, WRITE_VALUE, self.base)


def find_phase2_violation(fragments: Sequence[EpochFragment],
                          committed_meta: bytearray
                          ) -> Optional[Phase2Violation]:
    """Vectorized phase-two validation: for each fragment in order, scan
    its live-in read runs against the committed-definition metadata
    (``find`` of the committed marker) and against every other worker's
    epoch-written runs (two-pointer interval intersection).  Returns the
    violation the per-byte reference scan reports, or None."""
    limit = len(committed_meta)
    for frag in fragments:
        # (offset, priority): committed check outranks the cross-worker
        # check at the same offset, and lower writer index wins below it,
        # matching the nested per-byte loop's discovery order.
        candidates: List[Tuple[int, int]] = []
        for start, end in frag.read_live_in_runs:
            clamped_end = min(end, limit)
            if start >= clamped_end:
                continue
            hit = committed_meta.find(1, start, clamped_end)
            if hit >= 0:
                candidates.append((hit, -1))
                break
        for index, other in enumerate(fragments):
            if other.wid == frag.wid:
                continue
            hit = first_overlap(frag.read_live_in_runs,
                                other.epoch_written_runs)
            if hit is not None:
                candidates.append((hit, index))
        if not candidates:
            continue
        offset, priority = min(candidates)
        if priority < 0:
            return Phase2Violation("committed", offset, frag.wid)
        writer = fragments[priority]
        return Phase2Violation("cross-worker", offset, frag.wid,
                               writer_wid=writer.wid,
                               writer_iteration=writer.iteration_of(offset))
    return None


def find_phase2_violation_ref(fragments: Sequence[EpochFragment],
                              committed_meta: bytearray
                              ) -> Optional[Phase2Violation]:
    """Per-byte oracle: the historical nested loops, byte for byte."""
    written_sets = [(other, other.epoch_written_offsets())
                    for other in fragments]
    for frag in fragments:
        for b in sorted(frag.read_live_in_offsets()):
            if b < len(committed_meta) and committed_meta[b] == 1:
                return Phase2Violation("committed", b, frag.wid)
            for other, written in written_sets:
                if other.wid != frag.wid and b in written:
                    return Phase2Violation(
                        "cross-worker", b, frag.wid, writer_wid=other.wid,
                        writer_iteration=other.iteration_of(b))
    return None


def merge_fragments(fragments: Sequence[EpochFragment]) -> MergeOutcome:
    """Vectorized latest-iteration-wins merge: decompose every write run
    into ``(iteration, -fragment_index)``-sorted slices and store them in
    ascending order, so the last store per byte is exactly the winner the
    per-byte dict scan picks (strictly greater iteration beats; the
    earlier fragment keeps ties)."""
    starts = [run[0] for frag in fragments for run in frag.write_runs]
    if not starts:
        return MergeOutcome()
    base = min(starts)
    top = max(run[1] for frag in fragments for run in frag.write_runs)
    kinds = bytearray(bytes((KIND_NONE,)) * (top - base))
    values = bytearray(top - base)
    slices: List[Tuple[int, int, int, int, int, EpochFragment]] = []
    for index, frag in enumerate(fragments):
        pos = 0
        for start, end, rel in frag.write_runs:
            slices.append((frag.epoch_start + rel, -index,
                           start, end, pos, frag))
            pos += end - start
    slices.sort(key=lambda item: (item[0], item[1]))
    for _iteration, _neg_index, start, end, pos, frag in slices:
        length = end - start
        kinds[start - base:end - base] = frag.write_kinds[pos:pos + length]
        values[start - base:end - base] = frag.write_values[pos:pos + length]
    return MergeOutcome(
        base=base, kinds=bytes(kinds), values=bytes(values),
        merged_bytes=kinds.count(WRITE_VALUE),
        freed_bytes=kinds.count(WRITE_FREED),
        local_bytes=kinds.count(WRITE_LOCAL))


def merge_fragments_ref(fragments: Sequence[EpochFragment]) -> MergeOutcome:
    """Per-byte oracle: the historical best-iteration dict, packed into
    the same outcome buffers for comparison and commit."""
    best: Dict[int, Tuple[int, int, int]] = {}
    for frag in fragments:
        for b, iteration, kind, value in frag.iter_writes():
            cur = best.get(b)
            if cur is None or iteration > cur[0]:
                best[b] = (iteration, kind, value)
    if not best:
        return MergeOutcome()
    base = min(best)
    top = max(best) + 1
    kinds = bytearray(bytes((KIND_NONE,)) * (top - base))
    values = bytearray(top - base)
    merged = freed = local = 0
    for b, (_iteration, kind, value) in best.items():
        kinds[b - base] = kind
        values[b - base] = value
        if kind == WRITE_VALUE:
            merged += 1
        elif kind == WRITE_FREED:
            freed += 1
        else:
            local += 1
    return MergeOutcome(base=base, kinds=bytes(kinds), values=bytes(values),
                        merged_bytes=merged, freed_bytes=freed,
                        local_bytes=local)
