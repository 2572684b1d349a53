"""Per-worker shadow heap: LRPD-style metadata generalized to arbitrary
objects (§5.1, Table 2).

One metadata byte per private-heap byte.  Codes:

* ``0`` live-in — untouched since the last checkpoint;
* ``1`` old-write — defined by an earlier iteration (before the last
  checkpoint);
* ``2`` read-live-in — read while apparently live-in; needs the phase-two
  (checkpoint-time) cross-worker check;
* ``3 + (i - i0)`` — written at iteration ``i`` (``i0`` = first iteration
  after the last checkpoint).

The transition rules implemented here are exactly the paper's Table 2,
including the documented conservative false positive: overwriting a
read-live-in byte before the checkpoint resolves it misspeculates, because
a precise answer would need a second timestamp per byte.

Two implementations share the contract:

* :class:`ShadowHeap` — the default.  Table 2 transitions are applied to
  whole ``[offset, offset+size)`` windows with cached 256-byte
  ``bytes.translate`` tables, ``find``/``count`` scans, and slice
  stores; the per-byte Python loop only runs on the (rare)
  misspeculation path to name the exact failing byte.
* :class:`ReferenceShadowHeap` — the original per-byte loops, kept as a
  differential oracle.  Select it process-wide with ``REPRO_SHADOW=ref``
  (see :func:`make_shadow`); ``tests/test_shadow_vectorized.py`` drives
  both and asserts identical metadata and misspeculations.
"""

from __future__ import annotations

import os
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from ..interp.errors import Misspeculation
from .intervals import IntervalSet, constant_runs, runs_from_offsets, value_runs

LIVE_IN = 0
OLD_WRITE = 1
READ_LIVE_IN = 2
TS_BASE = 3
MAX_TIMESTAMP = 255

#: Environment variable selecting the shadow implementation; value
#: ``"ref"`` selects the per-byte reference oracle (and, in
#: :mod:`repro.runtime.system`, the per-byte extract/validate/merge
#: paths that go with it).
SHADOW_ENV = "REPRO_SHADOW"
REFERENCE_MODE = "ref"


def use_reference() -> bool:
    """True when ``REPRO_SHADOW=ref`` selects the per-byte oracle."""
    return os.environ.get(SHADOW_ENV, "") == REFERENCE_MODE


#: Translate table for a validated read window: live-in bytes become
#: read-live-in, every other code is left alone.
_PROMOTE_READ = bytes(
    READ_LIVE_IN if code == LIVE_IN else code for code in range(256))
#: Checkpoint reset over written runs: timestamps demote to old-write.
_RESET_WRITES = bytes(
    OLD_WRITE if code >= TS_BASE else code for code in range(256))
#: Checkpoint reset over read runs: validated read-live-in returns to
#: live-in.
_RESET_READS = bytes(
    LIVE_IN if code == READ_LIVE_IN else code for code in range(256))

#: Per-timestamp read-classification tables: 0 = acceptable (own ts,
#: live-in, read-live-in), 1 = old-write, 2 = a different timestamp
#: (loop-carried flow).  Built lazily, one 256-byte table per distinct
#: ts seen (the checkpoint period bounds that at 253).
_READ_CLASS: Dict[int, bytes] = {}


def _read_class_table(ts: int) -> bytes:
    table = _READ_CLASS.get(ts)
    if table is None:
        table = bytes(
            0 if code in (ts, LIVE_IN, READ_LIVE_IN)
            else (1 if code == OLD_WRITE else 2)
            for code in range(256))
        _READ_CLASS[ts] = table
    return table


class ShadowHeap:
    """Metadata for one worker's view of the private heap (vectorized)."""

    __slots__ = ("size", "meta", "written", "read_live_in")

    def __init__(self, size: int):
        self.size = size
        self.meta = bytearray(size)
        #: Byte intervals touched since the last checkpoint, for interval-
        #: based checkpointing (avoids scanning the whole heap).
        self.written = IntervalSet()
        self.read_live_in = IntervalSet()

    def _grow(self, needed: int) -> None:
        if needed > self.size:
            self.meta.extend(b"\x00" * (needed - self.size))
            self.size = needed

    # -- fast-phase checks (§5.1) -------------------------------------------

    def on_read(self, offset: int, size: int, ts: int, iteration: int) -> None:
        """Validate and update metadata for a private read."""
        end = offset + size
        if end > self.size:
            self._grow(end)
        meta = self.meta
        chunk = bytes(meta[offset:end])
        # Fast path: the whole range was written this iteration.
        if chunk.count(ts) == size:
            return
        # Record the interval before validating so a misspeculation part
        # way through leaves no untracked read-live-in bytes (the offsets
        # accessor filters by actual metadata value).
        self.read_live_in.add_range(offset, end)
        flags = chunk.translate(_read_class_table(ts))
        bad_old = flags.find(1)
        bad_flow = flags.find(2)
        if bad_old >= 0 or bad_flow >= 0:
            bad = min(i for i in (bad_old, bad_flow) if i >= 0)
            # Bytes before the failing one were accepted and (if live-in)
            # promoted, exactly as the per-byte loop leaves them.
            if bad:
                meta[offset:offset + bad] = chunk[:bad].translate(_PROMOTE_READ)
            b = offset + bad
            if bad == bad_old:
                raise Misspeculation(
                    "privacy", f"read of value defined before the last "
                    f"checkpoint at private+{b}", iteration)
            raise Misspeculation(
                "privacy", f"loop-carried flow dependence at private+{b} "
                f"(written ts={chunk[bad]}, read ts={ts})", iteration)
        meta[offset:end] = chunk.translate(_PROMOTE_READ)

    def on_write(self, offset: int, size: int, ts: int, iteration: int) -> None:
        """Validate and update metadata for a private write."""
        end = offset + size
        if end > self.size:
            self._grow(end)
        meta = self.meta
        b = meta.find(READ_LIVE_IN, offset, end)
        if b >= 0:
            raise Misspeculation(
                "privacy", f"overwrite of read-live-in byte at "
                f"private+{b} (conservative)", iteration)
        meta[offset:end] = bytes((ts,)) * size
        self.written.add_range(offset, end)

    # -- checkpoint support ---------------------------------------------------

    def written_offsets(self) -> Set[int]:
        return self.written.offsets()

    def first_written(self) -> Optional[int]:
        """Lowest offset written since the last checkpoint, if any."""
        return self.written.min_offset()

    def read_live_in_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for start, end in self.read_live_in_runs():
            out.update(range(start, end))
        return out

    def read_live_in_runs(self) -> List[Tuple[int, int]]:
        """Coalesced runs of bytes currently marked read-live-in."""
        meta = self.meta
        out: List[Tuple[int, int]] = []
        for start, end in self.read_live_in.runs():
            out.extend(value_runs(bytes(meta[start:end]), READ_LIVE_IN, start))
        return out

    def write_ts_runs(self) -> List[Tuple[int, int, int]]:
        """Maximal ``(start, end, ts)`` runs of bytes written this epoch
        that still carry a timestamp code.  The basis for bulk fragment
        extraction: one entry per constant-timestamp run, not per byte."""
        meta = self.meta
        out: List[Tuple[int, int, int]] = []
        for start, end in self.written.runs():
            for run_start, run_end, code in constant_runs(
                    bytes(meta[start:end]), start):
                if code >= TS_BASE:
                    out.append((run_start, run_end, code))
        return out

    def write_iterations(self, epoch_start: int) -> Iterator[Tuple[int, int]]:
        """Yield (offset, absolute iteration) for every byte written since
        the last checkpoint."""
        for start, end, code in self.write_ts_runs():
            iteration = epoch_start + (code - TS_BASE)
            for b in range(start, end):
                yield b, iteration

    def reset_after_checkpoint(self) -> None:
        """Table 2 footnote: writes before the checkpoint become old-write;
        validated read-live-in bytes return to live-in."""
        meta = self.meta
        for start, end in self.written.runs():
            meta[start:end] = bytes(meta[start:end]).translate(_RESET_WRITES)
        for start, end in self.read_live_in.runs():
            meta[start:end] = bytes(meta[start:end]).translate(_RESET_READS)
        self.written.clear()
        self.read_live_in.clear()

    def mark_old_writes(self, offsets: Iterable[int]) -> None:
        """Force the given byte offsets to old-write.

        Used when replaying a checkpoint from shipped
        :class:`~repro.runtime.fragments.EpochFragment` state: the
        parent-side replica shadow never saw the forked worker's writes,
        but after the commit those bytes must read as old-write exactly
        as they would in a persistent in-process shadow.  Idempotent on
        shadows that already went through ``reset_after_checkpoint``.
        """
        self.mark_old_write_runs(runs_from_offsets(offsets))

    def mark_old_write_runs(self, runs: Sequence[Tuple[int, int]]) -> None:
        """Run-based :meth:`mark_old_writes`: grows once to the highest
        end offset, then marks each run with one slice store."""
        if not runs:
            return
        top = max(end for _start, end in runs)
        if top > self.size:
            self._grow(top)
        meta = self.meta
        for start, end in runs:
            meta[start:end] = bytes((OLD_WRITE,)) * (end - start)


class ReferenceShadowHeap:
    """The original per-byte Table 2 implementation, kept verbatim as a
    differential oracle for the vectorized :class:`ShadowHeap` (selected
    with ``REPRO_SHADOW=ref``).  Deliberately slow; do not use outside
    tests and the ``repro perf`` baseline."""

    __slots__ = ("size", "meta", "written", "read_live_in")

    def __init__(self, size: int):
        self.size = size
        self.meta = bytearray(size)
        self.written: Set[Tuple[int, int]] = set()
        self.read_live_in: Set[Tuple[int, int]] = set()

    def _grow(self, needed: int) -> None:
        if needed > self.size:
            self.meta.extend(b"\x00" * (needed - self.size))
            self.size = needed

    def on_read(self, offset: int, size: int, ts: int, iteration: int) -> None:
        """Validate and update metadata for a private read (per byte)."""
        end = offset + size
        if end > self.size:
            self._grow(end)
        meta = self.meta
        chunk = meta[offset:end]
        if chunk.count(ts) == size:
            return
        self.read_live_in.add((offset, size))
        for b in range(offset, end):
            code = meta[b]
            if code == ts:
                continue
            if code == LIVE_IN:
                meta[b] = READ_LIVE_IN
            elif code == READ_LIVE_IN:
                pass
            elif code == OLD_WRITE:
                raise Misspeculation(
                    "privacy", f"read of value defined before the last "
                    f"checkpoint at private+{b}", iteration)
            else:  # a timestamp from an earlier iteration in this epoch
                raise Misspeculation(
                    "privacy", f"loop-carried flow dependence at private+{b} "
                    f"(written ts={code}, read ts={ts})", iteration)

    def on_write(self, offset: int, size: int, ts: int, iteration: int) -> None:
        """Validate and update metadata for a private write (per byte)."""
        end = offset + size
        if end > self.size:
            self._grow(end)
        meta = self.meta
        chunk = meta[offset:end]
        if READ_LIVE_IN in chunk:
            b = offset + chunk.index(READ_LIVE_IN)
            raise Misspeculation(
                "privacy", f"overwrite of read-live-in byte at "
                f"private+{b} (conservative)", iteration)
        meta[offset:end] = bytes((ts,)) * size
        self.written.add((offset, size))

    def written_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for offset, size in self.written:
            out.update(range(offset, offset + size))
        return out

    def first_written(self) -> Optional[int]:
        """Lowest offset written since the last checkpoint, if any."""
        return min((offset for offset, _size in self.written), default=None)

    def read_live_in_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for offset, size in self.read_live_in:
            for b in range(offset, offset + size):
                if self.meta[b] == READ_LIVE_IN:
                    out.add(b)
        return out

    def write_iterations(self, epoch_start: int) -> Iterator[Tuple[int, int]]:
        """Yield (offset, absolute iteration) for every byte written since
        the last checkpoint."""
        for b in self.written_offsets():
            code = self.meta[b]
            if code >= TS_BASE:
                yield b, epoch_start + (code - TS_BASE)

    def reset_after_checkpoint(self) -> None:
        """Table 2 footnote: per-byte demotion after a checkpoint."""
        meta = self.meta
        for offset, size in self.written:
            for b in range(offset, offset + size):
                if meta[b] >= TS_BASE:
                    meta[b] = OLD_WRITE
        for offset, size in self.read_live_in:
            for b in range(offset, offset + size):
                if meta[b] == READ_LIVE_IN:
                    meta[b] = LIVE_IN
        self.written.clear()
        self.read_live_in.clear()

    def mark_old_writes(self, offsets: Iterable[int]) -> None:
        """Force the given byte offsets to old-write (grows once)."""
        offsets = list(offsets)
        if not offsets:
            return
        top = max(offsets)
        if top >= self.size:
            self._grow(top + 1)
        for b in offsets:
            self.meta[b] = OLD_WRITE

    def mark_old_write_runs(self, runs: Sequence[Tuple[int, int]]) -> None:
        """Run-based entry point, expanded back to offsets per byte."""
        offsets: List[int] = []
        for start, end in runs:
            offsets.extend(range(start, end))
        self.mark_old_writes(offsets)


def make_shadow(size: int):
    """Construct the configured shadow implementation (``REPRO_SHADOW``)."""
    if use_reference():
        return ReferenceShadowHeap(size)
    return ShadowHeap(size)


def timestamp_for(iteration: int, epoch_start: int) -> int:
    """Encode an iteration as a metadata timestamp; the checkpoint period
    bounds ``iteration - epoch_start`` so this always fits one byte."""
    ts = TS_BASE + (iteration - epoch_start)
    if not TS_BASE <= ts <= MAX_TIMESTAMP:
        raise ValueError(
            f"timestamp overflow: iteration {iteration} with epoch start "
            f"{epoch_start} (checkpoint period too large)")
    return ts
