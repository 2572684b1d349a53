"""Serializable per-worker epoch state shipped to the checkpoint.

An :class:`EpochFragment` is everything the commit phase of a checkpoint
(§5.2) needs to know about one worker's epoch: which private bytes it
read apparently-live-in (for phase-two privacy validation), which bytes
it wrote and at which iteration (for the latest-iteration-wins merge),
and the partial results accumulated in its reduction-heap replica.

The simulated backend extracts fragments in-process right before the
commit; the pool backend extracts them inside each forked worker and
ships them back on its report pipe.  Both feed the exact same
:meth:`~repro.runtime.system.RuntimeSystem.checkpoint` commit path, so
checkpoint semantics are identical across backends by construction.

Format version 3 (``format`` field).  Private bytes travel as sorted
half-open interval runs plus packed ``bytes`` payloads (since format 2)
— ``write_runs`` carries ``(start, end, rel_iter)`` per maximal run of
consecutive bytes written at the same iteration, with the per-byte
kinds and values concatenated in run order in
``write_kinds``/``write_values`` — and reduction partial results
travel the same way (new in format 3): ``redux_runs`` carries one
:class:`ReduxRun` ``(addr, size, operator, is_float, data)`` per
maximal stretch of adjacent updated elements of one reduction object,
``data`` being that stretch of the worker's replica as it lies in
memory.  A fragment therefore costs ~1 shipped byte per written or
reduced byte (format 1 paid ~60 per private byte, format 2 ~45 per
reduction element), and the checkpoint validates, merges and folds with
slice and ``struct`` operations instead of per-byte or per-element
loops.  Every field is a plain int/bytes/tuple container, so fragments
still round-trip through :mod:`pickle` with no custom machinery.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import (Iterable, Iterator, List, NamedTuple, Optional, Set,
                    Tuple)

from .intervals import runs_from_offsets
from .shadow import MAX_TIMESTAMP, TS_BASE

#: Kinds for one written private byte in :attr:`EpochFragment.write_kinds`.
WRITE_VALUE = 0   #: normal write: carry the byte value to commit
WRITE_FREED = 1   #: the containing object was freed within the epoch
WRITE_LOCAL = 2   #: worker-local allocation, absent from main memory

#: Wire-format version of :class:`EpochFragment`; bump on layout changes
#: so a mixed-version parent/child pairing fails loudly instead of
#: merging garbage.
FRAGMENT_FORMAT = 3


#: :mod:`struct` codes of the scalar types a reduction element can have
#: (``size, is_float``; integers unsigned).
_ELEMENT_CODES = {(1, False): "B", (2, False): "H", (4, False): "I",
                  (8, False): "Q", (4, True): "f", (8, True): "d"}


@dataclass
class ReduxElement:
    """One element of a reduction object with its partial result — the
    unit of the per-element oracle fold (``REPRO_SHADOW=ref``), expanded
    from a :class:`ReduxRun`.

    ``operator is None`` marks an element whose object has no reduction
    plan (the runtime still accounts its bytes, but has no merge recipe
    for it — matching the historical checkpoint behaviour).
    """

    addr: int
    size: int
    operator: Optional[str]  # BinOpKind name, e.g. "ADD"/"FADD"/"MUL"
    is_float: bool
    delta: object            # int or float partial result


class ReduxRun(NamedTuple):
    """Partial results of adjacent elements of one reduction object.

    ``data`` is ``len(data) // size`` elements of ``size`` bytes each,
    as they lie in the worker's identity-initialized replica from
    ``addr`` on.  ``operator is None`` marks a stretch with no reduction
    plan: one "element" of ``size == len(data)`` zero bytes, counted by
    the checkpoint and not merged.
    """

    addr: int
    size: int
    operator: Optional[str]  # BinOpKind name, e.g. "ADD"/"FADD"/"MUL"
    is_float: bool
    data: bytes

    def struct_format(self) -> str:
        """:mod:`struct` format of the whole run, integers unsigned."""
        return "<%d%s" % (len(self.data) // self.size,
                          _ELEMENT_CODES[self.size, self.is_float])

    def elements(self) -> List[ReduxElement]:
        """The per-element view (oracle and test paths), each element
        decoded on its own as a typed read of the replica would."""
        if self.operator is None:
            return [ReduxElement(self.addr, self.size, None, False, 0)]
        signed = self.operator in ("ADD", "MUL")
        code = "<d" if self.size == 8 else "<f"
        return [ReduxElement(
            self.addr + pos, self.size, self.operator, self.is_float,
            struct.unpack_from(code, self.data, pos)[0] if self.is_float
            else int.from_bytes(self.data[pos:pos + self.size], "little",
                                signed=signed))
            for pos in range(0, len(self.data), self.size)]


@dataclass
class EpochFragment:
    """One worker's speculative state for one checkpoint epoch."""

    wid: int
    epoch_start: int
    #: Wire-format version; always :data:`FRAGMENT_FORMAT` for fragments
    #: built by this code.
    format: int = FRAGMENT_FORMAT
    #: Sorted coalesced half-open runs of private-heap byte offsets read
    #: while apparently live-in (phase-2 privacy validation input).
    read_live_in_runs: Tuple[Tuple[int, int], ...] = ()
    #: Sorted ``(start, end, rel_iter)`` runs of written bytes;
    #: ``rel_iter`` is the writing iteration relative to ``epoch_start``.
    #: Runs are maximal over consecutive offsets with the same iteration
    #: (a kind change does *not* split a run).
    write_runs: Tuple[Tuple[int, int, int], ...] = ()
    #: One ``WRITE_*`` code per written byte, concatenated in run order.
    write_kinds: bytes = b""
    #: One committed byte value per written byte, in run order
    #: (0 for :data:`WRITE_FREED`/:data:`WRITE_LOCAL`).
    write_values: bytes = b""
    #: Sorted coalesced runs of every byte offset the worker wrote this
    #: epoch — a superset of ``write_runs`` coverage (prediction restores
    #: count, and freed bytes keep their offsets); cross-worker check
    #: input.
    epoch_written_runs: Tuple[Tuple[int, int], ...] = ()
    #: Reduction partial results, sorted by address: one run per maximal
    #: stretch of adjacent updated elements of one reduction object.
    redux_runs: Tuple[ReduxRun, ...] = ()
    #: Dirty private pages, for the checkpoint copy-cost model.
    dirty_private_pages: int = 0

    @classmethod
    def pack(cls, wid: int, epoch_start: int, *,
             read_live_in: Iterable[int] = (),
             writes: Iterable[Tuple[int, int, int, int]] = (),
             epoch_written: Iterable[int] = (),
             redux_runs: Iterable[ReduxRun] = (),
             dirty_private_pages: int = 0) -> "EpochFragment":
        """Build a fragment from per-byte inputs (the format-1 shape):
        ``writes`` is ``(offset, absolute iteration, kind, value)`` per
        byte, at most one entry per offset.  This is the oracle/test
        construction path; the vectorized extractor builds the run form
        directly."""
        ordered = sorted(writes)
        runs: List[Tuple[int, int, int]] = []
        kinds = bytearray()
        values = bytearray()
        prev_offset = None
        for offset, iteration, kind, value in ordered:
            if offset == prev_offset:
                raise ValueError(f"duplicate write offset {offset}")
            prev_offset = offset
            rel = iteration - epoch_start
            if not 0 <= rel <= MAX_TIMESTAMP - TS_BASE:
                raise ValueError(
                    f"iteration {iteration} out of range for epoch start "
                    f"{epoch_start}")
            if runs and offset == runs[-1][1] and rel == runs[-1][2]:
                start, _end, _rel = runs[-1]
                runs[-1] = (start, offset + 1, rel)
            else:
                runs.append((offset, offset + 1, rel))
            kinds.append(kind)
            values.append(value)
        return cls(
            wid=wid, epoch_start=epoch_start,
            read_live_in_runs=tuple(runs_from_offsets(read_live_in)),
            write_runs=tuple(runs),
            write_kinds=bytes(kinds),
            write_values=bytes(values),
            epoch_written_runs=tuple(runs_from_offsets(epoch_written)),
            redux_runs=tuple(redux_runs),
            dirty_private_pages=dirty_private_pages)

    # -- per-byte views (oracle, forensics, and test paths) -----------------

    def iter_writes(self) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(offset, absolute iteration, kind, value)`` per written
        byte, in offset order — the format-1 view of the packed runs."""
        pos = 0
        kinds = self.write_kinds
        values = self.write_values
        for start, end, rel in self.write_runs:
            iteration = self.epoch_start + rel
            for b in range(start, end):
                yield b, iteration, kinds[pos], values[pos]
                pos += 1

    def write_spans(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` extents of :attr:`write_runs`."""
        return [(start, end) for start, end, _rel in self.write_runs]

    def redux_spans(self) -> List[Tuple[int, int]]:
        """The ``(start, end)`` address extents of :attr:`redux_runs`."""
        return [(run.addr, run.addr + len(run.data))
                for run in self.redux_runs]

    def write_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for start, end, _rel in self.write_runs:
            out.update(range(start, end))
        return out

    def write_byte_count(self) -> int:
        return len(self.write_kinds)

    def read_live_in_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for start, end in self.read_live_in_runs:
            out.update(range(start, end))
        return out

    def epoch_written_offsets(self) -> Set[int]:
        out: Set[int] = set()
        for start, end in self.epoch_written_runs:
            out.update(range(start, end))
        return out

    def iteration_of(self, offset: int) -> Optional[int]:
        """Absolute iteration that wrote ``offset``, or None if this
        fragment did not write it.  Misspeculation-path only."""
        for start, end, rel in self.write_runs:
            if start <= offset < end:
                return self.epoch_start + rel
        return None
