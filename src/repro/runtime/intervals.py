"""Half-open interval runs over private-heap byte offsets.

The vectorized shadow/checkpoint layers never enumerate individual byte
offsets on the hot path; they carry ``(start, end)`` half-open runs and
operate on ``bytes``/``bytearray`` slices.  This module is the shared
vocabulary: a lazily-coalescing :class:`IntervalSet` (the bulk
replacement for the per-byte ``Set[int]`` bookkeeping in
``WorkerState``/``ShadowHeap``) plus the run algebra the checkpoint
needs (coalescing, union, first-overlap intersection) and the two
byte-scan helpers that split a metadata window into runs at C speed
(``bytes.translate`` + ``find`` for a single value; the ``lstrip`` trick
for maximal constant-value runs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Run = Tuple[int, int]


def coalesce(runs: Iterable[Run]) -> List[Run]:
    """Sort and merge overlapping/adjacent half-open runs."""
    merged: List[Run] = []
    for start, end in sorted(runs):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def runs_from_offsets(offsets: Iterable[int]) -> List[Run]:
    """Group a set of byte offsets into maximal consecutive runs."""
    ordered = sorted(set(offsets))
    runs: List[Run] = []
    for b in ordered:
        if runs and b == runs[-1][1]:
            runs[-1] = (runs[-1][0], b + 1)
        else:
            runs.append((b, b + 1))
    return runs


def union_runs(run_lists: Iterable[Sequence[Run]]) -> List[Run]:
    """Coalesced union of several run lists."""
    flat: List[Run] = []
    for runs in run_lists:
        flat.extend(runs)
    return coalesce(flat)


def first_overlap(a: Sequence[Run], b: Sequence[Run]) -> Optional[int]:
    """Lowest byte offset contained in both sorted coalesced run lists,
    or None when they are disjoint.  Two-pointer sweep: O(len(a)+len(b))
    regardless of how many bytes the runs cover."""
    i = j = 0
    while i < len(a) and j < len(b):
        a0, a1 = a[i]
        b0, b1 = b[j]
        lo = max(a0, b0)
        if lo < min(a1, b1):
            return lo
        if a1 <= b1:
            i += 1
        else:
            j += 1
    return None


_EQ_TABLES: Dict[int, bytes] = {}


def _eq_table(value: int) -> bytes:
    """Translate table mapping ``value`` -> 0 and everything else -> 1."""
    table = _EQ_TABLES.get(value)
    if table is None:
        table = bytes(0 if i == value else 1 for i in range(256))
        _EQ_TABLES[value] = table
    return table


def value_runs(chunk: bytes, value: int, base: int = 0) -> List[Run]:
    """Maximal runs (absolute offsets, ``base`` + index) where ``chunk``
    equals ``value``.  One translate pass plus ``find`` jumps — no
    per-byte Python loop."""
    flags = chunk.translate(_eq_table(value))
    runs: List[Run] = []
    n = len(flags)
    i = flags.find(0)
    while i >= 0:
        j = flags.find(1, i + 1)
        if j < 0:
            j = n
        runs.append((base + i, base + j))
        i = flags.find(0, j + 1)
    return runs


def constant_runs(chunk: bytes, base: int = 0) -> List[Tuple[int, int, int]]:
    """Split ``chunk`` into maximal runs of one repeated byte value,
    returned as ``(start, end, value)`` with absolute offsets.

    ``lstrip(first_byte)`` finds the end of each constant prefix inside
    the C library, so the Python loop runs once per *run*, not per byte.
    """
    runs: List[Tuple[int, int, int]] = []
    i, n = 0, len(chunk)
    while i < n:
        rest = chunk[i:]
        stripped = rest.lstrip(rest[:1])
        j = n - len(stripped)
        runs.append((base + i, base + j, chunk[i]))
        i = j
    return runs


class IntervalSet:
    """Mutable set of byte offsets stored as half-open runs.

    Built for the two access patterns the runtime actually has: a hot
    ``add_range`` on every private write (sequential writes extend the
    last pending run in O(1)), and occasional whole-set reads at
    checkpoint/misspec time (``runs()`` coalesces lazily and caches).
    ``update`` accepts a ``range`` or any iterable of ints so existing
    tests and callers that thought in offsets keep working.
    """

    __slots__ = ("_pending", "_runs")

    #: Coalesce eagerly once this many un-merged pending runs pile up, so
    #: pathological scatter patterns stay O(n log n) overall.
    _COMPACT_THRESHOLD = 512

    def __init__(self) -> None:
        self._pending: List[Run] = []
        self._runs: Optional[List[Run]] = None

    def add_range(self, start: int, end: int) -> None:
        """Add the half-open byte range ``[start, end)``."""
        if end <= start:
            return
        pending = self._pending
        if pending:
            last_start, last_end = pending[-1]
            if last_start <= start and end <= last_end:
                return  # already covered: common for repeated writes
            if last_start <= start <= last_end:
                pending[-1] = (last_start, end if end > last_end else last_end)
                self._runs = None
                return
        pending.append((start, end))
        self._runs = None
        if len(pending) > self._COMPACT_THRESHOLD:
            self._pending = coalesce(pending)

    def clear(self) -> None:
        self._pending.clear()
        self._runs = None

    def runs(self) -> List[Run]:
        """Sorted, coalesced runs.  Cached until the next mutation; the
        returned list must not be mutated by callers."""
        if self._runs is None:
            self._runs = coalesce(self._pending)
            self._pending = list(self._runs)
        return self._runs

    def offsets(self) -> set:
        """Materialize as a plain set of ints (oracle/test paths only)."""
        out: set = set()
        for start, end in self.runs():
            out.update(range(start, end))
        return out

    def min_offset(self) -> Optional[int]:
        runs = self.runs()
        return runs[0][0] if runs else None

    def __bool__(self) -> bool:
        return bool(self._pending)

    def __contains__(self, offset: int) -> bool:
        for start, end in self.runs():
            if start > offset:
                return False
            if offset < end:
                return True
        return False

    def __repr__(self) -> str:
        return f"IntervalSet({self.runs()!r})"
