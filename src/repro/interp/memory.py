"""Simulated guest memory: a 64-bit address space with named objects.

This substrate replaces the paper's POSIX ``shm``/``mmap`` machinery.  Key
properties preserved from the paper's design:

* **Heap tags in pointer bits.**  Logical heaps live at fixed virtual
  ranges whose base encodes a 3-bit tag in address bits 44–46 (§5.1), so a
  separation check is two bit operations on the pointer value, and the
  shadow address of a private byte is ``addr | SHADOW_BIT``.
* **Interval object map.**  Every allocation is a named object occupying a
  half-open address interval; any interior pointer resolves to (object,
  offset), which is what the pointer-to-object profiler records.
* **Copy-on-write overlays.**  A child address space sees its parent's
  bytes until it writes them, mirroring per-worker ``fork`` isolation;
  dirty pages are tracked at 4 KiB granularity for checkpoint costing.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import GuestFault

PAGE_SIZE = 4096
PAGE_SHIFT = 12

#: Heap-tag field location (paper §5.1: bits 44-46 of the address).
TAG_SHIFT = 44
TAG_MASK = 0x7

#: Region bases for ordinary (untagged) memory.
GLOBAL_BASE = 0x0000_1000_0000
STACK_BASE = 0x0000_2000_0000
HEAP_BASE = 0x0000_3000_0000

ALIGNMENT = 16


def heap_tag_of(addr: int) -> int:
    """Extract the 3-bit logical-heap tag from a pointer value."""
    return (addr >> TAG_SHIFT) & TAG_MASK


def _merge_runs(runs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Sort and coalesce half-open (start, end) runs."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(runs):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _subtract_runs(start: int, end: int,
                   covered: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Pieces of ``[start, end)`` not inside any of the sorted coalesced
    ``covered`` runs."""
    out: List[Tuple[int, int]] = []
    cursor = start
    for c_start, c_end in covered:
        if c_end <= cursor:
            continue
        if c_start >= end:
            break
        if c_start > cursor:
            out.append((cursor, c_start))
        cursor = max(cursor, c_end)
        if cursor >= end:
            return out
    if cursor < end:
        out.append((cursor, end))
    return out


def heap_base_for_tag(tag: int) -> int:
    if not 1 <= tag <= 7:
        raise ValueError(f"heap tag must be 1..7, got {tag}")
    return tag << TAG_SHIFT


class MemoryObject:
    """A contiguous allocation: ``[base, base+size)`` plus its identity.

    ``name`` is the profiler-visible object name (static site + dynamic
    context for heap/stack objects, the symbol name for globals).
    """

    __slots__ = ("base", "size", "data", "name", "kind", "alive", "site", "writable")

    def __init__(self, base: int, size: int, name: str, kind: str,
                 site: str = "", writable: bool = True):
        self.base = base
        self.size = size
        self.data = bytearray(size)
        self.name = name
        self.kind = kind  # "global" | "stack" | "heap" | "logical"
        self.site = site  # static allocation site id ("" for globals)
        self.alive = True
        self.writable = writable

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def tag(self) -> int:
        return heap_tag_of(self.base)

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.end

    def __repr__(self) -> str:
        return f"<MemoryObject {self.name} @0x{self.base:x} +{self.size}>"


class AddressSpace:
    """Byte-addressable memory backed by named objects.

    Lookup is via a page map (page number -> objects overlapping the
    page).  Allocation is bump-pointer per region — addresses are never
    reused, so stale pointers fault instead of silently aliasing, which is
    what the lifetime profiler and the short-lived heap validation rely
    on.

    An overlay never mutates an ancestor: its stores go to copy-on-write
    copies and its frees of ancestors' objects to ``_freed``, both its
    own.  ``generation`` counts the events after which an address that
    resolved to a still-live ancestor's object resolves differently
    through this space — a copy installed over it, its free; generated
    code keys its per-site inline caches on it (:meth:`load_entry`,
    DESIGN.md §7 "Memory access").

    As after ``fork``, a space that has overlays in use may store and
    free but not allocate (the overlay's cursors are copies: both would
    hand out the same addresses), and only leaves and the root change at
    all.  The executors comply: workers are leaves over main, and after
    every stretch the main space runs they are discarded and new ones
    made — in process, or in a resident pool child once its copy of
    main has been re-*synchronised* with what the stretch changed:
    :meth:`track_changes`, :meth:`take_changes` and
    :meth:`apply_changes` carry the stored-to pages, the allocations and
    frees and the cursors from the one to the other.
    """

    __slots__ = ("parent", "_pages", "_cursors", "_freed",
                 "generation", "dirty_pages", "bytes_allocated",
                 "_track_dirty", "_layout_log")

    def __init__(self, parent: Optional["AddressSpace"] = None):
        self.parent = parent
        self._pages: Dict[int, List[MemoryObject]] = {}
        if parent is None:
            self._cursors: Dict[int, int] = {
                GLOBAL_BASE: GLOBAL_BASE,
                STACK_BASE: STACK_BASE,
                HEAP_BASE: HEAP_BASE,
            }
        else:
            self._cursors = dict(parent._cursors)
        #: bases of ancestors' objects freed through this overlay
        self._freed: Set[int] = set()
        self.generation = 0
        self.dirty_pages: Set[int] = set()
        self.bytes_allocated = 0
        # Dirty-page tracking matters for worker overlays (checkpoint
        # costing) and for a root with resident copies to keep in step
        # (track_changes); otherwise the base space skips the bookkeeping.
        self._track_dirty = parent is not None
        #: ``(born, freed)`` since the log was last taken — objects
        #: allocated through this space and still alive, by base, and
        #: bases of older ones freed through it; None = not kept.
        self._layout_log: Optional[
            Tuple[Dict[int, MemoryObject], List[int]]] = None

    # -- registration ------------------------------------------------------

    def _register(self, obj: MemoryObject) -> None:
        first = obj.base >> PAGE_SHIFT
        last = (obj.end - 1) >> PAGE_SHIFT if obj.size else first
        for page in range(first, last + 1):
            self._pages.setdefault(page, []).append(obj)

    def _unregister(self, obj: MemoryObject) -> None:
        first = obj.base >> PAGE_SHIFT
        last = (obj.end - 1) >> PAGE_SHIFT if obj.size else first
        for page in range(first, last + 1):
            bucket = self._pages.get(page)
            if bucket is not None and obj in bucket:
                bucket.remove(obj)
                if not bucket:
                    del self._pages[page]

    # -- allocation ----------------------------------------------------------

    def region_cursor(self, region_base: int) -> int:
        if region_base not in self._cursors:
            self._cursors[region_base] = region_base
        return self._cursors[region_base]

    def allocate(
        self,
        size: int,
        name: str,
        kind: str,
        region_base: int = HEAP_BASE,
        site: str = "",
        writable: bool = True,
    ) -> MemoryObject:
        if size < 0:
            raise GuestFault(f"negative allocation size {size}")
        size = max(size, 1)
        cursor = self.region_cursor(region_base)
        base = (cursor + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        self._cursors[region_base] = base + size
        obj = MemoryObject(base, size, name, kind, site, writable)
        self._register(obj)
        self.bytes_allocated += size
        if self._layout_log is not None:
            self._layout_log[0][base] = obj
        return obj

    def install_copy(self, copy: MemoryObject) -> None:
        """Make ``copy`` this overlay's private replacement of the
        ancestor's object at the same addresses — what the first store
        to it makes, or the runtime with contents of its own."""
        self._register(copy)
        self.generation += 1

    def free(self, addr: int) -> MemoryObject:
        obj, offset = self.find(addr)
        if offset != 0:
            raise GuestFault(f"free of interior pointer 0x{addr:x} into {obj.name}")
        if not obj.alive:
            raise GuestFault(f"double free of {obj.name}")
        private = not self._owns(obj)
        if not private:
            obj.alive = False
            self._unregister(obj)
            if self._layout_log is not None:
                born, freed = self._layout_log
                if born.pop(obj.base, None) is None:
                    freed.append(obj.base)
            # An owned object is a copy of an ancestor's when an ancestor
            # holds an object at its base: addresses are never reused.
            space = self.parent
            while space is not None and not private:
                for other in space._pages.get(obj.base >> PAGE_SHIFT, ()):
                    if other.base == obj.base:
                        private = True
                        break
                space = space.parent
        if private:
            # An ancestor's object (or this overlay's copy of one): the
            # free is private to the overlay, as a forked worker's is.
            self._freed.add(obj.base)
            self.generation += 1
        return obj

    # -- lookup -----------------------------------------------------------------

    def find(self, addr: int, size: int = 1) -> Tuple[MemoryObject, int]:
        """Resolve an address to (object, offset) or fault."""
        if addr == 0:
            raise GuestFault("null pointer dereference")
        page = addr >> PAGE_SHIFT
        space: Optional[AddressSpace] = self
        hidden: Optional[Set[int]] = None  # freed by the spaces walked past
        while space is not None:
            # A live COW copy sits in the copier's own page map, so it
            # is met before the object it shadows.
            for obj in space._pages.get(page, ()):
                # Bounds tests spelled out (MemoryObject.contains): this
                # is the miss path of every guest load and store.
                if (obj.alive and obj.base <= addr
                        and addr + size <= obj.base + obj.size
                        and not (hidden and obj.base in hidden)):
                    return obj, addr - obj.base
            if space._freed:
                hidden = (space._freed if hidden is None
                          else hidden | space._freed)
            space = space.parent
        raise GuestFault(f"wild pointer 0x{addr:x} (size {size})")

    def try_find(self, addr: int, size: int = 1) -> Optional[Tuple[MemoryObject, int]]:
        try:
            return self.find(addr, size)
        except GuestFault:
            return None

    def object_for(self, addr: int) -> MemoryObject:
        return self.find(addr)[0]

    def covering_pieces(
        self, addr: int, size: int
    ) -> List[Tuple[int, int, MemoryObject]]:
        """Resolve the range ``[addr, addr+size)`` to maximal pieces
        ``(start, end, object)`` such that :meth:`find` would return
        ``object`` for every address in the piece; addresses where
        ``find`` would fault are simply absent.  Sorted by start.

        This is the bulk counterpart of :meth:`find` for the vectorized
        checkpoint paths: one page-map intersection per object touched
        instead of one lookup per byte.  The same precedence rules apply
        — live objects only, nearer spaces shadow ancestors (a COW copy
        its original), and objects freed through an overlay are gone.
        """
        end = addr + size
        if size <= 0:
            return []
        pieces: List[Tuple[int, int, MemoryObject]] = []
        covered: List[Tuple[int, int]] = []  # claimed by nearer spaces
        hidden: Set[int] = set()  # freed by nearer spaces
        space: Optional[AddressSpace] = self
        while space is not None:
            seen: Set[int] = set()
            candidates: List[Tuple[int, int, MemoryObject]] = []
            for page in range(addr >> PAGE_SHIFT,
                              ((end - 1) >> PAGE_SHIFT) + 1):
                for obj in space._pages.get(page, ()):
                    if (not obj.alive or id(obj) in seen
                            or obj.base in hidden):
                        continue
                    seen.add(id(obj))
                    lo = max(addr, obj.base)
                    hi = min(end, obj.end)
                    if lo >= hi:
                        continue
                    candidates.append((lo, hi, obj))
            for lo, hi, obj in candidates:
                for sub_lo, sub_hi in _subtract_runs(lo, hi, covered):
                    pieces.append((sub_lo, sub_hi, obj))
            if candidates:
                covered = _merge_runs(
                    covered + [(lo, hi) for lo, hi, _obj in candidates])
            hidden |= space._freed
            space = space.parent
        pieces.sort(key=lambda piece: piece[0])
        return pieces

    # -- copy-on-write -------------------------------------------------------------

    def _writable_object(self, addr: int, size: int) -> Tuple[MemoryObject, int]:
        obj, offset = self.find(addr, size)
        if not obj.writable:
            raise GuestFault(f"write to read-only object {obj.name} @0x{addr:x}")
        if self.parent is not None and not self._owns(obj):
            # find() met no live copy on the way to the ancestor.
            copy = MemoryObject(obj.base, obj.size, obj.name, obj.kind,
                                obj.site, obj.writable)
            copy.data[:] = obj.data
            self.install_copy(copy)
            obj = copy
        return obj, offset

    def _owns(self, obj: MemoryObject) -> bool:
        for candidate in self._pages.get(obj.base >> PAGE_SHIFT, ()):
            if candidate is obj:
                return True
        return False

    def _touch_pages(self, addr: int, size: int) -> None:
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self.dirty_pages.add(page)

    # -- typed access -----------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        obj, offset = self.find(addr, size)
        return bytes(obj.data[offset:offset + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        obj, offset = self._writable_object(addr, len(data))
        obj.data[offset:offset + len(data)] = data
        if self._track_dirty:
            self._touch_pages(addr, len(data))

    def read_int(self, addr: int, size: int, signed: bool) -> int:
        obj, offset = self.find(addr, size)
        return int.from_bytes(obj.data[offset:offset + size], "little",
                              signed=signed)

    def write_int(self, addr: int, value: int, size: int) -> None:
        obj, offset = self._writable_object(addr, size)
        mask = (1 << (size * 8)) - 1
        obj.data[offset:offset + size] = (value & mask).to_bytes(size, "little")
        if self._track_dirty:
            self._touch_pages(addr, size)

    def read_float(self, addr: int, size: int = 8) -> float:
        obj, offset = self.find(addr, size)
        return struct.unpack(
            "<d" if size == 8 else "<f", obj.data[offset:offset + size])[0]

    def write_float(self, addr: int, value: float, size: int = 8) -> None:
        self.write_bytes(addr, struct.pack("<d" if size == 8 else "<f", value))

    # -- inline-cache entries (generated code, DESIGN.md §7) -----------------

    def load_entry(self, addr: int, size: int
                   ) -> Tuple["AddressSpace", MemoryObject, int, int, int]:
        """Miss path of a generated load site: resolve like :meth:`find`
        (same faults) and return the site's next cache entry, ``(space,
        object, lo, hi, generation)``.  It answers for every access inside
        ``[lo, hi)`` through ``space`` while ``space.generation`` stands
        and ``object.alive``."""
        obj = self.find(addr, size)[0]
        return self, obj, obj.base, obj.base + obj.size, self.generation

    def store_entry(self, addr: int, size: int
                    ) -> Tuple["AddressSpace", MemoryObject, int, int, int]:
        """Miss path of a generated store site: as :meth:`load_entry`
        through :meth:`_writable_object`, so the object is one this space
        owns (copied on write if need be) and a later hit skips no copy;
        a hit also requires ``object.writable``."""
        obj = self._writable_object(addr, size)[0]
        return self, obj, obj.base, obj.base + obj.size, self.generation

    def read_cstring(self, addr: int, limit: int = 1 << 16) -> str:
        obj, offset = self.find(addr)
        end = obj.data.find(b"\x00", offset)
        if end == -1 or end - offset > limit:
            raise GuestFault(f"unterminated string at 0x{addr:x}")
        return obj.data[offset:end].decode("utf-8", errors="replace")

    def fill(self, addr: int, value: int, size: int) -> None:
        self.write_bytes(addr, bytes([value & 0xFF]) * size)

    def copy(self, dst: int, src: int, size: int) -> None:
        self.write_bytes(dst, self.read_bytes(src, size))

    # -- introspection ---------------------------------------------------------------------

    def live_objects(self) -> Iterable[MemoryObject]:
        seen: Set[int] = set()
        for bucket in self._pages.values():
            for obj in bucket:
                if obj.alive and id(obj) not in seen:
                    seen.add(id(obj))
                    yield obj

    # -- keeping a copy of this space in step (pool backend) -----------------------------

    def track_changes(self) -> None:
        """From now on record what changes here — stored-to pages in
        :attr:`dirty_pages`, allocations and frees in the layout log —
        so that a copy of this space made now (a forked pool child's)
        can be brought up to date later instead of being made again."""
        self._track_dirty = True
        self.dirty_pages.clear()
        self._layout_log = ({}, [])

    def take_changes(self, also: Iterable[Tuple[int, int]],
                     limit: int) -> Optional[tuple]:
        """What changed here since :meth:`track_changes` or the last
        call, by value, for :meth:`apply_changes` on a copy; the record
        starts afresh.

        Layout: the objects allocated since and still alive as ``(base,
        size, name, kind, site, writable, contents)``, the bases of
        older objects freed since, the region cursors and
        ``bytes_allocated``; an object allocated and freed again in
        between leaves only the cursor it moved.  Contents: ``(address,
        bytes)`` over the live parts of the dirty pages and of the
        ``also`` ranges (what the caller wrote into ``data`` directly),
        each byte once, a new object's with the object.

        None when all that carries more than ``limit`` bytes."""
        born, freed = self._layout_log
        ranges = [(page << PAGE_SHIFT, (page + 1) << PAGE_SHIFT)
                  for page in self.dirty_pages]
        ranges.extend(also)
        self.dirty_pages.clear()
        self._layout_log = ({}, [])
        total = sum(obj.size for obj in born.values())
        runs: List[Tuple[int, bytes]] = []
        for start, end in _merge_runs(ranges):
            for s, e, obj in self.covering_pieces(start, end - start):
                if obj.base not in born:
                    runs.append((s, bytes(obj.data[s - obj.base:e - obj.base])))
                    total += e - s
            if total > limit:
                break
        if total > limit:
            return None
        objects = [(o.base, o.size, o.name, o.kind, o.site, o.writable,
                    bytes(o.data)) for o in born.values()]
        return (objects, freed, dict(self._cursors), self.bytes_allocated,
                runs)

    def apply_changes(self, changes: tuple) -> None:
        """Make this space what the one it is a copy of was when
        :meth:`take_changes` read ``changes`` off it.  No overlay of
        this space may be in use: one made before sees neither the new
        cursors nor the frees."""
        objects, freed, cursors, bytes_allocated, runs = changes
        for base in freed:
            obj = self.find(base)[0]
            obj.alive = False
            self._unregister(obj)
        for base, size, name, kind, site, writable, contents in objects:
            obj = MemoryObject(base, size, name, kind, site, writable)
            obj.data[:] = contents
            self._register(obj)
        self._cursors = dict(cursors)
        self.bytes_allocated = bytes_allocated
        for addr, blob in runs:
            self.patch(addr, blob)

    def patch(self, addr: int, blob: bytes) -> None:
        """Set the live bytes of ``[addr, addr + len(blob))`` as they
        resolve through this space, in place: no copy-on-write, no
        ``writable`` test, nothing recorded as dirty."""
        for s, e, obj in self.covering_pieces(addr, len(blob)):
            obj.data[s - obj.base:e - obj.base] = blob[s - addr:e - addr]
