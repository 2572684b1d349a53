"""Simulated memory: interval object map, heap tags, COW overlays."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.heaps import SHADOW_BIT, HeapKind, shadow_address, tag_matches
from repro.interp.errors import GuestFault
from repro.interp.memory import (
    GLOBAL_BASE,
    HEAP_BASE,
    PAGE_SIZE,
    STACK_BASE,
    TAG_SHIFT,
    AddressSpace,
    MemoryObject,
    heap_base_for_tag,
    heap_tag_of,
)


class TestAllocation:
    def test_alignment(self):
        space = AddressSpace()
        a = space.allocate(10, "a", "heap")
        b = space.allocate(1, "b", "heap")
        assert a.base % 16 == 0 and b.base % 16 == 0
        assert b.base >= a.end

    def test_addresses_never_reused(self):
        space = AddressSpace()
        a = space.allocate(64, "a", "heap")
        space.free(a.base)
        b = space.allocate(64, "b", "heap")
        assert b.base != a.base

    def test_zero_initialized(self):
        space = AddressSpace()
        obj = space.allocate(8, "z", "heap")
        assert space.read_int(obj.base, 8, signed=False) == 0

    def test_regions_are_disjoint(self):
        space = AddressSpace()
        g = space.allocate(8, "g", "global", GLOBAL_BASE)
        s = space.allocate(8, "s", "stack", STACK_BASE)
        h = space.allocate(8, "h", "heap", HEAP_BASE)
        assert g.base < STACK_BASE <= s.base < HEAP_BASE <= h.base


class TestLookup:
    def test_interior_pointer_resolves(self):
        space = AddressSpace()
        obj = space.allocate(100, "o", "heap")
        found, off = space.find(obj.base + 37)
        assert found is obj and off == 37

    def test_null_faults(self):
        with pytest.raises(GuestFault, match="null"):
            AddressSpace().find(0)

    def test_wild_pointer_faults(self):
        with pytest.raises(GuestFault, match="wild"):
            AddressSpace().find(0xDEAD0000)

    def test_out_of_bounds_access_faults(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        with pytest.raises(GuestFault):
            space.read_bytes(obj.base + 4, 8)  # crosses the end

    def test_use_after_free_faults(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.free(obj.base)
        with pytest.raises(GuestFault):
            space.read_bytes(obj.base, 1)

    def test_double_free_faults(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.free(obj.base)
        # The slot is unregistered, so the second free faults as a wild
        # pointer (addresses are never reused).
        with pytest.raises(GuestFault):
            space.free(obj.base)

    def test_interior_free_faults(self):
        space = AddressSpace()
        obj = space.allocate(32, "o", "heap")
        with pytest.raises(GuestFault, match="interior"):
            space.free(obj.base + 8)


class TestTypedAccess:
    def test_little_endian(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.write_int(obj.base, 0x0102030405060708, 8)
        assert space.read_bytes(obj.base, 2) == b"\x08\x07"

    def test_signed_roundtrip(self):
        space = AddressSpace()
        obj = space.allocate(4, "o", "heap")
        space.write_int(obj.base, -5, 4)
        assert space.read_int(obj.base, 4, signed=True) == -5
        assert space.read_int(obj.base, 4, signed=False) == 2**32 - 5

    def test_float_roundtrip(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.write_float(obj.base, 3.14159)
        assert space.read_float(obj.base) == pytest.approx(3.14159)

    def test_cstring(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        obj.data[:4] = b"hi\x00x"
        assert space.read_cstring(obj.base) == "hi"

    def test_fill_and_copy(self):
        space = AddressSpace()
        a = space.allocate(16, "a", "heap")
        b = space.allocate(16, "b", "heap")
        space.fill(a.base, 0xAB, 16)
        space.copy(b.base, a.base, 16)
        assert space.read_bytes(b.base, 16) == b"\xab" * 16

    def test_readonly_object_rejects_writes(self):
        space = AddressSpace()
        obj = space.allocate(8, "ro", "heap", writable=False)
        with pytest.raises(GuestFault, match="read-only"):
            space.write_int(obj.base, 1, 4)


class TestHeapTags:
    def test_tag_encoding(self):
        for tag in range(1, 8):
            base = heap_base_for_tag(tag)
            assert heap_tag_of(base) == tag
            assert heap_tag_of(base + 12345) == tag

    def test_normal_memory_has_tag_zero(self):
        assert heap_tag_of(GLOBAL_BASE) == 0
        assert heap_tag_of(HEAP_BASE + 100) == 0

    def test_private_shadow_differ_by_one_bit(self):
        diff = HeapKind.PRIVATE.base ^ HeapKind.SHADOW.base
        assert diff == SHADOW_BIT
        assert bin(diff).count("1") == 1

    def test_shadow_address_is_single_or(self):
        addr = HeapKind.PRIVATE.base + 0x1234
        assert shadow_address(addr) == addr | SHADOW_BIT
        assert heap_tag_of(shadow_address(addr)) == int(HeapKind.SHADOW)

    def test_tag_matches(self):
        addr = HeapKind.REDUX.base + 8
        assert tag_matches(addr, HeapKind.REDUX)
        assert not tag_matches(addr, HeapKind.PRIVATE)

    def test_allocation_in_tagged_region(self):
        space = AddressSpace()
        obj = space.allocate(64, "p", "logical", HeapKind.PRIVATE.base)
        assert obj.tag == int(HeapKind.PRIVATE)

    def test_sixteen_terabytes_per_heap(self):
        # The paper: "allows 16 terabytes of allocation within any heap".
        assert heap_base_for_tag(2) - heap_base_for_tag(1) == 16 * 2**40


class TestCopyOnWrite:
    def test_child_reads_parent(self):
        parent = AddressSpace()
        obj = parent.allocate(8, "o", "heap")
        parent.write_int(obj.base, 77, 8)
        child = AddressSpace(parent=parent)
        assert child.read_int(obj.base, 8, signed=True) == 77

    def test_child_write_does_not_leak_to_parent(self):
        parent = AddressSpace()
        obj = parent.allocate(8, "o", "heap")
        parent.write_int(obj.base, 1, 8)
        child = AddressSpace(parent=parent)
        child.write_int(obj.base, 2, 8)
        assert parent.read_int(obj.base, 8, True) == 1
        assert child.read_int(obj.base, 8, True) == 2

    def test_cow_preserves_untouched_bytes(self):
        parent = AddressSpace()
        obj = parent.allocate(16, "o", "heap")
        parent.write_int(obj.base + 8, 42, 8)
        child = AddressSpace(parent=parent)
        child.write_int(obj.base, 1, 8)  # copy triggered here
        assert child.read_int(obj.base + 8, 8, True) == 42

    def test_two_children_isolated(self):
        parent = AddressSpace()
        obj = parent.allocate(8, "o", "heap")
        a = AddressSpace(parent=parent)
        b = AddressSpace(parent=parent)
        a.write_int(obj.base, 10, 8)
        b.write_int(obj.base, 20, 8)
        assert a.read_int(obj.base, 8, True) == 10
        assert b.read_int(obj.base, 8, True) == 20

    def test_child_sees_parent_updates_before_cow(self):
        parent = AddressSpace()
        obj = parent.allocate(8, "o", "heap")
        child = AddressSpace(parent=parent)
        parent.write_int(obj.base, 5, 8)
        assert child.read_int(obj.base, 8, True) == 5

    def test_dirty_pages_tracked_on_child_only(self):
        parent = AddressSpace()
        obj = parent.allocate(PAGE_SIZE * 2, "o", "heap")
        parent.write_int(obj.base, 1, 8)
        assert not parent.dirty_pages
        child = AddressSpace(parent=parent)
        child.write_int(obj.base, 1, 8)
        child.write_int(obj.base + PAGE_SIZE, 1, 8)
        assert len(child.dirty_pages) == 2

    def test_child_allocations_local(self):
        parent = AddressSpace()
        child = AddressSpace(parent=parent)
        obj = child.allocate(8, "c", "heap")
        assert child.try_find(obj.base) is not None
        assert parent.try_find(obj.base) is None


class TestFreeThroughOverlay:
    """A worker's ``free`` is as private as its stores: the fork
    semantics the pool backend always had."""

    def test_ancestors_object_is_never_touched(self):
        main = AddressSpace()
        obj = main.allocate(16, "o", "heap")
        main.write_int(obj.base, 41, 8)
        worker = AddressSpace(parent=main)
        assert worker.free(obj.base) is obj
        assert obj.alive
        assert main.read_int(obj.base, 8, True) == 41
        # ... and a sibling forked before or after still sees it.
        assert AddressSpace(parent=main).read_int(obj.base, 8, True) == 41

    def test_use_after_free_inside_the_overlay_faults(self):
        main = AddressSpace()
        obj = main.allocate(16, "o", "heap")
        worker = AddressSpace(parent=main)
        worker.free(obj.base)
        with pytest.raises(GuestFault, match="wild pointer"):
            worker.read_int(obj.base, 8, True)
        with pytest.raises(GuestFault, match="wild pointer"):
            worker.write_int(obj.base + 8, 1, 8)
        with pytest.raises(GuestFault):
            worker.free(obj.base)          # double free
        assert worker.covering_pieces(obj.base, 16) == []
        assert main.covering_pieces(obj.base, 16) == [
            (obj.base, obj.end, obj)]

    def test_dead_copy_is_never_returned(self):
        main = AddressSpace()
        obj = main.allocate(16, "o", "heap")
        main.write_int(obj.base, 5, 8)
        worker = AddressSpace(parent=main)
        worker.write_int(obj.base, 6, 8)           # copy-on-write
        copy = worker.find(obj.base)[0]
        assert copy is not obj
        assert worker.free(obj.base) is copy
        with pytest.raises(GuestFault, match="wild pointer"):
            worker.read_int(obj.base, 8, True)     # not 6, not 5
        assert worker.covering_pieces(obj.base, 16) == []
        assert obj.alive and main.read_int(obj.base, 8, True) == 5

    def test_own_allocations_die_for_real(self):
        main = AddressSpace()
        worker = AddressSpace(parent=main)
        obj = worker.allocate(8, "w", "heap")
        worker.free(obj.base)
        assert not obj.alive
        with pytest.raises(GuestFault):
            worker.read_int(obj.base, 8, True)

    def test_tombstones_reach_through_a_chain(self):
        main = AddressSpace()
        obj = main.allocate(8, "o", "heap")
        middle = AddressSpace(parent=main)
        middle.free(obj.base)
        leaf = AddressSpace(parent=middle)       # forked after the free
        assert leaf.try_find(obj.base) is None
        assert leaf.covering_pieces(obj.base, 8) == []
        assert main.try_find(obj.base) == (obj, 0)


def test_freeing_a_copy_of_a_copy_hides_every_ancestors_object():
    """Copies are recognised from the ancestors' page maps, however far
    up the original lives."""
    main = AddressSpace()
    obj = main.allocate(16, "o", "heap")
    main.write_int(obj.base, 5, 8)
    middle = AddressSpace(parent=main)
    middle.write_int(obj.base, 6, 8)
    leaf = AddressSpace(parent=middle)
    leaf.write_int(obj.base, 7, 8)
    before = leaf.generation
    leaf.free(obj.base)
    assert leaf.generation == before + 1
    assert leaf.try_find(obj.base) is None
    assert middle.read_int(obj.base, 8, True) == 6
    assert main.read_int(obj.base, 8, True) == 5


def test_freeing_a_copy_of_a_middle_overlays_own_object():
    """The original need not live in the root: a copy of an object the
    middle overlay allocated is a copy all the same."""
    main = AddressSpace()
    middle = AddressSpace(parent=main)
    obj = middle.allocate(16, "m", "heap")
    middle.write_int(obj.base, 3, 8)
    leaf = AddressSpace(parent=middle)
    leaf.write_int(obj.base, 4, 8)             # copy-on-write
    leaf.free(obj.base)
    assert leaf.try_find(obj.base) is None
    assert obj.alive and middle.read_int(obj.base, 8, True) == 3
    assert main.try_find(obj.base) is None


def test_freeing_an_installed_copy_is_private():
    """A copy the runtime installed (a reduction replica) frees like one
    made by a store: hidden in the overlay and every fork of it, the
    ancestor's object untouched."""
    main = AddressSpace()
    obj = main.allocate(16, "r", "heap")
    main.write_int(obj.base, 9, 8)
    worker = AddressSpace(parent=main)
    copy = MemoryObject(obj.base, obj.size, obj.name, obj.kind, obj.site,
                        writable=True)
    worker.install_copy(copy)
    assert worker.free(obj.base) is copy
    assert not copy.alive
    assert worker.try_find(obj.base) is None
    assert AddressSpace(parent=worker).try_find(obj.base) is None
    assert obj.alive and main.read_int(obj.base, 8, True) == 9


class TestCacheEntries:
    """``load_entry`` / ``store_entry``: what generated code caches per
    site, and the counter that tells it when to ask again."""

    def test_entry_answers_for_the_whole_object(self):
        space = AddressSpace()
        obj = space.allocate(24, "o", "heap")
        assert space.load_entry(obj.base + 8, 4) == (
            space, obj, obj.base, obj.base + 24, space.generation)
        assert space.store_entry(obj.base + 20, 4)[1] is obj

    def test_same_faults_as_find(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap", writable=False)
        with pytest.raises(GuestFault, match="null"):
            space.load_entry(0, 4)
        with pytest.raises(GuestFault, match=r"wild pointer .* \(size 8\)"):
            space.load_entry(obj.base + 4, 8)
        with pytest.raises(GuestFault, match="read-only"):
            space.store_entry(obj.base, 4)

    def test_store_entry_holds_an_owned_object(self):
        main = AddressSpace()
        obj = main.allocate(8, "o", "heap")
        worker = AddressSpace(parent=main)
        loaded = worker.load_entry(obj.base, 4)
        assert loaded[1] is obj
        stored = worker.store_entry(obj.base, 4)
        assert stored[1] is not obj and worker._owns(stored[1])
        # The copy outdated every entry taken through the overlay ...
        assert stored[4] == worker.generation != loaded[4]
        assert worker.load_entry(obj.base, 4)[1] is stored[1]
        # ... and none taken through main.
        assert main.generation == 0

    def test_what_moves_the_generation(self):
        main = AddressSpace()
        a = main.allocate(8, "a", "heap")
        b = main.allocate(8, "b", "heap")
        worker = AddressSpace(parent=main)
        before = worker.generation
        mine = worker.allocate(8, "w", "heap")     # a fresh address
        worker.free(mine.base)                     # flips ``alive``
        assert worker.generation == before
        worker.free(a.base)                        # hides main's object
        assert worker.generation == before + 1
        copy = MemoryObject(b.base, b.size, b.name, b.kind, b.site)
        worker.install_copy(copy)                  # shadows main's object
        assert worker.generation == before + 2
        assert worker.find(b.base) == (copy, 0)
        # The root's own changes need no signal: new addresses, and
        # ``alive`` for the freed.
        main.free(b.base)
        main.allocate(8, "c", "heap")
        assert main.generation == 0 and not b.alive


def _image(space):
    """What a fork of ``space`` would hold."""
    return (dict(space._cursors), space.bytes_allocated,
            sorted((o.base, o.size, o.name, o.kind, o.site, o.writable,
                    bytes(o.data)) for o in space.live_objects()))


class TestKeepingACopyInStep:
    """``track_changes`` / ``take_changes`` / ``apply_changes``: what a
    resident pool child's copy of main is brought up to date with
    (docs/BACKENDS.md "pool lifecycle")."""

    @staticmethod
    def _forked():
        import copy

        space = AddressSpace()
        objs = [space.allocate(size, f"o{i}", "heap")
                for i, size in enumerate((24, PAGE_SIZE + 100, 8))]
        space.write_int(objs[0].base, 7, 8)
        twin = copy.deepcopy(space)        # the fork
        space.track_changes()
        return space, twin, objs

    @given(ops=st.lists(st.tuples(st.sampled_from(
        ("store", "fill", "allocate", "free", "stack", "take")),
        st.integers(min_value=0, max_value=2 ** 16)), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_apply_of_take_makes_the_twin_equal(self, ops):
        space, twin, objs = self._forked()
        live = list(objs)
        for kind, n in ops + [("take", 0)]:
            writable = [o for o in live if o.writable]
            if kind == "store" and writable:
                obj = writable[n % len(writable)]
                space.write_int(obj.base + n % (obj.size - 7 if obj.size > 8
                                                else 1), n, min(8, obj.size))
            elif kind == "fill" and writable:
                obj = writable[n % len(writable)]
                space.fill(obj.base, n, obj.size)
            elif kind == "allocate":
                live.append(space.allocate(n % 5000 + 1, f"n{n}", "heap",
                                           site=f"s{n}", writable=n % 3 > 0))
            elif kind == "free" and live:
                space.free(live.pop(n % len(live)).base)
            elif kind == "stack":
                space.free(space.allocate(n % 300 + 1, "tmp", "stack",
                                          STACK_BASE).base)
            elif kind == "take":
                changes = space.take_changes((), 1 << 30)
                twin.apply_changes(changes)
                assert _image(twin) == _image(space)
                assert not space.dirty_pages

    def test_born_and_gone_in_between_leaves_only_the_cursor(self):
        space, twin, _objs = self._forked()
        tmp = space.allocate(64, "tmp", "stack", STACK_BASE)
        space.write_int(tmp.base, 1, 8)
        space.free(tmp.base)
        objects, freed, cursors, _allocated, runs = space.take_changes(
            (), 1 << 20)
        assert objects == [] and freed == [] and runs == []
        assert cursors[STACK_BASE] == tmp.end

    def test_each_byte_once_and_only_live_ones(self):
        space, twin, (a, b, c) = self._forked()
        space.write_int(a.base + 8, 5, 8)
        space.write_int(c.base, 9, 8)
        space.free(c.base)                           # dirty, then gone
        born = space.allocate(16, "born", "heap")
        space.write_int(born.base, 3, 8)             # rides with the object
        b.data[PAGE_SIZE:PAGE_SIZE + 4] = b"abcd"    # written behind the API
        objects, freed, _c, _n, runs = space.take_changes(
            [(b.base + PAGE_SIZE, b.base + PAGE_SIZE + 4),
             (a.base, a.base + 4)],                  # overlaps the dirty page
            1 << 20)
        assert [o[0] for o in objects] == [born.base] and freed == [c.base]
        covered = [addr for start, blob in runs
                   for addr in range(start, start + len(blob))]
        assert len(covered) == len(set(covered))
        assert set(range(a.base, a.end)) <= set(covered)
        assert not set(covered) & set(range(c.base, c.end))
        assert not set(covered) & set(range(born.base, born.end))
        assert set(range(b.base + PAGE_SIZE, b.base + PAGE_SIZE + 4)) \
            <= set(covered)

    def test_more_than_the_limit_is_refused(self):
        space, twin, (a, b, c) = self._forked()
        space.fill(b.base, 1, b.size)
        assert space.take_changes((), b.size - 1) is None
        # Refused or not, the record starts afresh.
        assert space.take_changes((), 0)[4] == []
        space.allocate(100, "big", "heap")
        assert space.take_changes((), 99) is None

    def test_nothing_is_recorded_until_asked(self):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.write_int(obj.base, 1, 8)
        space.free(obj.base)
        assert not space.dirty_pages and space._layout_log is None

    def test_patch_writes_in_place(self):
        main = AddressSpace()
        obj = main.allocate(16, "o", "heap", writable=False)
        worker = AddressSpace(parent=main)
        main.patch(obj.base + 4, b"\x01\x02")
        assert worker.read_bytes(obj.base + 4, 2) == b"\x01\x02"
        assert not worker._pages and not main.dirty_pages
