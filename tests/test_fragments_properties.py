"""Property tests for the serialization seam between backends.

The pool backend works only if (a) :class:`EpochFragment` survives a
pickle round-trip bit-for-bit — it is the *only* state shipped from a
forked worker back to the parent — and (b) replaying a fragment's
writes into the parent-side replica shadow via ``mark_old_writes`` is
idempotent and equivalent to the in-process ``reset_after_checkpoint``
path.  Hypothesis generates arbitrary fragments and write patterns so
these invariants hold beyond the shapes the workloads happen to hit.

Fragments are format 3 (packed interval runs for private bytes, packed
element runs for reduction partial results, see
:mod:`repro.runtime.fragments`): strategies build them through
:meth:`EpochFragment.pack` from per-byte inputs plus :class:`ReduxRun`
tuples, and the round-trip tests additionally pin the explicit
format-version field and the pack/iter_writes inverse.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.runtime.fragments import (
    EpochFragment, FRAGMENT_FORMAT, ReduxRun,
    WRITE_FREED, WRITE_LOCAL, WRITE_VALUE)
from repro.runtime.shadow import (
    LIVE_IN, OLD_WRITE, READ_LIVE_IN, ShadowHeap, timestamp_for)

from test_redux_runs import ELEMENT_TYPES

offsets = st.integers(min_value=0, max_value=4095)
iterations = st.integers(min_value=0, max_value=10_000)
rel_iters = st.integers(min_value=0, max_value=252)


@st.composite
def redux_runs(draw):
    """One run: 1-8 elements of random bytes (every bit pattern is a
    legal int or float), or an operator-less stretch of zero bytes."""
    addr = draw(st.integers(min_value=0, max_value=2**47 - 1))
    if draw(st.booleans()):
        operator, size, is_float = draw(st.sampled_from(ELEMENT_TYPES))
        count = draw(st.integers(min_value=1, max_value=8))
        return ReduxRun(addr, size, operator, is_float,
                        draw(st.binary(min_size=size * count,
                                       max_size=size * count)))
    length = draw(st.integers(min_value=1, max_value=32))
    return ReduxRun(addr, length, None, False, bytes(length))


# Per-byte write entries for EpochFragment.pack: at most one per offset.
write_entries = st.dictionaries(
    offsets,
    st.tuples(rel_iters,
              st.sampled_from([WRITE_VALUE, WRITE_FREED, WRITE_LOCAL]),
              st.integers(min_value=0, max_value=255)),
    max_size=64)


@st.composite
def fragments(draw):
    epoch_start = draw(iterations)
    entries = draw(write_entries)
    return EpochFragment.pack(
        wid=draw(st.integers(min_value=0, max_value=63)),
        epoch_start=epoch_start,
        read_live_in=draw(st.sets(offsets, max_size=64)),
        writes=[(b, epoch_start + rel, kind, value)
                for b, (rel, kind, value) in entries.items()],
        epoch_written=draw(st.sets(offsets, max_size=64)),
        redux_runs=draw(st.lists(redux_runs(), max_size=6)),
        dirty_private_pages=draw(st.integers(min_value=0, max_value=1024)),
    )


class TestFragmentPickleRoundTrip:
    @given(frag=fragments())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_preserves_every_field(self, frag):
        clone = pickle.loads(pickle.dumps(frag))
        assert clone == frag
        assert clone.format == FRAGMENT_FORMAT
        assert clone.write_offsets() == frag.write_offsets()
        assert clone.read_live_in_offsets() == frag.read_live_in_offsets()
        assert clone.epoch_written_offsets() == frag.epoch_written_offsets()
        assert list(clone.iter_writes()) == list(frag.iter_writes())
        assert clone.redux_spans() == frag.redux_spans()
        assert all(type(run) is ReduxRun for run in clone.redux_runs)

    @given(run=redux_runs())
    @settings(max_examples=200, deadline=None)
    def test_redux_run_round_trip(self, run):
        """Bytes in, the same bytes out — NaN payloads and all — and the
        per-element view covers the run exactly."""
        clone = pickle.loads(pickle.dumps(run))
        assert clone == run and clone.data == run.data
        elements = clone.elements()
        assert [el.addr for el in elements] == list(
            range(run.addr, run.addr + len(run.data), run.size))
        assert all(el.size == run.size and el.operator == run.operator
                   for el in elements)

    @given(frag=fragments())
    @settings(max_examples=100, deadline=None)
    def test_highest_protocol_round_trip(self, frag):
        data = pickle.dumps(frag, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(data) == frag


class TestPackedForm:
    @given(entries=write_entries, epoch_start=iterations)
    @settings(max_examples=200, deadline=None)
    def test_pack_iter_writes_inverse(self, entries, epoch_start):
        """pack() then iter_writes() returns exactly the per-byte input,
        sorted by offset — the packed runs lose no information."""
        writes = sorted((b, epoch_start + rel, kind, value)
                        for b, (rel, kind, value) in entries.items())
        frag = EpochFragment.pack(wid=0, epoch_start=epoch_start,
                                  writes=writes)
        assert list(frag.iter_writes()) == writes
        assert frag.write_byte_count() == len(writes)
        for b, iteration, _kind, _value in writes:
            assert frag.iteration_of(b) == iteration

    @given(entries=write_entries, epoch_start=iterations)
    @settings(max_examples=200, deadline=None)
    def test_runs_are_canonical(self, entries, epoch_start):
        """Runs are sorted, non-overlapping, maximal (no two adjacent
        runs share an iteration), and sized to the payload blobs."""
        writes = [(b, epoch_start + rel, kind, value)
                  for b, (rel, kind, value) in entries.items()]
        frag = EpochFragment.pack(wid=0, epoch_start=epoch_start,
                                  writes=writes)
        total = 0
        prev_end = None
        prev_rel = None
        for start, end, rel in frag.write_runs:
            assert start < end
            if prev_end is not None:
                assert start >= prev_end
                if start == prev_end:
                    assert rel != prev_rel  # maximality
            total += end - start
            prev_end, prev_rel = end, rel
        assert total == len(frag.write_kinds) == len(frag.write_values)

    def test_duplicate_offsets_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            EpochFragment.pack(wid=0, epoch_start=0,
                               writes=[(3, 0, WRITE_VALUE, 1),
                                       (3, 1, WRITE_VALUE, 2)])


# Write patterns as (offset, size, relative-iteration) triples against a
# small heap; sizes stay modest so intervals overlap often.
write_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=120),
              st.integers(min_value=1, max_value=8),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=32)


def _apply_writes(shadow, ops, epoch_start):
    for offset, size, rel in sorted(ops, key=lambda op: op[2]):
        ts = timestamp_for(epoch_start + rel, epoch_start)
        shadow.on_write(offset, size, ts, epoch_start + rel)


class TestMarkOldWritesMerge:
    @given(ops=write_ops)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, ops):
        """Replaying the same fragment's offsets twice is a no-op: the
        commit path may mark offsets that reset_after_checkpoint already
        demoted, and re-delivery must not change the metadata."""
        shadow = ShadowHeap(128)
        _apply_writes(shadow, ops, epoch_start=0)
        written = shadow.written_offsets()
        shadow.reset_after_checkpoint()
        baseline = bytes(shadow.meta)
        shadow.mark_old_writes(written)
        assert bytes(shadow.meta) == baseline
        shadow.mark_old_writes(written)
        assert bytes(shadow.meta) == baseline

    @given(ops=write_ops)
    @settings(max_examples=200, deadline=None)
    def test_replica_matches_in_process_shadow(self, ops):
        """A fresh replica shadow fed only the fragment's write offsets
        ends bit-identical to the persistent shadow that actually
        executed the writes and checkpointed."""
        live = ShadowHeap(128)
        _apply_writes(live, ops, epoch_start=0)
        frag = EpochFragment.pack(
            wid=0, epoch_start=0,
            writes=[(b, it, WRITE_VALUE, 0)
                    for b, it in live.write_iterations(0)])
        live.reset_after_checkpoint()

        replica = ShadowHeap(128)
        replica.mark_old_writes(frag.write_offsets())
        assert bytes(replica.meta) == bytes(live.meta)
        assert not live.written and not live.read_live_in

    @given(ops=write_ops)
    @settings(max_examples=200, deadline=None)
    def test_replica_run_path_matches_offset_path(self, ops):
        """mark_old_write_runs(frag.write_spans()) — the checkpoint's
        bulk path — is equivalent to per-offset mark_old_writes."""
        live = ShadowHeap(128)
        _apply_writes(live, ops, epoch_start=0)
        frag = EpochFragment.pack(
            wid=0, epoch_start=0,
            writes=[(b, it, WRITE_VALUE, 0)
                    for b, it in live.write_iterations(0)])
        by_offset = ShadowHeap(128)
        by_offset.mark_old_writes(frag.write_offsets())
        by_runs = ShadowHeap(128)
        by_runs.mark_old_write_runs(frag.write_spans())
        assert bytes(by_runs.meta) == bytes(by_offset.meta)

    @given(ops=write_ops, extra=st.sets(
        st.integers(min_value=0, max_value=200), max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_only_marked_offsets_change(self, ops, extra):
        shadow = ShadowHeap(128)
        _apply_writes(shadow, ops, epoch_start=0)
        shadow.reset_after_checkpoint()
        before = bytes(shadow.meta)
        shadow.mark_old_writes(extra)
        for b, code in enumerate(shadow.meta):
            if b in extra:
                assert code == OLD_WRITE
            elif b < len(before):
                assert code == before[b]
            else:  # offsets past the old size grew in as live-in
                assert code == LIVE_IN

    def test_grows_heap_for_out_of_range_offset(self):
        shadow = ShadowHeap(8)
        shadow.mark_old_writes({20})
        assert shadow.size == 21
        assert shadow.meta[20] == OLD_WRITE
        assert all(c == LIVE_IN for c in shadow.meta[8:20])

    @given(ops=write_ops)
    @settings(max_examples=100, deadline=None)
    def test_read_live_in_survives_unrelated_marks(self, ops):
        """Marking committed writes as old-write must not disturb bytes
        another epoch is still tracking as read-live-in."""
        shadow = ShadowHeap(256)
        _apply_writes(shadow, ops, epoch_start=0)
        shadow.reset_after_checkpoint()
        probe = 200  # disjoint from write_ops offsets (max 120 + 8)
        shadow.on_read(probe, 1, timestamp_for(0, 0), 0)
        assert shadow.meta[probe] == READ_LIVE_IN
        marked = {b for b in range(130) if shadow.meta[b] == OLD_WRITE}
        shadow.mark_old_writes(marked)
        assert shadow.meta[probe] == READ_LIVE_IN
        assert shadow.read_live_in_offsets() == {probe}
