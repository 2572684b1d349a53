"""Runtime support system: logical heaps, validation intrinsics,
reduction merge, checkpoints, deferred I/O."""

import pytest

from repro.classify import HeapKind
from repro.interp import Misspeculation
from repro.interp.memory import heap_tag_of
from repro.runtime.iodefer import DeferredOutput


class TestDeferredOutput:
    def test_commit_in_iteration_order(self):
        d = DeferredOutput()
        d.emit(3, "c")
        d.emit(1, "a")
        d.emit(1, "a2")
        d.emit(2, "b")
        sink = []
        n = d.commit_range(0, 4, sink.append)
        assert sink == ["a", "a2", "b", "c"] and n == 4

    def test_partial_commit_keeps_rest(self):
        d = DeferredOutput()
        d.emit(0, "x")
        d.emit(5, "y")
        sink = []
        d.commit_range(0, 3, sink.append)
        assert sink == ["x"] and d.pending() == 1

    def test_squash_discards_speculative_output(self):
        d = DeferredOutput()
        d.emit(1, "keep")
        d.emit(7, "squash")
        d.squash_from(5)
        sink = []
        d.commit_range(0, 10, sink.append)
        assert sink == ["keep"]


@pytest.fixture
def harness():
    """A tiny transformed program + runtime, paused before the loop."""
    from repro.bench.pipeline import prepare

    src = """
    int scratch[8];
    int out[64];
    long total;
    int main(int n) {
        for (int i = 0; i < n; i++) {
            for (int j = 0; j < 8; j++) { scratch[j] = i + j; }
            int acc = 0;
            for (int j = 0; j < 8; j++) { acc = acc + scratch[j]; }
            out[i] = acc;
            total += acc;
            printf("%d\\n", acc);
        }
        printf("%ld\\n", total);
        return 0;
    }
    """
    return prepare(src, "harness", args=(16,))


class TestHeapPlacement:
    def test_globals_land_in_their_heaps(self, harness):
        from repro.parallel.backend import DOALLExecutor

        ex = DOALLExecutor(harness.module, harness.plan, workers=2)
        interp = ex.interp
        tags = {
            name: heap_tag_of(interp.global_addrs[harness.module.global_named(name)])
            for name in ("scratch", "out", "total")
        }
        assert tags["scratch"] == int(HeapKind.PRIVATE)
        assert tags["out"] == int(HeapKind.PRIVATE)
        assert tags["total"] == int(HeapKind.REDUX)

    def test_h_alloc_places_by_kind(self, harness):
        from repro.parallel.backend import DOALLExecutor

        ex = DOALLExecutor(harness.module, harness.plan, workers=2)
        impl = ex.interp.intrinsics["h_alloc"]

        class FakeInst:
            meta = {}

            def site_id(self):
                return "fake:1"

        addr = impl(ex.interp, FakeInst(), [64, int(HeapKind.SHORTLIVED)])
        assert heap_tag_of(addr) == int(HeapKind.SHORTLIVED)


class TestValidationIntrinsics:
    """The per-access checks take their heap from a table and their
    timestamp from ``begin_iteration``; what they reject is unchanged."""

    @pytest.fixture
    def runtime(self, harness):
        from repro.parallel.backend import DOALLExecutor

        runtime = DOALLExecutor(harness.module, harness.plan,
                                workers=2).runtime
        runtime.begin_invocation(2)
        return runtime

    def test_check_heap_accepts_every_heap_and_counts(self, runtime):
        check = runtime.interp.intrinsics["check_heap"]
        for kind in HeapKind:
            assert check(runtime.interp, None, [kind.base + 8,
                                                int(kind)]) is None
        assert runtime.stats.separation_checks == len(HeapKind)
        with pytest.raises(Misspeculation, match="is not in heap redux"):
            check(runtime.interp, None, [HeapKind.PRIVATE.base,
                                         int(HeapKind.REDUX)])

    @pytest.mark.parametrize("tag", [0, 7, 8, -1])
    def test_check_heap_rejects_an_unknown_tag(self, runtime, tag):
        check = runtime.interp.intrinsics["check_heap"]
        with pytest.raises(ValueError, match="is not a valid HeapKind"):
            check(runtime.interp, None, [HeapKind.PRIVATE.base, tag])

    def test_timestamp_is_taken_once_per_iteration(self, runtime,
                                                   monkeypatch):
        from repro.runtime import system
        from repro.runtime.shadow import TS_BASE, timestamp_for

        calls = []
        monkeypatch.setattr(
            system, "timestamp_for",
            lambda i, start: calls.append(i) or timestamp_for(i, start))
        worker = runtime.workers[1]
        runtime.epoch_start = 4
        runtime.begin_iteration(worker, 7)
        assert runtime.current_ts == TS_BASE + 3 and calls == [7]
        addr = runtime.private_base
        write = runtime.interp.intrinsics["private_write"]
        read = runtime.interp.intrinsics["private_read"]
        for _ in range(3):
            write(runtime.interp, None, [addr, 4])
            read(runtime.interp, None, [addr, 4])
        assert calls == [7]
        assert runtime.stats.private_write_bytes == 12
        assert runtime.stats.private_read_bytes == 12
        assert set(worker.shadow.meta[:4]) == {TS_BASE + 3}

    def test_timestamp_overflow_is_raised_at_iteration_start(self, runtime):
        with pytest.raises(ValueError, match="timestamp overflow"):
            runtime.begin_iteration(runtime.workers[0], 10_000)


class TestEndToEndRuntime:
    def test_output_matches_sequential(self, harness):
        result = harness.execute(workers=4)
        assert result.output == harness.sequential.output
        assert result.runtime_stats.misspec_count() == 0

    def test_reduction_merged_correctly(self, harness):
        result = harness.execute(workers=6)
        # final total printed after loop must match sequential
        assert result.output[-1] == harness.sequential.output[-1]

    def test_io_deferred_and_committed(self, harness):
        result = harness.execute(workers=4)
        stats = result.runtime_stats
        assert stats.io_deferred == 16  # one line per iteration
        # ...and they came out in iteration order:
        assert result.output[:-1] == harness.sequential.output[:-1]

    def test_checkpoints_taken(self, harness):
        result = harness.execute(workers=4, checkpoint_period=4)
        assert result.runtime_stats.checkpoints == 4

    def test_privacy_byte_counters(self, harness):
        result = harness.execute(workers=2)
        stats = result.runtime_stats
        assert stats.private_write_bytes > 0
        assert stats.private_read_bytes > 0

    def test_worker_count_does_not_change_results(self, harness):
        outs = {w: harness.execute(workers=w).output for w in (1, 3, 8)}
        assert outs[1] == outs[3] == outs[8] == harness.sequential.output

    def test_readonly_protection_restored_between_invocations(self):
        # Two invocations of a loop that reads a read-only global which is
        # rewritten between invocations (legal: outside the region).
        from repro.bench.pipeline import prepare

        src = """
        int cfg[4];
        int out[64];
        void pass(int n, int bias) {
            for (int i = 0; i < n; i++) {
                out[i] = cfg[i % 4] + bias;
                for (int j = 0; j < 10; j++) { out[i] += j; }
            }
        }
        int main(int n) {
            for (int k = 0; k < 4; k++) { cfg[k] = k; }
            pass(n, 0);
            for (int k = 0; k < 4; k++) { cfg[k] = k * 100; }
            pass(n, 1);
            printf("%d %d\\n", out[0], out[5]);
            return 0;
        }
        """
        prog = prepare(src, "two_invocations", args=(16,))
        result = prog.execute(workers=4)
        assert result.output == prog.sequential.output
        assert result.runtime_stats.invocations == 2
        assert result.runtime_stats.misspec_count() == 0


class TestResyncWorkers:
    """The one entry point a resident pool child has: its copy of main
    is brought up to date and its worker states are forked anew by the
    runtime's own path — with none of the parent's bookkeeping."""

    def test_fresh_workers_over_the_synchronised_main(self, harness, caplog):
        import copy
        import dataclasses
        import logging

        from repro.parallel.backend import DOALLExecutor

        parent = DOALLExecutor(harness.module, harness.plan,
                               workers=2).runtime
        parent.begin_invocation(2)
        child = copy.deepcopy(parent)              # the fork
        parent.main_space.track_changes()

        # Main runs on in the parent: the invocation ends, a global the
        # loop writes is stored to, an object is born, the next begins.
        parent.end_invocation()
        out = parent.interp.global_addrs[harness.module.global_named("out")]
        parent.main_space.write_int(out + 8, 1234, 4)
        born = parent.main_space.allocate(
            40, "born", "logical", HeapKind.READONLY.base, site="born")
        parent.begin_invocation(2)
        assert not born.writable                   # protected, in the parent
        changes = parent.main_space.take_changes((), 1 << 20)

        stats = dataclasses.asdict(child.stats)
        events = len(child.recorder.snapshot()["events"])
        old_workers = list(child.workers)
        child.workers[0].space.write_int(out, 99, 4)   # speculative state
        caplog.clear()      # the parent's own begin_invocation lines
        with caplog.at_level(logging.DEBUG, logger="repro.runtime"):
            child.resync_workers(parent.invocation_index, 5, changes)
        assert not caplog.records
        assert dataclasses.asdict(child.stats) == stats
        assert len(child.recorder.snapshot()["events"]) == events
        assert child.invocation_index == parent.invocation_index == 1
        assert child.epoch_start == 5 and child.speculating
        # New leaves over the synchronised main, built as the parent's.
        assert len(child.workers) == 2
        assert not set(map(id, child.workers)) & set(map(id, old_workers))
        for worker, twin in zip(child.workers, parent.workers):
            assert worker.space.parent is child.main_space
            assert worker.space._cursors == twin.space._cursors
            assert worker.shadow.size == twin.shadow.size
            assert sorted(worker.redux_copies) == sorted(twin.redux_copies)
            assert worker.space.read_int(out + 8, 4, True) == 1234
            assert worker.space.read_int(out, 4, True) == 0
        # Read-only protection as in the parent, the born object's too.
        flags = lambda rt: sorted((o.base, o.writable)      # noqa: E731
                                  for o in rt.main_space.live_objects())
        assert flags(child) == flags(parent)
        assert (born.base, False) in flags(child)
