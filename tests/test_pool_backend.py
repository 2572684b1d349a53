"""Unit and integration tests for the resident children of a team of
more than one process: the translation of a backend name to the team
size P, the fragment payload framing, pool lifecycle (one fork per run,
commit-delta warm epochs, SIGKILL respawn, partial spawn, child
crashes), multiplexing several workers on one process, and the
telemetry plane (stable worker ids in ``worker.N.*`` merges and the
``repro top`` dashboard).

Bit-exact parity against the parent alone (P = 1) is enforced
separately in ``tests/test_backend_parity.py``; these tests cover the
machinery documented in docs/BACKENDS.md.
"""

import errno
import os
import pickle
import re
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.backend import (
    BackendError,
    DOALLExecutor,
    make_executor,
    processes_for,
    team_label,
)
from repro.parallel.pool_backend import Pool
from repro.parallel import pool_backend
from repro.parallel.shm_ring import (
    pack_fragment_payload,
    payload_size,
    unpack_fragment_payload,
)

from helpers import prepared_counter_program


def _shm_names():
    """Names visible in /dev/shm (the POSIX shared-memory backing store
    on Linux); empty when the path doesn't exist."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


# -- backend selection --------------------------------------------------------


class TestBackendResolution:
    """An outside caller's backend name is translated to the team size
    P once, at the boundary; the report label is computed from P."""

    def test_default_is_the_parent_alone(self):
        assert processes_for(None, 4) == 1
        assert team_label(1) == "simulated"

    def test_explicit_name_wins(self):
        assert processes_for("simulated", 4) == 1
        assert processes_for("pool", 4) == 4

    def test_explicit_count_wins_and_is_capped(self):
        assert processes_for("pool", 4, 2) == 2
        assert processes_for(None, 4, 3) == 3
        assert processes_for("pool", 2, 8) == 2

    def test_unknown_name_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            processes_for("threads", 4)

    def test_backend_error_is_value_error(self):
        # argparse and callers catching ValueError keep working.
        assert issubclass(BackendError, ValueError)

    def test_label_follows_the_team_size(self):
        assert [team_label(p) for p in (1, 2, 24)] == [
            "simulated", "pool", "pool"]

    def test_process_is_an_unknown_backend(self):
        """The fork-per-epoch backend's name is no alias for the pool:
        it gets the ordinary error, at ``execute()`` too."""
        listed = "unknown backend 'process'.*simulated, pool"
        with pytest.raises(BackendError, match=listed):
            processes_for("process", 2)
        prog = prepared_counter_program(8)
        with pytest.raises(BackendError, match=listed):
            prog.execute(workers=2, backend="process")


# -- fragment payload framing -------------------------------------------------


_runs2 = st.lists(
    st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40)),
    max_size=8).map(lambda rs: tuple(tuple(r) for r in rs))


class TestFragmentFraming:
    @settings(max_examples=60, deadline=None)
    @given(
        read_runs=_runs2,
        write_runs=st.lists(
            st.tuples(st.integers(0, 1 << 40), st.integers(0, 1 << 40),
                      st.integers(0, 250)),
            max_size=8).map(lambda rs: tuple(tuple(r) for r in rs)),
        epoch_runs=_runs2,
        kinds=st.binary(max_size=64),
        values=st.binary(max_size=64),
    )
    def test_round_trip(self, read_runs, write_runs, epoch_runs, kinds,
                        values):
        """pack -> unpack reproduces the exact EpochFragment container
        shapes (tuples of tuples, bytes blobs), via a plain buffer."""
        size = payload_size(len(read_runs), len(write_runs),
                            len(epoch_runs), len(kinds), len(values))
        buf = bytearray(size + 7)
        n = pack_fragment_payload(buf, 3, read_runs, write_runs,
                                  epoch_runs, kinds, values)
        assert n == size
        rr, wr, er, k, v = unpack_fragment_payload(
            memoryview(buf)[3:3 + size])
        assert rr == read_runs
        assert wr == write_runs
        assert er == epoch_runs
        assert k == kinds and v == values
        assert isinstance(k, bytes) and isinstance(v, bytes)

    def test_names_perfbench_reaches_are_kept(self):
        """``perfbench`` wraps the framing functions by their module's
        old name and sums the executors' overflow counts."""
        from repro.parallel import shm_ring

        assert shm_ring.__name__ == "repro.parallel.shm_ring"
        assert (shm_ring.payload_size, shm_ring.pack_fragment_payload,
                shm_ring.unpack_fragment_payload) == (
            payload_size, pack_fragment_payload, unpack_fragment_payload)
        assert DOALLExecutor.ring_overflows == 0

    def test_signed_int64_extremes_round_trip(self):
        """Run coordinates are framed as signed little-endian int64s:
        both ends of that range survive."""
        lo, hi = -(1 << 63), (1 << 63) - 1
        payload = (((lo, hi),), ((hi, lo, -1),), ((0, hi),), b"", b"")
        buf = bytearray(payload_size(1, 1, 1, 0, 0))
        assert pack_fragment_payload(buf, 0, *payload) == len(buf)
        assert unpack_fragment_payload(memoryview(buf)) == payload

    def test_fragment_survives_the_pickled_reply(self):
        """The production path: the child strips and packs the fragment,
        the reply is pickled as the report pipe carries it, and the
        parent rebuilds an equal fragment — header fields included."""
        from repro.parallel.backend import WorkerEpochReport
        from repro.runtime.fragments import EpochFragment, ReduxRun

        frag = EpochFragment(
            wid=1, epoch_start=12,
            read_live_in_runs=((0, 8), (16, 32)),
            write_runs=((0, 8, 2), (64, 72, 0)),
            write_kinds=b"\x01" * 16, write_values=bytes(range(16)),
            epoch_written_runs=((0, 8), (64, 72)),
            redux_runs=(ReduxRun(128, 8, "ADD", False, bytes(16)),),
            dirty_private_pages=3)
        prog = prepared_counter_program(8)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2)
        report = WorkerEpochReport(wid=1, fragment=frag)
        reply = pool_backend._PoolReply(
            cwid=0, reports=[report],
            payloads=[ex.pool._child_ship_fragment(report)])
        assert report.fragment is None
        reply = pickle.loads(pickle.dumps(
            reply, protocol=pickle.HIGHEST_PROTOCOL))
        (entry,) = reply.payloads
        assert isinstance(entry[1], bytearray)
        assert ex.pool._rebuild_fragment(entry) == frag


# -- factory and construction -------------------------------------------------


def _forked_children(ex, prog):
    """Run ``prog`` on ``ex``; returns {pool process: the worker ids it
    hosted} over the children of the first pool."""
    hosted = {}
    if ex.pool is not None:
        spawn = ex.pool._spawn

        def watched(frame, reason):
            spawn(frame, reason)
            if not hosted:
                hosted.update((c.cwid, c.wids) for c in ex.pool.children)

        ex.pool._spawn = watched
    result = ex.run(prog.entry, prog.ref_args)
    assert result.output == prog.sequential.output
    return hosted


class TestPoolExecutorConstruction:
    def test_one_executor_at_every_team_size(self):
        prog = prepared_counter_program(8)
        sim = make_executor(prog.module, prog.plan, workers=2)
        assert type(sim) is DOALLExecutor
        assert sim.backend_name == "simulated" and sim.pool is None
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2)
        assert type(ex) is DOALLExecutor
        assert ex.backend_name == "pool"
        # The children are a helper the executor holds, not a subclass.
        assert isinstance(ex.pool, Pool) and ex.pool.executor is ex
        assert Pool.__mro__ == (Pool, object)

    def test_pool_backend_is_one_process_per_worker(self):
        """``backend="pool"`` is P = n: the parent hosts worker 0 and
        forks n - 1 children for the rest."""
        prog = prepared_counter_program(8)
        ex = make_executor(prog.module, prog.plan, workers=3,
                           processes=processes_for("pool", 3))
        assert ex.processes == 3
        forked = _forked_children(ex, prog)
        assert forked == {1: [1], 2: [2]}

    def test_processes_capped_at_workers(self):
        prog = prepared_counter_program(8)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=8)
        assert ex.processes == 2
        assert _forked_children(ex, prog) == {1: [1]}

    def test_processes_count_the_parent(self):
        """--processes P is P processes, the parent one of them: P - 1
        children share workers 1 .. n-1 round-robin, and P = 1 forks
        nothing."""
        prog = prepared_counter_program(8)
        ex = make_executor(prog.module, prog.plan, workers=4, processes=3)
        assert ex.processes == 3
        assert _forked_children(ex, prog) == {1: [1, 3], 2: [2]}
        ex = make_executor(prog.module, prog.plan, workers=4, processes=1)
        assert ex.processes == 1
        assert _forked_children(ex, prog) == {}
        assert ex.pool_spawns == 0

    def test_processes_must_be_positive(self):
        prog = prepared_counter_program(8)
        with pytest.raises(BackendError, match="processes"):
            make_executor(prog.module, prog.plan, workers=2, processes=0)


# -- end-to-end runs ----------------------------------------------------------


class TestPoolEndToEnd:
    def test_clean_run_matches_sequential(self):
        prog = prepared_counter_program(24)
        result = prog.execute(workers=4, backend="pool")
        assert result.output == prog.sequential.output
        assert result.runtime_stats.checkpoints > 0

    def test_one_spawn_per_clean_invocation(self):
        """The whole point: a clean multi-epoch run forks the pool once,
        not once per epoch."""
        prog = prepared_counter_program(32)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2,
                           checkpoint_period=4)
        result = ex.run(prog.entry, prog.ref_args)
        assert result.output == prog.sequential.output
        assert result.runtime_stats.checkpoints >= 4
        assert ex.pool_spawns == 1

    def test_recovery_syncs_the_resident_pool(self):
        """A squash and its recovery leave the resident image behind
        main; the next epoch plan brings it up to date — no fork — and
        the run still completes correctly."""
        prog = prepared_counter_program(32)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2,
                           misspec_period=10)
        result = ex.run(prog.entry, prog.ref_args)
        assert result.output == prog.sequential.output
        # Injected at iterations 9, 19 and 29: each recovery still had
        # epochs left to run, so each cost one sync.
        assert result.runtime_stats.misspec_count() == 3
        assert ex.pool.syncs == 3
        assert ex.pool_spawns == 1
        assert ex.pool.respawns == {"no_pool": 1}

    def test_processes_multiplexing(self):
        """Fewer processes than workers: a process hosts several worker
        ids sequentially — output identical.  One process is the parent
        alone: nothing is forked."""
        prog = prepared_counter_program(24)
        ex = make_executor(prog.module, prog.plan, workers=4, processes=1)
        result = ex.run(prog.entry, prog.ref_args)
        assert result.output == prog.sequential.output
        assert ex.processes == 1 and ex.pool is None
        assert ex.pool_spawns == 0

    def test_multiplexed_payloads_both_rebuild_bit_exact(self):
        """A child hosting several wids ships one payload per wid per
        epoch in one reply: both fragments must rebuild bit-exact from
        the packed bytes, after both were shipped."""
        from repro.parallel.backend import WorkerEpochReport
        from repro.runtime.fragments import EpochFragment

        def frag(wid, fill):
            n = 50
            return EpochFragment(
                wid=wid, epoch_start=0,
                write_runs=((0, n, 0),),
                write_kinds=b"\x02" * n,
                write_values=bytes([fill]) * n,
                epoch_written_runs=((0, n),))

        frag_a, frag_b = frag(0, 0xAA), frag(1, 0xBB)
        prog = prepared_counter_program(8)
        ex = make_executor(prog.module, prog.plan, workers=3, processes=2)
        entry_a = ex.pool._child_ship_fragment(
            WorkerEpochReport(wid=0, fragment=frag_a))
        entry_b = ex.pool._child_ship_fragment(
            WorkerEpochReport(wid=1, fragment=frag_b))
        assert len(entry_a[1]) == payload_size(0, 1, 1, 50, 50)
        assert ex.pool._rebuild_fragment(entry_a) == frag_a
        assert ex.pool._rebuild_fragment(entry_b) == frag_b
        assert ex.ring_overflows == 0

    def test_shutdown_leaves_no_children(self):
        """After run() returns the pool is gone."""
        prog = prepared_counter_program(24)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2,
                           checkpoint_period=4)
        ex.run(prog.entry, prog.ref_args)
        assert not ex.pool.children

    def test_child_crash_surfaces_its_traceback(self):
        """An internal error in a child fails the run with the child's
        own traceback, and the pool is torn down."""
        prog = prepared_counter_program(8)
        ex = DOALLExecutor(prog.module, prog.plan, workers=2, processes=2)
        parent = os.getpid()
        execute_iteration = ex._execute_iteration

        def boom(worker, i, init):
            if os.getpid() != parent:
                raise ZeroDivisionError("synthetic pool child crash")
            execute_iteration(worker, i, init)

        ex._execute_iteration = boom
        with pytest.raises(RuntimeError) as exc:
            ex.run("main", prog.ref_args)
        message = str(exc.value)
        assert re.match(r"pool worker process 1 failed during epoch",
                        message)
        assert "Traceback (most recent call last)" in message
        assert "in boom" in message
        assert "ZeroDivisionError: synthetic pool child crash" in message
        assert not ex.pool.children

    def test_multiplexed_child_crash_surfaces_its_traceback(self):
        """One child hosting worker ids 1 and 2: the failure names the
        first wid it hosts and carries its traceback."""
        prog = prepared_counter_program(8)
        ex = DOALLExecutor(prog.module, prog.plan, workers=3, processes=2)
        parent = os.getpid()
        execute_iteration = ex._execute_iteration

        def boom(worker, i, init):
            if os.getpid() != parent:
                raise KeyError("synthetic multiplexed crash")
            execute_iteration(worker, i, init)

        ex._execute_iteration = boom
        with pytest.raises(RuntimeError) as exc:
            ex.run("main", prog.ref_args)
        message = str(exc.value)
        assert message.startswith("pool worker process 1 failed during epoch")
        assert "in boom" in message
        assert "KeyError: 'synthetic multiplexed crash'" in message
        assert not ex.pool.children

    def test_fresh_process_loads_no_multiprocessing(self, tmp_path):
        """The pool is ``os.fork`` and pipes, nothing more: a process that
        runs one pool ``execute()`` imports no ``multiprocessing`` module
        (no shared-memory segment, no resource-tracker process) and
        adds nothing to /dev/shm."""
        import repro

        script = (
            "import sys\n"
            "from helpers import prepared_counter_program\n"
            "prog = prepared_counter_program(24)\n"
            "result = prog.execute(workers=2, backend='pool')\n"
            "assert result.output == prog.sequential.output\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing'))\n")
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=os.pathsep.join([
                       os.path.dirname(os.path.dirname(repro.__file__)),
                       os.path.dirname(os.path.abspath(__file__))]))
        before = _shm_names()
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]
        assert not _shm_names() - before

    def test_wedged_pool_hits_deadline(self, monkeypatch):
        monkeypatch.setattr(pool_backend, "EPOCH_TIMEOUT", 1.0)
        prog = prepared_counter_program(8)
        ex = DOALLExecutor(prog.module, prog.plan, workers=2, processes=2)
        parent = os.getpid()
        execute_iteration = ex._execute_iteration

        def wedge(worker, i, init):
            if os.getpid() != parent:
                os.read(os.pipe()[0], 1)  # blocks forever
            execute_iteration(worker, i, init)

        ex._execute_iteration = wedge
        with pytest.raises(RuntimeError, match="did not report"):
            ex.run("main", prog.ref_args)


class TestPipeTransport:
    """The report pipe is the pool's one fragment transport: after the
    fork and after every sync, one process per worker or several.
    Worker 0's fragment stays in the parent that ran it."""

    @pytest.mark.parametrize("misspec_period", [0, 6])
    @pytest.mark.parametrize("processes", [3, 2])
    def test_every_fragment_rides_the_pipe(self, monkeypatch, processes,
                                           misspec_period):
        shipped = []
        rebuild = Pool._rebuild_fragment

        def spy(entry):
            shipped.append(entry)
            return rebuild(entry)

        monkeypatch.setattr(Pool, "_rebuild_fragment", staticmethod(spy))
        prog = prepared_counter_program(24)
        # An explicit period of 4 runs exactly: at 6 (the whole-round
        # default for 24 trips on 3 workers) every epoch would squash.
        ex = make_executor(prog.module, prog.plan, workers=3,
                           processes=processes, checkpoint_period=4,
                           misspec_period=misspec_period)
        result = ex.run(prog.entry, prog.ref_args)
        assert result.output == prog.sequential.output
        assert (result.runtime_stats.misspec_count() > 0) == bool(
            misspec_period)
        assert {header[0] for header, _ in shipped} == {1, 2}
        for _, payload in shipped:
            assert isinstance(payload, bytearray)
            rr, wr, er, kinds, values = unpack_fragment_payload(
                memoryview(payload))
            assert len(payload) == payload_size(
                len(rr), len(wr), len(er), len(kinds), len(values))
        # One fork, squashes or not: recoveries are synced on the pipe.
        assert ex.pool_spawns == 1
        assert bool(ex.pool.syncs) == bool(misspec_period)
        assert ex.ring_overflows == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors through /proc")
class TestPartialSpawn:
    def test_failed_fork_leaves_no_child_or_fd(self, monkeypatch):
        """``os.fork`` failing for the second child (EAGAIN on a loaded
        host) propagates out of run() — and the first child, already
        blocked on its task pipe, is killed and reaped with it.  Three
        workers: the parent and two children."""
        real_fork = os.fork
        forked = []

        def fork_failing_second_time():
            if len(forked) == 1:
                raise OSError(errno.EAGAIN,
                              "Resource temporarily unavailable")
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        prog = prepared_counter_program(24)
        ex = make_executor(prog.module, prog.plan, workers=3, processes=3)
        descriptors = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", fork_failing_second_time)
        with pytest.raises(OSError) as exc:
            ex.run(prog.entry, prog.ref_args)
        assert exc.value.errno == errno.EAGAIN
        assert len(forked) == 1 and not ex.pool.children
        with pytest.raises(ProcessLookupError):
            os.kill(forked[0], 0)
        assert len(os.listdir("/proc/self/fd")) == descriptors


TWO_REDUCTIONS_SRC = """
double sum_a[3];
long sum_b[3];
double data[48];

int main(int n) {
    for (int i = 0; i < 48; i++) { data[i] = i * 0.5; }
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 48; j++) {
            sum_a[j % 3] += data[j] * i;
            sum_b[j % 3] += i + j;
        }
    }
    printf("%f %f %ld %ld\\n", sum_a[0], sum_a[2], sum_b[0], sum_b[2]);
    return 0;
}
"""


class TestCommitDeltaCoalescing:
    """The clean-epoch change record covers the folded reduction runs,
    read straight off the fragments' run spans: the bytes an
    element-at-a-time record would ship, in one piece per stretch of
    adjacent elements, and no object born or freed."""

    @staticmethod
    def _watch(monkeypatch):
        """Check every clean-epoch change record the parent ships
        against main read element by element after the commit; returns
        the (elements, reduction runs) pairs seen."""
        from repro.classify.heaps import HeapKind
        from repro.interp.memory import heap_tag_of
        from repro.runtime.system import RuntimeSystem

        wants, seen = [], []
        checkpoint = RuntimeSystem.checkpoint
        write_frame = pool_backend._write_frame

        def watched_checkpoint(self, start, end, fragments=None):
            elements = sorted({(el.addr, el.size) for f in fragments
                               for run in f.redux_runs
                               for el in run.elements()})
            record = checkpoint(self, start, end, fragments)
            want = {}
            for addr, size in elements:
                for s, e, obj in self.main_space.covering_pieces(addr, size):
                    want.update(zip(range(s, e),
                                    obj.data[s - obj.base:e - obj.base]))
            wants.append((len(elements), want))
            return record

        def watched_write(fd, data):
            plan = pickle.loads(data)
            if (isinstance(plan, pool_backend._PoolEpoch)
                    and plan.commit is not None):
                objects, freed, _cursors, _allocated, runs = plan.commit
                # A clean epoch allocates and frees nothing in main.
                assert objects == [] and freed == []
                redux = [(addr, blob) for addr, blob in runs
                         if heap_tag_of(addr) == int(HeapKind.REDUX)]
                got = {}
                for addr, blob in redux:
                    assert not got.keys() & range(addr, addr + len(blob))
                    got.update(zip(range(addr, addr + len(blob)), blob))
                count, want = wants[-1]
                assert got == want
                seen.append((count, len(redux)))
            write_frame(fd, data)

        monkeypatch.setattr(RuntimeSystem, "checkpoint", watched_checkpoint)
        monkeypatch.setattr(pool_backend, "_write_frame", watched_write)
        return seen

    def test_alvinn_ships_its_weight_arrays_whole(self, monkeypatch):
        from repro.bench.pipeline import prepare
        from repro.workloads import BY_NAME

        seen = self._watch(monkeypatch)
        prog = prepare(BY_NAME["alvinn"].source, "alvinn", args=(4, 3, 9),
                       use_cache=False)
        result = prog.execute(workers=2, backend="pool")
        assert result.output == prog.sequential.output
        assert seen and max(n for n, _ in seen) > 100
        assert all(runs <= len(prog.plan.redux_objects)
                   for _, runs in seen)

    def test_two_reduction_objects_apart_stay_two_runs(self, monkeypatch):
        from repro.bench.pipeline import prepare

        seen = self._watch(monkeypatch)
        prog = prepare(TWO_REDUCTIONS_SRC, "two_redux", args=(24,),
                       use_cache=False)
        assert len(prog.plan.redux_objects) == 2
        result = prog.execute(workers=2, backend="pool",
                              checkpoint_period=6)
        assert result.output == prog.sequential.output
        # Every iteration touches all three elements of both arrays;
        # they are 24 bytes on 16-byte alignment, so not adjacent.
        assert seen and set(seen) == {(6, 2)}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
class TestChildPlacement:
    """A pool on dedicated cores (ROADMAP 2(a)): pool child *c* (1 ..
    P-1; the parent is process 0) runs on the (*c* mod *n*)-th CPU of
    the mask the parent had at the fork; the parent's own mask is never
    touched."""

    @pytest.fixture
    def parent_cpus(self):
        """The test process confined to at most two CPUs, so three pool
        processes are more than there are; restored afterwards."""
        restore = os.sched_setaffinity  # a test below patches the name
        before = os.sched_getaffinity(0)
        cpus = sorted(before)[:2]
        restore(0, cpus)
        yield cpus
        restore(0, before)

    @staticmethod
    def _child_masks(monkeypatch, **kwargs):
        """Run the counter program on the pool; returns {pool process:
        the affinity masks it was seen with at the end of each epoch}."""
        seen = {}
        drain = Pool._drain

        def watched(self, payloads):
            out = drain(self, payloads)
            # Every live child has replied: all are past their first
            # statement and parked on the task pipe.
            for child in self.children:
                seen.setdefault(child.cwid, set()).add(
                    frozenset(os.sched_getaffinity(child.pid)))
            return out

        monkeypatch.setattr(Pool, "_drain", watched)
        prog = prepared_counter_program(12)
        result = prog.execute(backend="pool", checkpoint_period=3, **kwargs)
        assert result.output == prog.sequential.output
        return seen

    def test_each_child_gets_one_cpu_of_the_parents_mask(
            self, monkeypatch, parent_cpus):
        seen = self._child_masks(monkeypatch, workers=2)
        assert seen == {c: {frozenset({parent_cpus[c % len(parent_cpus)]})}
                        for c in range(1, 2)}
        assert sorted(os.sched_getaffinity(0)) == parent_cpus

    def test_round_robin_when_processes_outnumber_cpus(
            self, monkeypatch, parent_cpus):
        seen = self._child_masks(monkeypatch, workers=3)
        assert seen == {c: {frozenset({parent_cpus[c % len(parent_cpus)]})}
                        for c in range(1, 3)}
        assert sorted(os.sched_getaffinity(0)) == parent_cpus

    def test_processes_are_placed_not_logical_workers(
            self, monkeypatch, parent_cpus):
        seen = self._child_masks(monkeypatch, workers=4, processes=2)
        assert seen == {1: {frozenset({parent_cpus[1]})}}

    def test_refused_placement_is_ignored(self, monkeypatch, parent_cpus):
        def refuse(pid, mask):
            raise OSError(errno.EPERM, "affinity not permitted")

        # Patched before the fork, so every child inherits the refusal.
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        seen = self._child_masks(monkeypatch, workers=2)
        assert seen == {c: {frozenset(parent_cpus)} for c in range(1, 2)}


class TestWorkerDeathRespawn:
    @staticmethod
    def _kill_wid1_in_first_epoch(monkeypatch):
        orig = DOALLExecutor._run_slice

        def killer(self, worker, frame, epoch_start, epoch_end, init,
                   cut=None):
            report = orig(self, worker, frame, epoch_start, epoch_end, init,
                          cut)
            # Worker 1 runs in the child; the parent hosts worker 0.
            if worker.wid == 1 and epoch_start == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return report

        monkeypatch.setattr(DOALLExecutor, "_run_slice", killer)

    def test_sigkilled_worker_respawns_and_run_completes(
            self, monkeypatch):
        """SIGKILL of a pool child mid-epoch squashes the epoch through
        the standard recovery path and respawns the pool; the run
        completes with the correct output."""
        self._kill_wid1_in_first_epoch(monkeypatch)
        prog = prepared_counter_program(24)
        ex = make_executor(prog.module, prog.plan, workers=2, processes=2,
                           checkpoint_period=6)
        result = ex.run(prog.entry, prog.ref_args)
        assert result.output == prog.sequential.output
        # The death was recorded as a fault misspeculation + recovery …
        faults = [m for m in result.runtime_stats.misspeculations
                  if m.kind == "fault"]
        assert faults and "died mid-epoch" in faults[0].detail
        assert result.runtime_stats.recoveries >= 1
        # … and the pool was re-forked, for that reason.
        assert ex.pool_spawns >= 2
        assert ex.pool.respawns == {"no_pool": 1, "child_died": 1}

    def test_partial_epoch_telemetry_survives_worker_death(
            self, monkeypatch):
        """Telemetry that crossed the pipe before a sibling was
        SIGKILLed survives the squash: worker 0's span and metrics from
        the doomed epoch are absorbed, worker 1 shipped none."""
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER, WORKER_PID_BASE

        self._kill_wid1_in_first_epoch(monkeypatch)
        prog = prepared_counter_program(24)
        TRACER.enable()
        METRICS.reset()
        try:
            result = prog.execute(workers=2, backend="pool",
                                  checkpoint_period=6)
            snap = METRICS.snapshot()
            slices = [(ev["pid"] - WORKER_PID_BASE,
                       ev["attrs"]["epoch_start"])
                      for ev in TRACER.events
                      if ev.get("name") == "backend.worker_epoch"]
        finally:
            TRACER.disable()
            TRACER.reset()
            METRICS.reset()
        assert result.output == prog.sequential.output
        # Recovery resumed past iteration 1, so a slice starting at 0
        # can only come from the squashed epoch.
        assert (0, 0) in slices and (1, 0) not in slices
        for wid in (0, 1):
            assert snap[f"worker.{wid}.epoch.slices"]["value"] == \
                sum(1 for w, _ in slices if w == wid)
        assert snap["pool.worker_deaths"]["value"] == 1


# -- one fork per run ---------------------------------------------------------

#: The parallelized loop sits in a callee that main calls three times,
#: each time with other live-in registers (``bias``) and after storing
#: to a global the callee reads: three invocations, three loop frames.
THREE_CALLS_SRC = """
int scratch[16];
int out[48];
int scale[4];
int table[2048];

void work(int round, int n) {
    int bias = scale[round % 4] + round + table[round * 700];
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 16; j++) { scratch[j] = i * 16 + j + bias; }
        int acc = 0;
        for (int j = 0; j < 16; j++) { acc = acc + scratch[j] % 13; }
        out[round * 16 + i] = acc + table[i * 100 + round] % 7;
    }
}

int main(int n) {
    for (int j = 0; j < 4; j++) { scale[j] = j * 7 + 1; }
    work(0, n);
    scale[1] = 40;
    memset(table, 3, 8192);
    work(1, n);
    scale[2] = scale[1] + out[3];
    work(2, n);
    int total = 0;
    for (int i = 0; i < 48; i++) { total = total + out[i]; }
    printf("%d\\n", total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def three_calls():
    from repro.bench.pipeline import prepare

    prog = prepare(THREE_CALLS_SRC, "three_calls", args=(12,),
                   use_cache=False)
    assert prog.plan.loop.header.parent.name == "work"
    return prog


class TestResidentPool:
    """One fork per run: across invocations and recoveries the pool is
    synchronised with what main changed, and forked again only for the
    counted reasons."""

    def test_loop_in_a_callee_stays_resident(self, three_calls):
        """Every call pushes a new frame with other registers: the sync
        carries the loop frame by value, no identity asked."""
        ex = make_executor(three_calls.module, three_calls.plan, workers=2,
                           processes=2)
        result = ex.run(three_calls.entry, three_calls.ref_args)
        assert result.output == three_calls.sequential.output
        assert result.runtime_stats.invocations == 3
        assert ex.pool_spawns == 1
        assert ex.pool.syncs == 2

    def test_stretch_over_the_size_constant_respawns(
            self, three_calls, monkeypatch):
        """Between the first two calls main sets 8 KiB of a global;
        with the constant under that, shipping it is refused and the
        pool is forked again — for that reason, and only there."""
        monkeypatch.setattr(pool_backend, "SYNC_MAX_BYTES", 4096)
        ex = make_executor(three_calls.module, three_calls.plan, workers=2,
                           processes=2)
        result = ex.run(three_calls.entry, three_calls.ref_args)
        assert result.output == three_calls.sequential.output
        assert ex.pool.respawns == {"no_pool": 1, "oversize": 1}
        assert ex.pool.syncs == 1

    def test_child_killed_between_invocations_costs_one_respawn(
            self, three_calls, monkeypatch):
        """A child that died while the pool was idle is found dead
        before the sync is sent: no epoch is lost to it."""
        run_invocation = DOALLExecutor._run_invocation

        def kill_after_the_first(self, bp):
            run_invocation(self, bp)
            if len(self._invocations) == 1:
                (child,) = self.pool.children
                assert child.cwid == 1
                pid = child.pid
                os.kill(pid, signal.SIGKILL)
                # Gone, and left for the executor to reap.
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)

        monkeypatch.setattr(DOALLExecutor, "_run_invocation",
                            kill_after_the_first)
        ex = make_executor(three_calls.module, three_calls.plan, workers=2,
                           processes=2)
        result = ex.run(three_calls.entry, three_calls.ref_args)
        assert result.output == three_calls.sequential.output
        assert result.runtime_stats.misspec_count() == 0
        assert ex.pool.respawns == {"no_pool": 1, "child_died": 1}
        assert ex.pool.syncs == 1  # into the third invocation

    def test_child_dying_on_a_sync_is_a_squash(self, monkeypatch):
        """EOF while a child applies a sync is a death like any other:
        the epoch squashes, the survivor's telemetry is kept, the pool
        is forked again."""
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER, WORKER_PID_BASE

        apply_sync = Pool._child_apply_sync

        def die_in_the_first_pool(self, frame, plan):
            # ``spawns`` as the fork saw it: 0 in the first pool.
            if self.spawns == 0 and 1 in self._child_wids:
                os.kill(os.getpid(), signal.SIGKILL)
            apply_sync(self, frame, plan)

        child_main = Pool._child_main

        def remember_wids(self, cwid, wids, frame, task_rfd, wfd):
            self._child_wids = wids
            child_main(self, cwid, wids, frame, task_rfd, wfd)

        monkeypatch.setattr(Pool, "_child_main", remember_wids)
        monkeypatch.setattr(Pool, "_child_apply_sync", die_in_the_first_pool)
        prog = prepared_counter_program(24)
        TRACER.enable()
        METRICS.reset()
        try:
            result = prog.execute(workers=2, backend="pool",
                                  checkpoint_period=5, misspec_period=10)
            snap = METRICS.snapshot()
            slices = [(ev["pid"] - WORKER_PID_BASE,
                       ev["attrs"]["epoch_start"])
                      for ev in TRACER.events
                      if ev.get("name") == "backend.worker_epoch"]
        finally:
            TRACER.disable()
            TRACER.reset()
            METRICS.reset()
        assert result.output == prog.sequential.output
        # Injected at 9, recovered to 10; the epoch from 10 carried the
        # sync that killed worker 1's process: its first iteration there
        # is 11, recovery ran [10, 11], the new pool started at 12.
        kinds = [m.kind for m in result.runtime_stats.misspeculations]
        assert kinds[:2] == ["injected", "fault"]
        assert (0, 10) in slices and (1, 10) not in slices
        assert (0, 12) in slices and (1, 12) in slices
        assert snap["pool.worker_deaths"]["value"] == 1
        assert snap["pool.respawns.child_died"]["value"] == 1
        assert snap["pool.spawns"]["value"] == 2
        assert snap["pool.syncs"]["value"] >= 2
        assert snap["pool.sync_bytes"]["value"] > 0


# -- the parent as worker 0 ---------------------------------------------------


class TestParentWorker:
    """The parent hosts worker 0: it runs worker 0's slice by the one
    slice loop while P - 1 children run the rest, and seeds the
    accounting's earliest-misspeculation cut with the result.  In the
    simulated order worker 0 always runs first, uncut, so every
    observable equals the parent alone's."""

    @pytest.mark.parametrize("misspec_period", [0, 3])
    @pytest.mark.parametrize("processes", [None, 1, 2])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_equals_simulated(self, monkeypatch, workers, processes,
                              misspec_period):
        from test_backend_parity import _compare, _execute

        prog = prepared_counter_program(16)
        sim_ex, sim = _execute(prog, 1, workers=workers,
                               misspec_period=misspec_period,
                               checkpoint_period=4)
        real_fork = os.fork
        forks = []

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        size = min(processes or workers, workers)
        pool_ex, pool = _execute(prog, size, workers=workers,
                                 misspec_period=misspec_period,
                                 checkpoint_period=4)
        _compare(sim_ex, sim, pool_ex, pool)
        assert pool.output == prog.sequential.output
        assert pool_ex.processes == size
        if size == 1:
            assert forks == [] and pool_ex.pool_spawns == 0
        else:
            assert pool_ex.pool_spawns >= 1
            assert len(forks) == (size - 1) * pool_ex.pool_spawns

    def test_worker0_misspeculation_cuts_the_childs_records(
            self, monkeypatch):
        """Worker 0 misspeculates at iteration 2 of the first epoch; the
        child hosting worker 1 ran 1, 3 and 5 meanwhile, misspeculating
        at 5 too.  The accounting, seeded with worker 0's cut, keeps 1
        and drops the rest, misspeculation included, as the simulated
        scheduler never starts them."""
        from test_backend_parity import _compare, _execute

        seen = []
        account = DOALLExecutor._account_slices

        def iterations(reports):
            return [(r.wid, [rec.iteration for rec in r.records])
                    for r in reports]

        def watched(self, reports, inv, earliest=None, shipped=False):
            ran = iterations(reports)
            result = account(self, reports, inv, earliest, shipped)
            if shipped:
                seen.append((earliest, ran, iterations(reports)))
            return result

        monkeypatch.setattr(DOALLExecutor, "_account_slices", watched)
        prog = prepared_counter_program(16)
        sim_ex, sim = _execute(prog, 1, workers=2,
                               misspec_period=3, checkpoint_period=8)
        pool_ex, pool = _execute(prog, 2, workers=2,
                                 misspec_period=3, checkpoint_period=8)
        _compare(sim_ex, sim, pool_ex, pool)
        earliest, ran, kept = seen[0]
        assert earliest[0] == 2 and earliest[1].kind == "injected"
        assert ran == [(1, [1, 3, 5])]
        assert kept == [(1, [1])]
        first_epoch = [(e.worker, e.label) for e in pool_ex.timeline.events
                       if e.kind in ("iteration", "misspec")][:3]
        assert first_epoch == [(0, "i=0"), (0, "injected"), (1, "i=1")]
        assert [m.iteration for m in pool.runtime_stats.misspeculations
                ][:2] == [2, 8]


# -- telemetry plane ----------------------------------------------------------


class TestPoolTelemetry:
    def test_worker_metrics_merge_with_stable_wids(self):
        """worker.N.* labels on the pool backend key the *stable* pool
        worker ids; totals reconcile with the parent accounting."""
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER

        prog = prepared_counter_program(16)
        TRACER.enable()
        METRICS.reset()
        try:
            prog.execute(workers=2, backend="pool")
            snap = METRICS.snapshot()
        finally:
            TRACER.disable()
            TRACER.reset()
            METRICS.reset()
        for wid in (0, 1):
            assert snap[f"worker.{wid}.epoch.slices"]["value"] > 0
            assert snap[f"worker.{wid}.epoch.iterations"]["value"] > 0
            assert snap[f"worker.{wid}.epoch.busy_us"]["value"] > 0
        shipped = sum(snap[f"worker.{w}.epoch.iterations"]["value"]
                      for w in (0, 1))
        assert shipped == snap["executor.iterations.committed"]["value"]
        assert snap["pool.spawns"]["value"] >= 1

    def test_worker_epoch_spans_in_worker_pids(self):
        from repro.obs.trace import TRACER, WORKER_PID_BASE

        prog = prepared_counter_program(16)
        TRACER.enable()
        try:
            prog.execute(workers=2, backend="pool")
            worker_pids = {
                ev.get("pid") for ev in TRACER.events
                if ev.get("name") == "backend.worker_epoch"
            }
        finally:
            TRACER.disable()
            TRACER.reset()
        assert worker_pids == {WORKER_PID_BASE, WORKER_PID_BASE + 1}

    def test_top_dashboard_shows_stable_worker_rows(self):
        """`repro top` groups a pool-backend metrics snapshot into one
        row per *stable* pool worker id, in numeric order."""
        from repro.obs.metrics import METRICS
        from repro.obs.server import StatusServer
        from repro.obs.top import render_dashboard, worker_rows
        from repro.obs.trace import TRACER

        prog = prepared_counter_program(16)
        TRACER.enable()
        METRICS.reset()
        try:
            prog.execute(workers=2, backend="pool")
            payload = StatusServer().metrics_payload()
        finally:
            TRACER.disable()
            TRACER.reset()
            METRICS.reset()
        rows = worker_rows(payload["metrics"])
        assert [w for w, _ in rows] == ["0", "1"]
        for _, row in rows:
            assert row["epoch.iterations"] > 0
        # And the full dashboard frame renders without blowing up.
        assert "worker" in render_dashboard(payload).lower()

    def test_no_worker_metrics_when_tracing_off(self):
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER

        TRACER.disable()
        METRICS.reset()
        prog = prepared_counter_program(8)
        prog.execute(workers=2, backend="pool")
        assert not any(name.startswith("worker.")
                       for name in METRICS.snapshot())
