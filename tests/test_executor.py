"""DOALL executor: trip counts, scheduling, misspeculation recovery,
timelines, and the cost/overhead accounting."""

import pytest

from repro.ir.instructions import CmpPred
from repro.parallel.backend import trip_count

from .helpers import prepared_counter_program


class TestTripCount:
    @pytest.mark.parametrize("init,bound,step,pred,exit_on_true,expect", [
        (0, 10, 1, CmpPred.LT, False, 10),
        (0, 10, 2, CmpPred.LT, False, 5),
        (0, 11, 2, CmpPred.LT, False, 6),
        (0, 10, 1, CmpPred.LE, False, 11),
        (10, 0, -1, CmpPred.GT, False, 10),
        (10, 0, -2, CmpPred.GE, False, 6),
        (0, 10, 1, CmpPred.NE, False, 10),
        (5, 5, 1, CmpPred.LT, False, 0),
        (9, 5, 1, CmpPred.LT, False, 0),
        # exit_on_true inverts the predicate:
        (0, 10, 1, CmpPred.GE, True, 10),
    ])
    def test_counts(self, init, bound, step, pred, exit_on_true, expect):
        assert trip_count(init, bound, step, pred, exit_on_true) == expect

    def test_uncomputable_returns_none(self):
        assert trip_count(0, 7, 2, CmpPred.NE, False) is None
        assert trip_count(0, 10, -1, CmpPred.LT, False) is None


@pytest.fixture(scope="module")
def counter():
    return prepared_counter_program(32)


class TestParallelExecution:
    def test_result_identical_to_sequential(self, counter):
        result = counter.execute(workers=4)
        assert result.output == counter.sequential.output
        assert result.return_value == counter.sequential.return_value

    def test_single_worker_still_correct(self, counter):
        result = counter.execute(workers=1)
        assert result.output == counter.sequential.output

    def test_more_workers_than_iterations(self, counter):
        result = counter.execute(workers=64)
        assert result.output == counter.sequential.output

    def test_speedup_monotone_in_workers(self, counter):
        s4 = counter.speedup(counter.execute(workers=4))
        s16 = counter.speedup(counter.execute(workers=16))
        assert s16 > s4 > 1.0

    def test_invocation_accounting(self, counter):
        result = counter.execute(workers=4)
        assert len(result.invocations) == 1
        inv = result.invocations[0]
        assert inv.trips == 32
        assert inv.workers == 4
        assert inv.wall_cycles > 0
        assert inv.useful_cycles > 0

    def test_overhead_breakdown_sums_to_one(self, counter):
        result = counter.execute(workers=8)
        breakdown = result.overhead_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0, abs=0.02)
        assert 0 < breakdown["useful"] <= 1

    def test_checkpoint_period_controls_count(self, counter):
        r2 = counter.execute(workers=4, checkpoint_period=2)
        r16 = counter.execute(workers=4, checkpoint_period=16)
        assert r2.runtime_stats.checkpoints == 16
        assert r16.runtime_stats.checkpoints == 2
        assert r2.output == r16.output


class TestMisspeculationRecovery:
    def test_injected_misspec_still_correct(self, counter):
        result = counter.execute(workers=4, misspec_period=10)
        assert result.output == counter.sequential.output
        stats = result.runtime_stats
        assert stats.misspec_count() == 3  # iterations 9, 19, 29
        assert stats.recoveries == 3

    def test_injected_misspec_slows_execution(self, counter):
        clean = counter.execute(workers=8)
        faulty = counter.execute(workers=8, misspec_period=8)
        assert faulty.total_wall_cycles > clean.total_wall_cycles

    def test_every_iteration_misspec_degrades_hard(self, counter):
        # §2: dependence-speculation-style constant squashing.
        result = counter.execute(workers=8, misspec_period=2)
        assert result.output == counter.sequential.output
        assert counter.speedup(result) < 1.0

    def test_recovered_iterations_accounted(self, counter):
        result = counter.execute(workers=4, misspec_period=10,
                                 checkpoint_period=8)
        inv = result.invocations[0]
        assert inv.recovered_iterations > 0
        assert inv.recovery_cycles > 0


FREE_LIVE_IN_SRC = """
int* bufs[64];
int out[64];

int main(int n, int m, int seed) {
    for (int i = 0; i < n; i++) {
        int* p = (int*)malloc(m * sizeof(int));
        for (int j = 0; j < m; j++) { p[j] = seed + i + j; }
        bufs[i] = p;
    }
    for (int i = 0; i < n; i++) {
        int* p = bufs[i];
        int s = 0;
        for (int j = 0; j < m; j++) { s = s + p[j] * (j + 1); }
        out[i] = s;
        free(p);
    }
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + out[i]; }
    printf("%d\\n", total);
    return total;
}
"""


class TestSpeculativeFreeOfLiveIn:
    """A loop that frees objects allocated before it: a worker's free is
    private to the worker and dropped, so a squashed iteration can run
    again — in the main space, which used to have lost the object to
    the simulated worker's ``free`` (wild pointer on recovery) while the
    forked pool worker's never reached it."""

    @pytest.fixture(scope="class")
    def program(self):
        from repro.bench.pipeline import prepare

        prog = prepare(FREE_LIVE_IN_SRC, "free_live_in", args=(16, 32, 3),
                       ref_args=(24, 32, 5), use_cache=False)
        assert str(prog.plan.ref) == "main/for.cond.2"
        (site,) = [s for s in prog.assignment.site_heaps
                   if s.startswith("main:")]
        assert str(prog.assignment.site_heaps[site]) == "readonly"
        return prog

    @pytest.mark.parametrize("backend", ["simulated", "pool"])
    @pytest.mark.parametrize("misspec_period", [0, 5])
    def test_output_equals_sequential(self, program, backend,
                                      misspec_period):
        result = program.execute(workers=2, backend=backend,
                                 misspec_period=misspec_period)
        assert result.output == program.sequential.output
        assert result.runtime_stats.misspec_count() == (
            4 if misspec_period else 0)


class TestTimeline:
    def test_timeline_records_phases(self, counter):
        result = counter.execute(workers=3, record_timeline=True,
                                 misspec_period=20)
        timeline = result.timeline
        kinds = {e.kind for e in timeline.events}
        assert {"spawn", "iteration", "checkpoint", "join"} <= kinds
        assert "recovery" in kinds  # from the injected misspec
        text = timeline.render()
        assert "worker 0" in text and "legend" in text

    def test_iterations_attributed_round_robin(self, counter):
        result = counter.execute(workers=3, record_timeline=True)
        events = [e for e in result.timeline.events if e.kind == "iteration"]
        by_worker = {}
        for e in events:
            by_worker.setdefault(e.worker, []).append(e.label)
        assert set(by_worker) == {0, 1, 2}
        assert "i=0" in by_worker[0]
        assert "i=1" in by_worker[1]


class TestFallbacks:
    def test_zero_trip_invocation_runs_sequentially(self):
        from repro.bench.pipeline import prepare

        src = """
        int scratch[4];
        int out[64];
        int main(int n, int m) {
            for (int i = 0; i < n; i++) {
                scratch[0] = i;
                out[i] = scratch[0] * 2;
                for (int j = 0; j < 10; j++) { out[i] += j; }
            }
            /* second invocation with zero trips */
            for (int i = 0; i < m; i++) {
                scratch[0] = i;
                out[i] = scratch[0];
                for (int j = 0; j < 10; j++) { out[i] += j; }
            }
            printf("%d\\n", out[3]);
            return 0;
        }
        """
        prog = prepare(src, "zero_trip", args=(16, 0))
        result = prog.execute(workers=4)
        assert result.output == prog.sequential.output
