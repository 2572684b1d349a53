"""Differential parity: a team of any size P must be observationally
identical to the parent alone (P = 1, the simulated reference).

Every team size feeds the same fragment-based checkpoint commit path,
so parity should hold *by construction*; these tests enforce it end to
end on every evaluated workload: identical guest output and return
value, identical final memory state, identical ``RuntimeStats``
(including the Table 3 row and every additive counter), identical
misspeculation events, and identical simulated-cycle wall clocks and
timelines.

Every scenario sweeps P over 1, 2 and the worker count n, each on a
fresh pipeline, and compares every team with children against the
reference — including injected and genuine misspeculation, and
adaptive-controller trajectories with sequential fallback.
"""

import re
from collections import Counter

import pytest

from repro.adapt import SpeculationController
from repro.bench.pipeline import prepare
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER, WALL_PID, WORKER_PID_BASE
from repro.parallel.backend import DOALLExecutor, make_executor
from repro.workloads import ALL_WORKLOADS

from helpers import prepared_counter_program


def _memory_digest(space):
    """Canonical snapshot of final live memory: (base, size, bytes) per
    object, sorted by address."""
    return sorted(
        (obj.base, obj.size, bytes(obj.data))
        for obj in space.live_objects()
    )


def _team_sizes(workers):
    """The sweep of P: 1, 2 and n, each once."""
    return sorted({1, min(2, workers), workers})


def _execute(program, processes, **kwargs):
    if kwargs.pop("adapt", False):
        # A fresh store-less controller per run: decisions are pure
        # functions of the epoch outcomes, so every team size must drive
        # identical state trajectories without any persistence.
        kwargs["controller"] = SpeculationController(
            loop=str(program.plan.ref), workload=program.name)
    executor = make_executor(program.module, program.plan,
                             workers=kwargs.pop("workers", 4),
                             processes=processes, record_timeline=True,
                             **kwargs)
    result = executor.run(program.entry, program.ref_args)
    return executor, result


def _timeline_tuples(executor):
    return [(e.kind, e.worker, e.start, e.end, e.label)
            for e in executor.timeline.events]


def _compare(sim_ex, sim, other_ex, other):
    """Bit-exact comparison of one run against the P = 1 reference
    run."""
    assert sim.output == other.output
    assert sim.return_value == other.return_value
    assert sim.total_wall_cycles == other.total_wall_cycles
    assert _memory_digest(sim_ex.interp.space) == \
        _memory_digest(other_ex.interp.space)

    s, p = sim.runtime_stats, other.runtime_stats
    assert s.table3_row() == p.table3_row()
    assert s.counter_snapshot() == p.counter_snapshot()
    assert s.misspec_count() == p.misspec_count()
    assert s.recoveries == p.recoveries
    assert [(m.kind, m.iteration, m.detail, m.injected)
            for m in s.misspeculations] == \
        [(m.kind, m.iteration, m.detail, m.injected)
         for m in p.misspeculations]
    assert [(r.start_iteration, r.end_iteration, r.private_bytes_copied,
             r.redux_bytes_merged, r.io_records_committed, r.dirty_pages)
            for r in s.checkpoint_records] == \
        [(r.start_iteration, r.end_iteration, r.private_bytes_copied,
          r.redux_bytes_merged, r.io_records_committed, r.dirty_pages)
         for r in p.checkpoint_records]
    assert _timeline_tuples(sim_ex) == _timeline_tuples(other_ex)
    assert sim.adapt == other.adapt


def _assert_parity(source, name, train, ref=None, **kwargs):
    """Run every team size of the sweep on a fresh pipeline and compare
    each against the P = 1 reference; returns the reference result and
    the others'."""
    runs = [_execute(prepare(source, name, args=train, ref_args=ref), p,
                     **dict(kwargs))
            for p in _team_sizes(kwargs.get("workers", 4))]
    sim_ex, sim = runs[0]
    for team_ex, team in runs[1:]:
        _compare(sim_ex, sim, team_ex, team)
    return sim, [team for _, team in runs[1:]]


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_workload_parity(workload):
    """All five evaluated programs: every team reproduces the parent
    alone bit for bit (train input keeps runtimes sane)."""
    sim, _teams = _assert_parity(workload.source, workload.name,
                                train=workload.train, ref=workload.train)
    assert sim.output  # the run actually did something


class TestCounterProgramParity:
    def test_clean_run(self):
        prog = prepared_counter_program(32)
        _assert_parity(prog.source, "counter", train=(32,),
                       checkpoint_period=5)

    def test_injected_misspeculation(self):
        """Parity must survive squash/recovery: injected misspecs at a
        fixed period hit identical iterations at every team size."""
        prog = prepared_counter_program(32)
        sim, _teams = _assert_parity(prog.source, "counter", train=(32,),
                                   misspec_period=10)
        assert sim.runtime_stats.misspec_count() == 3

    def test_injected_misspeculation_offset_period(self):
        prog = prepared_counter_program(32)
        sim, _ = _assert_parity(prog.source, "counter", train=(32,),
                                misspec_period=7, checkpoint_period=4)
        assert sim.runtime_stats.misspec_count() > 0


class TestAdaptiveParity:
    """The adaptive controller must preserve parity: decisions are pure
    functions of the (identical) epoch-outcome sequence, so every team
    size follows the same epoch-size trajectory, and the adaptive run's
    final output is bit-exact vs the fixed-policy run."""

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=[w.name for w in ALL_WORKLOADS])
    def test_workload_adaptive_parity(self, workload):
        sim, _teams = _assert_parity(workload.source, workload.name,
                                     train=workload.train,
                                     ref=workload.train, adapt=True,
                                     misspec_period=6, misspec_burst=18)
        assert sim.adapt is not None
        # Bit-exact vs the fixed-policy run under the same injection.
        fixed_prog = prepare(workload.source, workload.name,
                             args=workload.train, ref_args=workload.train)
        _, fixed = _execute(fixed_prog, 1, misspec_period=6,
                            misspec_burst=18)
        assert sim.output == fixed.output
        assert sim.return_value == fixed.return_value

    def test_counter_adaptive_storm_with_fallback(self):
        """Sustained storm: shrink, fallback, sequential spans — all in
        lockstep at every team size."""
        prog = prepared_counter_program(64)
        sim, teams = _assert_parity(prog.source, "counter", train=(64,),
                                    adapt=True, misspec_period=2)
        assert sim.adapt["fallbacks"] > 0
        assert sim.adapt["sequential_iterations"] > 0
        for team in teams:
            assert [(i.sequential_iterations, i.sequential_cycles)
                    for i in sim.invocations] == \
                [(i.sequential_iterations, i.sequential_cycles)
                 for i in team.invocations]


class TestGenuineMisspeculationParity:
    """Genuine (profile-violating) misspeculation paths recover to the
    identical state at every team size."""

    SRC = """
    int state[8];
    int out[128];
    int main(int n, int carry) {
        for (int i = 0; i < n; i++) {
            if (carry && i > 0) {
                out[i] = state[0];
            } else {
                out[i] = i;
            }
            state[0] = i * 7;
            for (int j = 0; j < 25; j++) { out[i] += j; }
        }
        printf("%d %d %d\\n", out[1], out[5], out[n-1]);
        return 0;
    }
    """

    def test_privacy_violation_parity(self):
        sim, _ = _assert_parity(self.SRC, "parity_privacy",
                                train=(24, 0), ref=(24, 1))
        assert sim.runtime_stats.misspec_count() > 0
        assert sim.runtime_stats.recoveries > 0


class TestTelemetryParity:
    """A traced run reads the same at every team size: a
    misspeculation is counted once, on the parent's own lines, and each
    worker's lane and ``worker.<wid>.epoch.*`` tally show its slices as
    the simulated scheduler ran them."""

    @staticmethod
    def _traced(prog, processes, **kwargs):
        METRICS.reset()
        TRACER.reset()
        TRACER.enable()
        try:
            _, result = _execute(prog, processes, **kwargs)
            return result, METRICS.snapshot(), list(TRACER.events)
        finally:
            TRACER.disable()
            TRACER.reset()
            METRICS.reset()

    @pytest.mark.parametrize("misspec_period", [0, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_reads_the_same_at_every_team_size(self, workers,
                                               misspec_period):
        prog = prepared_counter_program(16)
        views = []
        for processes in _team_sizes(workers):
            result, snap, events = self._traced(
                prog, processes, workers=workers,
                misspec_period=misspec_period, checkpoint_period=4)
            assert result.output == prog.sequential.output
            kinds = Counter(m.kind
                            for m in result.runtime_stats.misspeculations)
            assert bool(kinds) == bool(misspec_period)
            assert {name[len("runtime.misspec."):]: metric["value"]
                    for name, metric in snap.items()
                    if name.startswith("runtime.misspec.")} == kinds
            assert not [name for name in snap
                        if re.match(r"worker\.\d+\.runtime\.", name)]
            instants = [ev for ev in events
                        if ev["name"] == "runtime.misspec"]
            assert len(instants) == sum(kinds.values())
            assert {ev["pid"] for ev in instants} <= {WALL_PID}
            views.append({
                wid: (
                    [snap.get(f"worker.{wid}.epoch.{name}", {}).get("value", 0)
                     for name in ("slices", "iterations",
                                  "misspeculations")],
                    sum(1 for ev in events
                        if ev["name"] == "backend.worker_epoch"
                        and ev["pid"] == WORKER_PID_BASE + wid))
                for wid in range(workers)})
        assert all(view == views[0] for view in views[1:]), views
        assert all(slices == spans > 0
                   for (slices, _, _), spans in views[0].values())


class TestRecordStreamParity:
    """Every team size accounts the same iteration records, wherever
    the slice ran: every worker's in the parent alone, worker 0's in the
    parent of a larger team and the children's shipped ones, cut alike
    at the earliest misspeculation."""

    SRC = """
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

    @pytest.mark.parametrize("misspec_period", [0, 3])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_same_stream_at_every_team_size(self, monkeypatch, workers,
                                            misspec_period):
        prog = prepare(self.SRC, "record_stream", args=(16,))
        stream = []
        account = DOALLExecutor._account_slices

        def watched(self, reports, inv, earliest=None, shipped=False):
            result = account(self, reports, inv, earliest, shipped)
            stream.extend(
                (r.wid, rec.iteration, rec.cycles, rec.steps,
                 rec.validation_cycles, rec.stats_delta, rec.io, rec.misspec)
                for r in reports for rec in r.records)
            return result

        monkeypatch.setattr(DOALLExecutor, "_account_slices", watched)
        streams = []
        for processes in _team_sizes(workers):
            del stream[:]
            _, result = _execute(prog, processes, workers=workers,
                                 misspec_period=misspec_period,
                                 checkpoint_period=4)
            assert result.output == prog.sequential.output
            streams.append(list(stream))
        assert all(s == streams[0] for s in streams[1:])
        assert {wid for wid, *_ in streams[0]} == set(range(workers))
        assert all(io for *_, io, _misspec in streams[0])
        misspecs = [misspec for *_, misspec in streams[0] if misspec]
        assert len(misspecs) == len(result.runtime_stats.misspeculations)
        assert bool(misspecs) == bool(misspec_period)
