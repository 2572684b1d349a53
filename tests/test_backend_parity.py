"""Differential parity: the pool backend must be observationally
identical to the simulated reference backend.

Both backends feed the same fragment-based checkpoint commit path, so
parity should hold *by construction*; these tests enforce it end to end
on every evaluated workload: identical guest output and return value,
identical final memory state, identical ``RuntimeStats`` (including the
Table 3 row and every additive counter), identical misspeculation
events, and identical simulated-cycle wall clocks and timelines.

Every scenario runs two fresh pipelines (simulated, pool) and compares
the real backend against the simulated reference — including injected
and genuine misspeculation, and adaptive-controller trajectories with
sequential fallback.
"""

import pytest

from repro.adapt import SpeculationController
from repro.bench.pipeline import prepare
from repro.parallel.backend import make_executor
from repro.workloads import ALL_WORKLOADS

from helpers import prepared_counter_program


def _memory_digest(space):
    """Canonical snapshot of final live memory: (base, size, bytes) per
    object, sorted by address."""
    return sorted(
        (obj.base, obj.size, bytes(obj.data))
        for obj in space.live_objects()
    )


def _execute(program, backend, **kwargs):
    if kwargs.pop("adapt", False):
        # A fresh store-less controller per run: decisions are pure
        # functions of the epoch outcomes, so both backends must drive
        # identical state trajectories without any persistence.
        kwargs["controller"] = SpeculationController(
            loop=str(program.plan.ref), workload=program.name)
    executor = make_executor(backend, program.module, program.plan,
                             workers=kwargs.pop("workers", 4),
                             record_timeline=True, **kwargs)
    result = executor.run(program.entry, program.ref_args)
    return executor, result


def _timeline_tuples(executor):
    return [(e.kind, e.worker, e.start, e.end, e.label)
            for e in executor.timeline.events]


def _compare(sim_ex, sim, other_ex, other):
    """Bit-exact comparison of one pool-backend run against the
    simulated reference run."""
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
    """Run both backends on fresh pipelines and compare the pool run
    against the simulated reference."""
    sim_prog = prepare(source, name, args=train, ref_args=ref)
    pool_prog = prepare(source, name, args=train, ref_args=ref)
    sim_ex, sim = _execute(sim_prog, "simulated", **dict(kwargs))
    pool_ex, pool = _execute(pool_prog, "pool", **dict(kwargs))

    _compare(sim_ex, sim, pool_ex, pool)
    return sim, pool


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_workload_parity(workload):
    """All five evaluated programs: the pool backend reproduces the
    simulated backend bit for bit (train input keeps runtimes sane)."""
    sim, _pool = _assert_parity(workload.source, workload.name,
                                train=workload.train, ref=workload.train)
    assert sim.output  # the run actually did something


class TestCounterProgramParity:
    def test_clean_run(self):
        prog = prepared_counter_program(32)
        _assert_parity(prog.source, "counter", train=(32,),
                       checkpoint_period=5)

    def test_injected_misspeculation(self):
        """Parity must survive squash/recovery: injected misspecs at a
        fixed period hit identical iterations on both backends."""
        prog = prepared_counter_program(32)
        sim, pool = _assert_parity(prog.source, "counter", train=(32,),
                                   misspec_period=10)
        assert sim.runtime_stats.misspec_count() == 3

    def test_injected_misspeculation_offset_period(self):
        prog = prepared_counter_program(32)
        sim, _ = _assert_parity(prog.source, "counter", train=(32,),
                                misspec_period=7, checkpoint_period=4)
        assert sim.runtime_stats.misspec_count() > 0


class TestAdaptiveParity:
    """The adaptive controller must preserve parity: decisions are pure
    functions of the (identical) epoch-outcome sequence, so both
    backends follow the same epoch-size trajectory, and the adaptive
    run's final output is bit-exact vs the fixed-policy run."""

    @pytest.mark.parametrize("workload", ALL_WORKLOADS,
                             ids=[w.name for w in ALL_WORKLOADS])
    def test_workload_adaptive_parity(self, workload):
        sim, pool = _assert_parity(workload.source, workload.name,
                                   train=workload.train, ref=workload.train,
                                   adapt=True, misspec_period=6,
                                   misspec_burst=18)
        assert sim.adapt is not None
        # Bit-exact vs the fixed-policy run under the same injection.
        fixed_prog = prepare(workload.source, workload.name,
                             args=workload.train, ref_args=workload.train)
        _, fixed = _execute(fixed_prog, "simulated", misspec_period=6,
                            misspec_burst=18)
        assert sim.output == fixed.output
        assert sim.return_value == fixed.return_value

    def test_counter_adaptive_storm_with_fallback(self):
        """Sustained storm: shrink, fallback, sequential spans — all in
        lockstep across backends."""
        prog = prepared_counter_program(64)
        sim, pool = _assert_parity(prog.source, "counter", train=(64,),
                                   adapt=True, misspec_period=2)
        assert sim.adapt["fallbacks"] > 0
        assert sim.adapt["sequential_iterations"] > 0
        assert [(i.sequential_iterations, i.sequential_cycles)
                for i in sim.invocations] == \
            [(i.sequential_iterations, i.sequential_cycles)
             for i in pool.invocations]


class TestGenuineMisspeculationParity:
    """Genuine (profile-violating) misspeculation paths recover to the
    identical state on both backends."""

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
