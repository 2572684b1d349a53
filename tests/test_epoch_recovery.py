"""Epoch squash-and-recover regression tests (§5.2), at two team sizes.

A misspeculation in checkpoint epoch *k* must leave every earlier epoch
committed (their checkpoint records retired, their side effects in main
memory) and squash epoch *k* itself plus any speculative state beyond
it; the failed epoch then re-runs sequentially and execution resumes.
These tests pin that contract down for the parent alone (the simulated
reference) and a team with children alike.
"""

import pytest

from repro.bench.pipeline import prepare
from repro.parallel.backend import make_executor

from helpers import prepared_counter_program

#: Team sizes: the parent alone (the simulated reference) and one
#: process per worker (the pool).
TEAM_SIZES = (1, 4)


def _run(prog, processes, **kwargs):
    executor = make_executor(prog.module, prog.plan,
                             workers=kwargs.pop("workers", 4),
                             processes=processes, record_timeline=True,
                             **kwargs)
    result = executor.run(prog.entry, prog.ref_args)
    return executor, result


@pytest.mark.parametrize("processes", TEAM_SIZES)
class TestInjectedEpochFailure:
    """Deterministic injected misspeculation: iteration 10 of 32 fails
    with checkpoint period 4, so epochs [0,4) and [4,8) commit before
    the failure and epoch [8,12) is squashed and recovered."""

    def _result(self, processes):
        prog = prepared_counter_program(32)
        return prog, _run(prog, processes, checkpoint_period=4,
                          misspec_period=11)

    def test_output_is_exact_after_recovery(self, processes):
        prog, (_ex, result) = self._result(processes)
        assert result.output == prog.sequential.output
        assert result.return_value == prog.sequential.return_value

    def test_earlier_epochs_stay_committed(self, processes):
        prog, (_ex, result) = self._result(processes)
        stats = result.runtime_stats
        failed = {m.iteration for m in stats.misspeculations}
        assert failed, "injection must have fired"
        first_failure = min(failed)
        committed = [r for r in stats.checkpoint_records
                     if r.end_iteration <= first_failure]
        # Every epoch that retired before the first failure was validated
        # and committed — none of them are re-run or rolled back.
        assert committed, "epochs before the failure must have committed"
        for rec in committed:
            assert not rec.speculative
            assert rec.end_iteration <= first_failure

    def test_failed_epoch_squashed_not_committed(self, processes):
        prog, (_ex, result) = self._result(processes)
        stats = result.runtime_stats
        first_failure = min(m.iteration for m in stats.misspeculations)
        # No checkpoint record spans the failing iteration as a
        # *speculative* commit: the epoch containing it was squashed and
        # its iterations re-executed sequentially (recovery).
        spanning = [r for r in stats.checkpoint_records
                    if r.start_iteration <= first_failure < r.end_iteration]
        assert not spanning
        assert stats.recoveries >= 1

    def test_recovery_events_on_timeline(self, processes):
        prog, (ex, result) = self._result(processes)
        kinds = {e.kind for e in ex.timeline.events}
        assert "misspec" in kinds
        assert "recovery" in kinds
        assert "checkpoint" in kinds


@pytest.mark.parametrize("processes", TEAM_SIZES)
class TestGenuineEpochFailure:
    """A genuine loop-carried flow dependence (absent on the train
    input) trips privacy/control validation mid-run; recovery must
    yield the sequential result with earlier epochs still committed."""

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

    def test_recovers_exactly(self, processes):
        prog = prepare(self.SRC, "epoch_recovery_genuine",
                       args=(24, 0), ref_args=(24, 1))
        _ex, result = _run(prog, processes)
        assert result.output == prog.sequential.output
        stats = result.runtime_stats
        assert stats.misspec_count() > 0
        assert stats.recoveries > 0
        # Committed epochs never include a squashed iteration.
        for m in stats.misspeculations:
            assert not any(
                r.start_iteration <= m.iteration < r.end_iteration
                for r in stats.checkpoint_records)
