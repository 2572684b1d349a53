"""Phase-two (checkpoint-time) privacy validation: the cross-worker cases
the inline check cannot see (§5.1-5.2).

These drive RuntimeSystem.checkpoint directly with hand-built worker
states, byte by byte.
"""

import pytest

from repro.bench.pipeline import prepare
from repro.classify.heaps import HeapKind
from repro.interp.errors import Misspeculation
from repro.parallel.backend import DOALLExecutor
from repro.runtime.shadow import timestamp_for

SRC = """
int scratch[8];
int out[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 8; j++) { scratch[j] = i + j; }
        int acc = 0;
        for (int j = 0; j < 8; j++) { acc = acc + scratch[j]; }
        out[i] = acc;
    }
    printf("%d\\n", out[0]);
    return 0;
}
"""


@pytest.fixture
def runtime():
    prog = prepare(SRC, "phase2", args=(16,))
    executor = DOALLExecutor(prog.module, prog.plan, workers=2)
    rt = executor.runtime
    rt.begin_invocation(2)
    yield rt
    if rt.speculating:
        rt.end_invocation()


def _ts(i):
    return timestamp_for(i, 0)


class TestPhase2CrossWorker:
    def test_clean_epoch_commits(self, runtime):
        w0, w1 = runtime.workers
        w0.shadow.on_write(0, 4, _ts(0), 0)
        w1.shadow.on_write(4, 4, _ts(1), 1)
        record = runtime.checkpoint(0, 2)
        assert not record.speculative
        assert runtime.stats.checkpoints == 1

    def test_cross_worker_flow_detected(self, runtime):
        """Worker 1 wrote a byte this epoch; worker 0 read it live-in:
        without a read timestamp the order is unknowable — conservative
        misspeculation."""
        w0, w1 = runtime.workers
        w1.shadow.on_write(0, 4, _ts(1), 1)
        w0.shadow.on_read(0, 4, _ts(0), 0)  # live-in from w0's view
        with pytest.raises(Misspeculation, match="cross-worker"):
            runtime.checkpoint(0, 2)

    def test_committed_old_write_detected(self, runtime):
        """A byte committed by an earlier epoch must not be read as
        live-in in a later epoch (loop-carried flow across checkpoints)."""
        w0, w1 = runtime.workers
        w0.shadow.on_write(0, 4, _ts(0), 0)
        runtime.checkpoint(0, 2)  # commits: committed_meta[0..4) = 1

        # next epoch: w1 reads the byte as (apparently) live-in
        w1.shadow.on_read(0, 4, _ts(0), 2)
        with pytest.raises(Misspeculation, match="earlier checkpoint"):
            runtime.checkpoint(2, 4)

    def test_same_worker_reread_after_checkpoint_caught_inline(self, runtime):
        """The same-worker flavour is caught by phase 1 (old-write)."""
        w0, _ = runtime.workers
        w0.shadow.on_write(0, 4, _ts(0), 0)
        runtime.checkpoint(0, 2)
        with pytest.raises(Misspeculation, match="checkpoint"):
            w0.shadow.on_read(0, 4, _ts(0), 2)

    def test_merge_takes_latest_iteration(self, runtime):
        """Per byte, the checkpoint commits the value written by the
        latest iteration across all workers."""
        w0, w1 = runtime.workers
        base = runtime.private_base
        # Worker 0 writes iteration 0; worker 1 writes iteration 1.
        w0.space.write_int(base, 100, 4)
        w0.shadow.on_write(0, 4, _ts(0), 0)
        w1.space.write_int(base, 200, 4)
        w1.shadow.on_write(0, 4, _ts(1), 1)
        runtime.checkpoint(0, 2)
        assert runtime.main_space.read_int(base, 4, signed=True) == 200

    def test_recovery_writes_poison_later_livein_reads(self, runtime):
        runtime.squash_to_recovery(1)
        addr = runtime.private_base + 16
        runtime.note_recovery_write(addr, 4)
        runtime.resume_after_recovery(2)
        w0 = runtime.workers[0]
        w0.shadow.on_read(16, 4, _ts(0), 2)
        with pytest.raises(Misspeculation):
            runtime.checkpoint(2, 4)
