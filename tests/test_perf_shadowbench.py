"""The shadow-validation and checkpoint-merge benchmark
(``python -m repro perf``, :mod:`repro.perf.shadowbench`).

Timings are not asserted here (wall-clock numbers belong to
``perfbench/``).  What is checked is that the synthetic workloads the
benchmark times are well formed, that the vectorized layers and the
per-byte oracle it races agree byte for byte on them, and that it
refuses to report a number when they do not.
"""

import dataclasses
import inspect

import pytest

from repro.perf import shadowbench
from repro.perf.shadowbench import (
    SHADOW_CONFIGS,
    _build_fragments,
    _drive_phase1,
    _timed_merge_ref,
    _timed_merge_vec,
    measure_shadow,
    run,
)
from repro.runtime.fragments import WRITE_VALUE
from repro.runtime.merge import find_phase2_violation, find_phase2_violation_ref
from repro.runtime.shadow import (
    LIVE_IN,
    OLD_WRITE,
    READ_LIVE_IN,
    TS_BASE,
    ReferenceShadowHeap,
    ShadowHeap,
)

#: A configuration small enough to measure in milliseconds.
TINY = dict(label="tiny", footprint=1024, op_size=16, iterations=4,
            checkpoint_every=2, workers=3, run_len=32, merge_footprint=4096,
            repeats=1)


def _template(run_len):
    return (bytes(range(256)) * (run_len // 256 + 1))[:run_len]


def _read_zone(footprint):
    return footprint - footprint // 8


class TestConfigs:
    def test_default_then_stress(self):
        assert [c["label"] for c in SHADOW_CONFIGS] == ["default", "stress"]

    @pytest.mark.parametrize("config", SHADOW_CONFIGS,
                             ids=lambda c: c["label"])
    def test_config_is_measurable(self, config):
        assert set(config) == set(inspect.signature(measure_shadow).parameters)
        # Phase 1 has both a written scratch region and a live-in region.
        assert config["footprint"] // 4 >= config["op_size"]
        # Every merge worker writes at least one run and reads live-ins.
        mf = config["merge_footprint"]
        assert _read_zone(mf) // config["run_len"] >= config["workers"]
        assert (mf - _read_zone(mf)) // config["workers"] > 0


class TestPhase1:
    @pytest.mark.parametrize("footprint, op_size, iterations, every", [
        (64, 1, 3, 1),
        (256, 16, 5, 2),
        (333, 5, 7, 7),
        (1000, 7, 6, 3),
        (4096, 256, 4, 4),
    ])
    def test_vectorized_metadata_matches_oracle(self, footprint, op_size,
                                                iterations, every):
        _, touched_vec, meta_vec = _drive_phase1(
            ShadowHeap, footprint, op_size, iterations, every)
        _, touched_ref, meta_ref = _drive_phase1(
            ReferenceShadowHeap, footprint, op_size, iterations, every)
        assert meta_vec == meta_ref
        assert touched_vec == touched_ref

    def test_bytes_validated_counts_every_access(self):
        # 768-byte scratch region: 48 writes + 48 reads of 16 bytes;
        # 256-byte live-in region: 16 reads of 16 bytes; per iteration.
        _, touched, _ = _drive_phase1(ShadowHeap, 1024, 16, 3, 2)
        assert touched == 3 * (48 + 48 + 16) * 16

    @pytest.mark.parametrize("heap_cls", [ShadowHeap, ReferenceShadowHeap],
                             ids=["vectorized", "oracle"])
    @pytest.mark.parametrize("iterations, every, scratch, live", [
        (4, 2, OLD_WRITE, LIVE_IN),          # ends on a checkpoint reset
        (5, 3, TS_BASE + 1, READ_LIVE_IN),   # ends mid-epoch, rel iter 1
    ], ids=["at-checkpoint", "mid-epoch"])
    def test_final_metadata(self, heap_cls, iterations, every, scratch, live):
        _, _, meta = _drive_phase1(heap_cls, 1024, 16, iterations, every)
        assert set(meta[:768]) == {scratch}
        assert set(meta[768:]) == {live}


class TestMergeFragments:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_fragments_validate_cleanly(self, workers):
        frags = _build_fragments(workers, 8192, 64, 4)
        committed = bytearray(8192)
        assert [f.wid for f in frags] == list(range(workers))
        assert find_phase2_violation(frags, committed) is None
        assert find_phase2_violation_ref(frags, committed) is None

    def test_worker_runs_interleave_and_reads_stay_disjoint(self):
        workers, footprint, run_len = 4, 1024, 16
        frags = _build_fragments(workers, footprint, run_len, 4)
        owner = {}
        for frag in frags:
            for start, end, rel in frag.write_runs:
                assert end - start == run_len
                assert rel == (start // run_len) % 4
                owner[start // run_len] = frag.wid
        blocks = _read_zone(footprint) // run_len
        assert owner == {k: k % workers for k in range(blocks)}
        reads = sorted(run for f in frags for run in f.read_live_in_runs)
        assert reads[0][0] >= _read_zone(footprint)
        assert reads[-1][1] <= footprint
        assert all(a[1] <= b[0] for a, b in zip(reads, reads[1:]))

    def test_every_write_is_a_value_write(self):
        for frag in _build_fragments(3, 4096, 32, 4):
            total = sum(end - start for start, end, _ in frag.write_runs)
            assert frag.write_kinds == bytes((WRITE_VALUE,)) * total
            assert frag.write_values == _template(32) * (total // 32)

    @pytest.mark.parametrize("workers, run_len, footprint", [
        (1, 32, 2048),
        (2, 7, 1000),
        (3, 64, 4096),
        (8, 256, 16384),
    ])
    def test_vectorized_commit_matches_oracle(self, workers, run_len,
                                              footprint):
        frags = _build_fragments(workers, footprint, run_len, 4)
        committed = bytearray(footprint)
        scratch_vec = bytearray(footprint)
        scratch_ref = bytearray(footprint)
        _timed_merge_vec(frags, committed, scratch_vec)
        _timed_merge_ref(frags, committed, scratch_ref)
        blocks = _read_zone(footprint) // run_len
        expected = _template(run_len) * blocks
        expected += bytes(footprint - len(expected))
        assert bytes(scratch_vec) == expected
        assert bytes(scratch_ref) == expected

    @pytest.mark.parametrize("timed_merge", [_timed_merge_vec,
                                             _timed_merge_ref],
                             ids=["vectorized", "oracle"])
    def test_committed_conflict_is_refused(self, timed_merge):
        # Every live-in read hits a byte defined before the epoch.
        frags = _build_fragments(2, 2048, 32, 4)
        with pytest.raises(AssertionError, match="validate cleanly"):
            timed_merge(frags, bytearray(b"\x01" * 2048), bytearray(2048))


class TestMeasureShadow:
    def test_reports_both_layers(self):
        res = measure_shadow(**TINY)
        assert res["label"] == "tiny"
        p1, mg = res["phase1"], res["merge"]
        assert p1["bytes_validated"] == 4 * (48 + 48 + 16) * 16
        assert mg["written_bytes"] == _read_zone(4096)
        for section in (p1, mg):
            assert section["ref_mbps"] > 0
            assert section["vec_mbps"] > 0
            assert section["speedup"] > 0

    def test_phase1_divergence_raises(self, monkeypatch):
        class SkewedOracle(ReferenceShadowHeap):
            __slots__ = ()

            def reset_after_checkpoint(self):
                super().reset_after_checkpoint()
                self.meta[0] ^= 0xFF

        # TINY ends on a checkpoint, so the skew survives into the result.
        monkeypatch.setattr(shadowbench, "ReferenceShadowHeap", SkewedOracle)
        with pytest.raises(AssertionError, match="phase-1 metadata diverged"):
            measure_shadow(**TINY)

    def test_merge_divergence_raises(self, monkeypatch):
        real = shadowbench.merge_fragments_ref

        def skewed(frags):
            out = real(frags)
            return dataclasses.replace(
                out, values=bytes((out.values[0] ^ 0xFF,)) + out.values[1:])

        monkeypatch.setattr(shadowbench, "merge_fragments_ref", skewed)
        with pytest.raises(AssertionError, match="committed bytes diverged"):
            measure_shadow(**TINY)


class TestRun:
    def test_gate_met(self, monkeypatch, capsys):
        monkeypatch.setattr(shadowbench, "SHADOW_CONFIGS",
                            (TINY, dict(TINY, label="tiny2")))
        monkeypatch.setattr(shadowbench, "SHADOW_MERGE_GATE", 0.0)
        assert run() == 0
        out = capsys.readouterr().out
        rows = [line.split()[1] for line in out.splitlines()
                if line.startswith("shadow ")]
        assert rows == ["tiny", "tiny2"]
        assert "FAIL" not in out
        assert "gate ok" in out

    def test_gate_missed(self, monkeypatch, capsys):
        monkeypatch.setattr(shadowbench, "SHADOW_CONFIGS", (TINY,))
        monkeypatch.setattr(shadowbench, "SHADOW_MERGE_GATE", 1e12)
        assert run() == 1
        out = capsys.readouterr().out
        assert "FAIL: shadow tiny: checkpoint-merge speedup" in out
        assert "gate ok" not in out
