"""The end-to-end pipeline API and the loop tracker."""

import hashlib
import pickle

import pytest

from repro.bench import cache as profile_cache
from repro.bench.pipeline import prepare, prepare_module, run_sequential
from repro.frontend import compile_minic
from repro.profiling.serialize import (
    FORMAT_VERSION,
    PROFILER_VERSION,
    module_fingerprint,
)
from repro.transform import SelectionError
from repro.workloads import BY_NAME

SRC = """
int scratch[16];
int out[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 16; j++) { scratch[j] = i ^ j; }
        int acc = 0;
        for (int j = 0; j < 16; j++) { acc += scratch[j]; }
        out[i] = acc;
    }
    printf("%d %d\\n", out[0], out[5]);
    return 0;
}
"""


class TestPrepare:
    def test_train_ref_split(self):
        prog = prepare(SRC, "p", args=(8,), ref_args=(32,))
        assert prog.train_args == (8,)
        assert prog.ref_args == (32,)
        # Sequential baseline measured on ref input.
        seq_small = run_sequential(SRC, "p", args=(8,))
        assert prog.sequential.cycles > seq_small.cycles

    def test_execute_defaults_to_ref(self):
        prog = prepare(SRC, "p", args=(8,), ref_args=(32,))
        result = prog.execute(workers=4)
        assert result.output == prog.sequential.output

    def test_execute_override_args(self):
        prog = prepare(SRC, "p", args=(8,), ref_args=(32,))
        result = prog.execute(workers=4, args=(8,))
        small = run_sequential(SRC, "p", args=(8,))
        assert result.output == small.output

    def test_rejected_candidates_surface_reasons(self):
        bad = """
        int state;
        int out[64];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                out[i] = state;
                state = state + i;
                for (int j = 0; j < 20; j++) { out[i] = out[i] * 3 + j; }
            }
            printf("%d\\n", out[0]);
            return 0;
        }
        """
        with pytest.raises(SelectionError) as info:
            prepare(bad, "bad", args=(24,))
        assert info.value.reasons

    def test_speedup_helper(self):
        prog = prepare(SRC, "p", args=(48,))
        result = prog.execute(workers=8)
        assert prog.speedup(result) == pytest.approx(
            prog.sequential.cycles / result.total_wall_cycles)


class TestPrepareModule:
    """``prepare(source)`` is ``compile_minic`` + ``prepare_module``; a
    module that went through pickle (what ``repro serve`` keeps of a
    source it has compiled) prepares to the same program."""

    @pytest.fixture(autouse=True)
    def _scratch_cache(self, tmp_path, monkeypatch):
        self.cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(self.cache))

    @pytest.mark.parametrize("name,args", [
        ("enc_md5", (4, 48, 2)),
        ("swaptions", (4, 6, 3)),
        ("dijkstra", (8, 12, 7)),
    ])
    def test_pickled_module_prepares_to_the_same_program(self, name, args):
        source = BY_NAME[name].source
        direct = prepare(source, name, args=args, use_cache=False)
        snapshot = pickle.dumps(compile_minic(source, name))
        thawed = prepare_module(pickle.loads(snapshot), source, name,
                                args=args, use_cache=False)
        assert thawed.fingerprint == direct.fingerprint
        assert str(thawed.plan.ref) == str(direct.plan.ref)
        assert thawed.plan.global_placements == direct.plan.global_placements
        assert vars(thawed.plan.checks) == vars(direct.plan.checks)
        assert thawed.assignment.site_heaps == direct.assignment.site_heaps
        assert thawed.sequential == direct.sequential
        a, b = direct.execute(workers=2), thawed.execute(workers=2)
        assert b.output == a.output == direct.sequential.output
        assert b.total_wall_cycles == a.total_wall_cycles
        assert b.return_value == a.return_value

    def test_prepare_compiles_through_the_module_level_name(self,
                                                            monkeypatch):
        from repro.bench import pipeline

        compiled = []

        def counting(source, name):
            compiled.append(name)
            return compile_minic(source, name)

        monkeypatch.setattr(pipeline, "compile_minic", counting)
        prepare(SRC, "p", args=(8,), use_cache=False)
        assert compiled == ["p"]
        prepare_module(compile_minic(SRC, "p"), SRC, "p", args=(8,),
                       use_cache=False)
        assert compiled == ["p"]

    def test_fingerprint_is_computed_once_and_names_the_same_file(
            self, monkeypatch):
        module = compile_minic(SRC, "p")
        fingerprint = module_fingerprint(module)
        # The key as it was when cache_key() fingerprinted the module
        # itself: same digest, so same on-disk file names.
        h = hashlib.sha256()
        h.update(fingerprint.encode())
        h.update(b"|main|" + repr((8,)).encode() + b"|" + repr((16,)).encode())
        h.update(f"|p{PROFILER_VERSION}|f{FORMAT_VERSION}".encode())
        key = h.hexdigest()[:24]
        assert profile_cache.cache_key(fingerprint, "main", (8,), (16,)) == key

        calls = []
        real = profile_cache.module_fingerprint
        monkeypatch.setattr(profile_cache, "module_fingerprint",
                            lambda m: calls.append(m) or real(m))
        prog = prepare(SRC, "p", args=(8,), ref_args=(16,))
        assert len(calls) == 1 and prog.fingerprint == fingerprint
        assert [p.name for p in self.cache.iterdir()] == [
            f"profile-{key}.json"]
        # A caller that already holds the fingerprint passes it in.
        prepare_module(compile_minic(SRC, "p"), SRC, "p", args=(8,),
                       ref_args=(16,), fingerprint=fingerprint)
        assert len(calls) == 1


class TestBaselineFromTheTimeProfile:
    """When the evaluation input is the training input, the baseline is
    the time-profile run (its hook only observes): one guest run fewer,
    nothing else different."""

    @pytest.fixture(autouse=True)
    def _scratch_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("name,args,other", [
        ("dijkstra", (8, 12, 7), (10, 12, 7)),
        ("enc_md5", (4, 48, 2), (5, 48, 2)),
        ("blackscholes", (12, 10, 11), (16, 10, 11)),
    ])
    def test_one_run_fewer_and_the_same_program(self, name, args, other,
                                                monkeypatch):
        from repro.interp.interpreter import Interpreter
        from repro.profiling import profile_execution_time

        source = BY_NAME[name].source
        runs = []
        run = Interpreter.run
        monkeypatch.setattr(
            Interpreter, "run",
            lambda self, entry="main", args=(): runs.append(args)
            or run(self, entry, args))
        same = prepare(source, name, args=args)
        runs_same = len(runs)
        paired = prepare(source, name, args=args, ref_args=other)
        assert runs_same == len(runs) - runs_same - 1
        monkeypatch.setattr(Interpreter, "run", run)

        # The baseline is what a plain run gives, the report what the
        # profiler gives on its own, the plan what the paired inputs
        # (which keep both runs) lead to.
        assert same.sequential == run_sequential(source, name, args=args)
        assert same.hot_report == paired.hot_report == \
            profile_execution_time(compile_minic(source, name), args=args)
        assert str(same.plan.ref) == str(paired.plan.ref)
        assert same.plan.global_placements == paired.plan.global_placements
        assert vars(same.plan.checks) == vars(paired.plan.checks)
        assert same.assignment.site_heaps == paired.assignment.site_heaps
        entries = [profile_cache.load_entry(
            profile_cache.cache_key(prog.fingerprint, "main", args, ref),
            prog.fingerprint) for prog, ref in ((same, args),
                                                (paired, other))]
        assert entries[0]["hot_report"] == entries[1]["hot_report"]
        assert entries[0]["profiles"] == entries[1]["profiles"]
        assert entries[0]["sequential"] == {
            "cycles": same.sequential.cycles,
            "return_value": same.sequential.return_value,
            "output": same.sequential.output}
        # Naming the training input as the evaluation input is the same
        # property (and the same cache entry: no guest run at all).
        explicit = prepare(source, name, args=args, ref_args=args)
        assert explicit.sequential == same.sequential


class TestSequentialRunner:
    def test_deterministic(self):
        a = run_sequential(SRC, "p", args=(16,))
        b = run_sequential(SRC, "p", args=(16,))
        assert a.cycles == b.cycles
        assert a.output == b.output


class TestLoopTrackerEdgeCases:
    def test_loop_exited_by_return(self):
        """A return from inside a loop must unwind the tracker stack."""
        from repro.profiling import profile_execution_time
        from repro.frontend import compile_minic

        src = """
        int find(int needle) {
            for (int i = 0; i < 100; i++) {
                if (i == needle) { return i; }
            }
            return -1;
        }
        int main() {
            int acc = 0;
            for (int k = 0; k < 10; k++) { acc += find(k * 3); }
            return acc;
        }
        """
        mod = compile_minic(src)
        report = profile_execution_time(mod)
        recs = {r.ref.header: r for r in report.records}
        # find's loop entered 10 times despite always exiting via return.
        assert recs["for.cond"].invocations == 10

    def test_nested_invocation_counts(self):
        from repro.profiling import profile_execution_time
        from repro.frontend import compile_minic

        src = """
        int a[4];
        int main() {
            for (int i = 0; i < 6; i++) {
                for (int j = 0; j < 4; j++) { a[j] += i; }
            }
            return a[0];
        }
        """
        mod = compile_minic(src)
        report = profile_execution_time(mod)
        recs = {r.ref.header: r for r in report.records}
        assert recs["for.cond.1"].invocations == 6
        assert recs["for.cond.1"].iterations == 24
        assert recs["for.cond.1"].avg_trip_count == pytest.approx(4.0)
