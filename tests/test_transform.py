"""The Privateer transformation: allocation replacement, check insertion,
elision, control speculation, value prediction."""

import pytest

from repro.classify import HeapKind, classify
from repro.frontend import compile_minic
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.ir.instructions import Alloca, Call
from repro.profiling import profile_execution_time, profile_loop
from repro.transform import PrivateerTransform, SelectionError


def _transform(src, args, name="t"):
    mod = compile_minic(src, name)
    report = profile_execution_time(mod, args=args)
    ref = report.hottest(top_level_only=False)[0].ref
    profile = profile_loop(mod, ref, args=args)
    assignment = classify(profile)
    plan = PrivateerTransform(mod, ref, profile, assignment).run()
    return mod, plan


def _calls_to(mod, name):
    return [i for fn in mod.defined_functions() for i in fn.instructions()
            if isinstance(i, Call) and i.callee.name == name]


QUEUE_SRC = """
struct n { int v; struct n* next; };
struct n* head;
int out[128];

int main(int n) {
    for (int i = 0; i < n; i++) {
        struct n* c = (struct n*)malloc(sizeof(struct n));
        c->v = i * 3; c->next = head; head = c;
        int acc = 0;
        while (head != 0) {
            acc += head->v;
            struct n* d = head;
            head = head->next;
            free(d);
        }
        out[i] = acc;
    }
    int total = 0;
    for (int i = 0; i < n; i++) { total = total + out[i]; }
    printf("%d\\n", total);
    return total;
}
"""


class TestAllocationReplacement:
    def test_malloc_becomes_h_alloc(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert not _calls_to(mod, "malloc")
        h_allocs = _calls_to(mod, "h_alloc")
        assert h_allocs
        kinds = {int(c.operands[1].value) for c in h_allocs}
        assert int(HeapKind.SHORTLIVED) in kinds

    def test_free_becomes_h_dealloc(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert not _calls_to(mod, "free")
        assert _calls_to(mod, "h_dealloc")

    def test_globals_recorded_for_relocation(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert plan.global_placements["head"] is HeapKind.PRIVATE
        assert plan.global_placements["out"] is HeapKind.PRIVATE

    def test_classified_alloca_replaced(self):
        src = """
        int out[64];
        int work(int i) {
            int tmp[8];
            for (int j = 0; j < 8; j++) { tmp[j] = i + j; }
            return tmp[7];
        }
        int main(int n) {
            for (int i = 0; i < n; i++) { out[i] = work(i); }
            return 0;
        }
        """
        mod, plan = _transform(src, (24,))
        work = mod.function_named("work")
        assert not any(isinstance(i, Alloca) for i in work.instructions())
        # h_alloc at entry, h_dealloc before return
        assert any(c.callee.name == "h_alloc" for c in work.instructions()
                   if isinstance(c, Call))
        assert any(c.callee.name == "h_dealloc" for c in work.instructions()
                   if isinstance(c, Call))

    def test_transformed_module_verifies(self):
        mod, _ = _transform(QUEUE_SRC, (24,))
        verify_module(mod)

    def test_transformed_runs_sequentially_same_result(self):
        # Neutral intrinsics: the transformed module must still compute
        # the original answer when run without the runtime.
        mod, _ = _transform(QUEUE_SRC, (24,))
        plain = compile_minic(QUEUE_SRC)
        assert Interpreter(mod).run(args=(24,)) == \
            Interpreter(plain).run(args=(24,))


class TestChecks:
    def test_privacy_checks_inserted(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert plan.checks.private_read > 0
        assert plan.checks.private_write > 0
        assert _calls_to(mod, "private_read")
        assert _calls_to(mod, "private_write")

    def test_separation_checks_on_unprovable_pointers(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        # head->v etc. go through pointers loaded from memory.
        assert plan.checks.separation > 0

    def test_direct_global_accesses_elided(self):
        src = """
        int scratch[16];
        int out[64];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 16; j++) { scratch[j] = i + j; }
                out[i] = scratch[i % 16];
            }
            return 0;
        }
        """
        mod, plan = _transform(src, (24,))
        # Every access goes through a named global: all separation checks
        # are provable at compile time.
        assert plan.checks.separation == 0
        assert plan.checks.separation_elided > 0

    def test_redux_update_markers(self):
        src = """
        double total;
        double data[64];
        int main(int n) {
            for (int i = 0; i < 64; i++) { data[i] = i * 0.5; }
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 64; j++) { total += data[j]; }
            }
            return (int)total;
        }
        """
        mod, plan = _transform(src, (24,))
        assert plan.checks.redux_update == 1
        assert plan.redux_objects["global:total"].operator == "FADD"
        assert plan.redux_objects["global:total"].element_size == 8
        assert plan.redux_objects["global:total"].is_float


class TestSpeculationSupport:
    def test_value_prediction_checks_in_latch(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert plan.checks.predict_value >= 1
        latch = plan.loop.latches[0]
        assert any(isinstance(i, Call) and i.callee.name == "predict_value"
                   for i in latch.instructions)

    def test_control_speculation_on_cold_block(self):
        src = """
        int out[64];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                if (i > 1000000) { out[0] = 1; }  /* never on train */
                out[i] = i;
                for (int j = 0; j < 8; j++) { out[i] += j; }
            }
            return 0;
        }
        """
        mod, plan = _transform(src, (24,))
        assert plan.checks.control_misspec >= 1
        assert _calls_to(mod, "misspec")

    def test_io_deferral_flag(self):
        src = QUEUE_SRC.replace("out[i] = acc;",
                                'out[i] = acc; printf("%d\\n", acc);')
        mod, plan = _transform(src, (24,))
        assert plan.defer_io

    def test_no_io_deferral_when_prints_outside_loop(self):
        mod, plan = _transform(QUEUE_SRC, (24,))
        assert not plan.defer_io


class TestSelectionRejections:
    def _expect_rejection(self, src, args, match):
        mod = compile_minic(src)
        report = profile_execution_time(mod, args=args)
        ref = report.hottest(top_level_only=False)[0].ref
        profile = profile_loop(mod, ref, args=args)
        assignment = classify(profile)
        with pytest.raises(SelectionError, match=match):
            PrivateerTransform(mod, ref, profile, assignment).run()

    def test_unpredictable_flow_dep_rejected(self):
        self._expect_rejection("""
        int state;
        int out[128];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                out[i] = state;
                state = state + i;
                for (int j = 0; j < 30; j++) { out[i] += j; }
            }
            return 0;
        }
        """, (40,), "unrestricted")

    def test_scalar_carried_rejected(self):
        self._expect_rejection("""
        int out[128];
        int main(int n) {
            int prev = 0;
            for (int i = 0; i < n; i++) {
                out[i] = prev;
                prev = out[i] + i;
                for (int j = 0; j < 30; j++) { out[i] += 1; }
            }
            return prev;
        }
        """, (40,), "scalar|live-out")

    def test_side_exit_rejected(self):
        self._expect_rejection("""
        int out[128];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                out[i] = i;
                for (int j = 0; j < 30; j++) { out[i] += j; }
                if (out[i] > 100000) { break; }
            }
            return 0;
        }
        """, (40,), "exit")

    def test_rand_in_region_rejected(self):
        self._expect_rejection("""
        int out[128];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                out[i] = (int)rand_int() % 7;
                for (int j = 0; j < 30; j++) { out[i] += j; }
            }
            return 0;
        }
        """, (40,), "rand_int")

