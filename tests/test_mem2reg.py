"""mem2reg: scalar promotion, phi placement, dead-phi pruning."""

import pytest

from repro.analysis import promotable_allocas, promote_module
from repro.analysis.loops import LoopInfo
from repro.analysis.mem2reg import promote_memory_to_registers
from repro.frontend import compile_minic
from repro.ir import (
    CmpPred,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    Phi,
    format_function,
    verify_module,
)
from repro.ir.instructions import Alloca, Load, Store
from repro.ir.types import I64
from repro.interp import Interpreter


def compile_raw(src):
    return compile_minic(src, promote=False)


def alloca_count(fn):
    return sum(1 for i in fn.instructions() if isinstance(i, Alloca))


def phi_count(fn):
    return sum(1 for i in fn.instructions() if isinstance(i, Phi))


class TestPromotability:
    def test_scalar_local_promotable(self):
        mod = compile_raw("int main() { int x = 1; return x; }")
        assert len(promotable_allocas(mod.function_named("main"))) == 1

    def test_address_taken_not_promotable(self):
        mod = compile_raw(
            "int main() { int x = 1; int* p = &x; *p = 2; return x; }")
        fn = mod.function_named("main")
        allocas = promotable_allocas(fn)
        names = {a.name for a in allocas}
        assert "x" not in names  # its address escapes into p

    def test_array_not_promotable(self):
        mod = compile_raw("int main() { int a[4]; a[0] = 1; return a[0]; }")
        fn = mod.function_named("main")
        assert all(a.name != "a" for a in promotable_allocas(fn))


class TestCorrectness:
    @pytest.mark.parametrize("src,expect", [
        ("int main() { int x = 1; x = x + 2; return x; }", 3),
        ("int main(int n) { int a = 0; for (int i = 0; i < n; i++)"
         " { a += i; } return a; }", 45),
        ("int main(int n) { int r; if (n > 5) { r = 1; } else { r = 2; }"
         " return r; }", 1),
        ("""int main(int n) {
            int a = 0;
            for (int i = 0; i < n; i++) {
                int b = i;
                if (i % 2) { b = b * 10; }
                a += b;
            }
            return a;
        }""", 0 + 10 + 2 + 30 + 4 + 50 + 6 + 70 + 8 + 90),
    ])
    def test_same_result_promoted_and_not(self, src, expect):
        for promote in (False, True):
            mod = compile_minic(src, promote=promote)
            assert Interpreter(mod).run(args=(10,)) == expect

    def test_promoted_module_verifies(self):
        mod = compile_raw("""
        int main(int n) {
            int a = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < i; j++) { a += j; }
            }
            return a;
        }
        """)
        promote_module(mod)
        verify_module(mod)

    def test_loads_stores_eliminated(self):
        mod = compile_raw(
            "int main() { int x = 1; int y = x + 1; return y; }")
        fn = mod.function_named("main")
        before = alloca_count(fn)
        promote_module(mod)
        assert alloca_count(fn) < before
        assert not any(isinstance(i, (Load, Store)) for i in fn.instructions())


class TestPhiPlacement:
    def test_loop_counter_gets_header_phi(self):
        mod = compile_raw(
            "int main(int n) { int a = 0; for (int i = 0; i < n; i++)"
            " { a += i; } return a; }")
        fn = mod.function_named("main")
        promote_module(mod)
        header = fn.block_named("for.cond")
        phis = [i for i in header.instructions if isinstance(i, Phi)]
        assert len(phis) == 2  # i and a

    def test_if_merge_gets_phi(self):
        mod = compile_raw(
            "int main(int n) { int r = 0; if (n) { r = 1; } return r; }")
        fn = mod.function_named("main")
        promote_module(mod)
        merge = fn.block_named("if.end")
        assert any(isinstance(i, Phi) for i in merge.instructions)

    def test_dead_inner_counter_pruned_at_outer_header(self):
        # The inner counter j is reinitialized every outer iteration, so
        # the outer header must NOT carry a phi for it (that would look
        # like loop-carried scalar state and block DOALL).
        mod = compile_raw("""
        int main(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 4; j++) { acc += j; }
            }
            return acc;
        }
        """)
        fn = mod.function_named("main")
        promote_module(mod)
        li = LoopInfo(fn)
        outer = next(l for l in li.loops if l.depth == 1)
        header_phis = [i for i in outer.header.instructions if isinstance(i, Phi)]
        # exactly i and acc — no j phi
        assert len(header_phis) == 2

    def test_scoped_body_locals_leave_header_clean(self):
        mod = compile_raw("""
        int out[16];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                int t = i * 2;
                out[i] = t + 1;
            }
            return out[0];
        }
        """)
        fn = mod.function_named("main")
        promote_module(mod)
        li = LoopInfo(fn)
        loop = li.loops[0]
        header_phis = [i for i in loop.header.instructions if isinstance(i, Phi)]
        assert len(header_phis) == 1  # only the IV

    def test_genuine_loop_carried_scalar_keeps_phi(self):
        mod = compile_raw("""
        int main(int n) {
            int prev = 0;
            int acc = 0;
            for (int i = 0; i < n; i++) {
                acc += prev;   /* reads last iteration's value */
                prev = i;
            }
            return acc;
        }
        """)
        fn = mod.function_named("main")
        promote_module(mod)
        header = fn.block_named("for.cond")
        phis = [i for i in header.instructions if isinstance(i, Phi)]
        assert len(phis) == 3  # i, acc, prev all live across iterations
        assert Interpreter(mod).run(args=(5,)) == 0 + 0 + 1 + 2 + 3


class TestReplacementChains:
    """Loads deleted in one block but used in a later one are rewritten
    after renaming; their replacements may themselves be deleted loads.
    The IR is pinned to what the rename-then-rewrite construction printed
    when each replacement was applied to every instruction in turn."""

    def test_load_stored_into_a_second_slot_and_read_later(self):
        # %la (a load of %a in entry) is stored into %b in mid, and %b is
        # read in then: %lb is replaced by %la, which is replaced by %n.
        mod = Module("chain")
        fn = Function("f", FunctionType(I64, (I64,)), ["n"])
        mod.add_function(fn)
        entry, mid, then, join = (fn.add_block(name)
                                  for name in ("entry", "mid", "then", "join"))
        b = IRBuilder(mod, entry)
        slot_a = b.alloca(I64, name="a")
        slot_b = b.alloca(I64, name="b")
        b.store(fn.args[0], slot_a)
        la = b.load(slot_a, I64, "la")
        b.br(mid)
        b.position_at_end(mid)
        b.store(la, slot_b)
        b.condbr(b.icmp(CmpPred.GT, fn.args[0], 0, "cnd"), then, join)
        b.position_at_end(then)
        b.store(b.add(b.load(slot_b, I64, "lb"), 1, "t"), slot_b)
        b.br(join)
        b.position_at_end(join)
        b.ret(b.load(slot_b, I64, "r"))
        assert promote_memory_to_registers(fn) == 2
        verify_module(mod)
        assert format_function(fn) == CHAIN_GOLDEN

    def test_load_used_after_the_blocks_of_a_conditional(self):
        # ``b += c ? 1 : 2`` loads b in entry and adds in sel.end.
        mod = compile_minic(
            "int main(int c) { int b = 2; b += c ? 1 : 2; return b; }",
            "compound")
        assert format_function(mod.function_named("main")) == COMPOUND_GOLDEN


CHAIN_GOLDEN = """\
define i64 @f(i64 %n) {
entry:
  br label %mid

mid:
  %cnd = icmp gt i64 %n, 0
  condbr %cnd, label %then, label %join

then:
  %t = add i64 %n, 1
  br label %join

join:
  %b.phi = phi i64 [%n, %mid], [%t, %then]
  ret %b.phi
}"""

COMPOUND_GOLDEN = """\
define i32 @main(i32 %c) {
entry:
  br label %start

start:
  %4 = icmp ne i32 %c, 0
  condbr %4, label %sel.then, label %sel.else

sel.then:
  br label %sel.end

sel.else:
  br label %sel.end

sel.end:
  %sel1.phi = phi i32 [1, %sel.then], [2, %sel.else]
  %9 = add i32 2, %sel1.phi
  ret %9
}"""
