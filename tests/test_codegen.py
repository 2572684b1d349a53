"""The generated-source tier (repro.interp.codegen) against the step
interpreter, op by op and roll-back path by roll-back path, plus the
identity rules of its code memo and the pre-fork warm of the executors.

``test_fastpath_differential.py`` holds whole programs and pipelines to
parity; this file goes below that: every arithmetic, compare and cast
kernel over every type with hostile operands, and every way a segment
can be left early, each compared on ``frame.index``, ``cycles``,
``steps``, registers and hook-event order.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import prepared_counter_program
from repro.frontend import compile_minic
from repro.interp import codegen
from repro.interp import interpreter as interpreter_module
from repro.interp.compile import function_code
from repro.interp.errors import (
    BlockBreakpoint,
    GuestFault,
    GuestTimeout,
    Misspeculation,
)
from repro.interp.interpreter import Hook, Interpreter
from repro.interp.memory import (
    HEAP_BASE,
    STACK_BASE,
    AddressSpace,
    MemoryObject,
)
from repro.ir import Function, FunctionType, IRBuilder, Module
from repro.ir.instructions import (
    BinOp,
    BinOpKind,
    Cast,
    CastKind,
    CmpPred,
    FCmp,
    ICmp,
    PtrAdd,
    Select,
)
from repro.ir.types import (
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    PointerType,
)
from repro.ir.values import ConstFloat, ConstInt, GlobalVariable
from repro.parallel.backend import make_executor

INT_TYPES = [I8, I16, I32, I64, U8, U16, U32, U64]
PTR = PointerType()
INT_KINDS = [k for k in BinOpKind if not k.is_float]
FLOAT_KINDS = [k for k in BinOpKind if k.is_float]


# ---------------------------------------------------------------------------
# Observation: everything the two paths must agree on
# ---------------------------------------------------------------------------


class Recorder(Hook):
    """Logs every hook event in order.  Cycle and step totals are part
    of the record only where the contract makes them exact: at branches
    and returns (segment ends)."""

    __slots__ = ("events", "raise_on_load")

    def __init__(self, raise_on_load=0):
        self.events = []
        self.raise_on_load = raise_on_load

    def on_alloc(self, interp, obj, inst):
        self.events.append(("alloc", inst.uid, obj.base, obj.size))

    def on_free(self, interp, obj, inst):
        self.events.append(("free", inst.uid, obj.base))

    def on_load(self, interp, inst, addr, size):
        self.events.append(("load", inst.uid, addr, size))
        loads = sum(1 for e in self.events if e[0] == "load")
        if loads == self.raise_on_load:
            raise RuntimeError("hook refused the load")

    def on_store(self, interp, inst, addr, size):
        self.events.append(("store", inst.uid, addr, size))

    def on_branch(self, interp, inst, target):
        self.events.append(("branch", inst.uid, target.name,
                            interp.cycles, interp.steps))

    def on_call(self, interp, inst, callee):
        self.events.append(("call", inst.uid, callee.name))

    def on_return(self, interp, fn):
        self.events.append(("return", fn.name, interp.cycles, interp.steps))


def _regs(frame):
    return {v.uid: repr(x) for v, x in frame.regs.items()}


def _state(interp):
    """The observable machine state after a run stopped."""
    frames = [(f.function.name, f.block.name, f.index, _regs(f))
              for f in interp.frames]
    return (interp.cycles, interp.steps, frames, list(interp.call_context),
            "".join(interp.output))


def observe(module, args, compiled, breakpoints=(), hook=None,
            max_steps=10_000_000, intrinsics=None, presteps=0):
    """Run ``main`` on one path; returns (outcome, machine state, hook
    events).  Breakpoints are resumed, each leaving a state snapshot."""
    interp = Interpreter(module, compiled=compiled, max_steps=max_steps)
    interp.block_breakpoints.update(breakpoints)
    interp.intrinsics.update(intrinsics or {})
    if hook is not None:
        interp.add_hook(hook)
    interp.push_function(module.function_named("main"), args)
    for _ in range(presteps):
        interp.step()
    stops = []
    try:
        while interp.frames:
            try:
                outcome = ("returned", repr(interp.run_until_event()))
            except BlockBreakpoint as bp:
                stops.append((bp.target.name, bp.prev.name, _state(interp)))
                interp.resume_at(bp.frame, bp.target, bp.prev)
    except Exception as exc:  # host errors must match too
        outcome = (type(exc).__name__, str(exc))
    return (outcome, stops, _state(interp),
            hook.events if hook is not None else None)


def assert_paths_agree(module, args=(), **kwargs):
    hooks = kwargs.pop("hooks", None)
    results = []
    for compiled in (False, True):
        hook = hooks() if hooks else None
        results.append(observe(module, args, compiled, hook=hook, **kwargs))
    assert results[0] == results[1]
    return results[1]


# ---------------------------------------------------------------------------
# Random straight-line blocks
# ---------------------------------------------------------------------------

#: Every op the property draws from: (class, kind-or-pred, type(s)).
OPS = (
    [("binop", k, t) for k in INT_KINDS for t in INT_TYPES]
    + [("binop", k, F64) for k in FLOAT_KINDS]
    + [("icmp", p, t) for p in CmpPred for t in INT_TYPES + [PTR, F64]]
    + [("fcmp", p, t) for p in CmpPred for t in (F64, I32)]
    + [("cast", k, (s, d)) for k in (CastKind.TRUNC, CastKind.ZEXT,
                                     CastKind.SEXT)
       for s in INT_TYPES + [F64] for d in INT_TYPES]
    + [("cast", CastKind.BITCAST, sd) for sd in (
        (F64, I64), (F64, U64), (I64, F64), (U64, F64), (I32, I32),
        (PTR, PTR), (F64, F64))]
    + [("cast", CastKind.PTRTOINT, (PTR, d)) for d in INT_TYPES]
    + [("cast", CastKind.INTTOPTR, (s, PTR)) for s in INT_TYPES]
    + [("cast", k, (s, F64)) for k in (CastKind.SITOFP, CastKind.UITOFP)
       for s in INT_TYPES + [F64]]
    + [("cast", k, (s, d)) for k in (CastKind.FPTOSI, CastKind.FPTOUI)
       for s in (F64, I32) for d in INT_TYPES]
    + [("cast", k, (F64, d)) for k in (CastKind.FPEXT, CastKind.FPTRUNC)
       for d in (F64, F32)]
    + [("select", None, t) for t in INT_TYPES + [F64, PTR]]
    + [("ptradd", None, t) for t in INT_TYPES]
)

EDGE_INTS = [0, 1, -1, 2, 7, 8, 15, 16, 31, 32, 33, 63, 64, 65, 127, 128,
             255, 256, -128, -129, 2**31 - 1, 2**31, -2**31, 2**32,
             2**63 - 1, 2**63, -2**63, 2**64 - 1, 2**64]
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.5, 0.5, 2.0**31, 2.0**63, -2.0**63,
               2.0**64, 1e308, -1e308, 5e-324, math.inf, -math.inf,
               math.nan]

ints = st.one_of(st.sampled_from(EDGE_INTS),
                 st.integers(-2**65, 2**65))
floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=True, allow_infinity=True))
op_specs = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 1 << 16),
              st.integers(0, 1 << 16), st.integers(0, 1 << 16),
              ints, floats),
    min_size=1, max_size=24)


def build_block(specs):
    """``main(i8, …, u64, f64)``: one entry block of the drawn ops, then
    a branch to ``exit`` (where the observer breaks).  Operands come
    from the raw formal of a type (uncoerced, possibly out of range),
    from earlier results of that type, or from constants."""
    module = Module("block")
    types = INT_TYPES + [F64]
    fn = Function("main", FunctionType(I64, tuple(types)),
                  [f"a{i}" for i in range(len(types))])
    module.add_function(fn)
    gv = module.add_global(GlobalVariable("G", I64))
    entry, exit_ = fn.add_block("entry"), fn.add_block("exit")
    pool = {t: [a] for t, a in zip(types, fn.args)}
    # One instruction-produced value per type (Python type fixed by the
    # producer), and a pointer.
    for t in INT_TYPES:
        pool[t].append(entry.append(
            BinOp(BinOpKind.ADD, pool[t][0], ConstInt(t, 0))))
    pool[F64].append(entry.append(
        BinOp(BinOpKind.FADD, pool[F64][0], ConstFloat(F64, 0.0))))
    pool[PTR] = [entry.append(PtrAdd(gv, ConstInt(I64, 8)))]
    pool[F32] = []

    def pick(t, n, iv, fv):
        choices = list(pool[t])
        if isinstance(t, PointerType):
            return choices[n % len(choices)]
        const = ConstFloat(t, fv) if t in (F64, F32) else ConstInt(t, iv)
        choices.append(const)
        return choices[n % len(choices)]

    for (cls, kind, t), n0, n1, n2, iv, fv in specs:
        if cls == "binop":
            inst = BinOp(kind, pick(t, n0, iv, fv), pick(t, n1, iv + 1, fv))
        elif cls == "icmp":
            inst = ICmp(kind, pick(t, n0, iv, fv), pick(t, n1, iv + 1, fv))
        elif cls == "fcmp":
            inst = FCmp(kind, pick(t, n0, iv, fv), pick(t, n1, iv, -fv))
        elif cls == "cast":
            src, dst = t
            inst = Cast(kind, pick(src, n0, iv, fv), dst)
            t = dst
        elif cls == "select":
            cond = pick(INT_TYPES[n2 % len(INT_TYPES)], n2, iv, fv)
            inst = Select(cond, pick(t, n0, iv, fv), pick(t, n1, iv + 1, fv))
        else:
            inst = PtrAdd(pool[PTR][n0 % len(pool[PTR])],
                          pick(t, n1, iv, fv))
            t = PTR
        entry.append(inst)
        result_type = inst.type if cls in ("icmp", "fcmp") else t
        pool.setdefault(result_type, []).append(inst)
    IRBuilder(module, entry).br(exit_)
    IRBuilder(module, exit_).ret(0)
    return module, exit_


class TestStraightLineBlocks:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(specs=op_specs,
           int_args=st.lists(ints, min_size=8, max_size=8),
           float_arg=floats)
    def test_values_cycles_steps_match_step_path(self, specs, int_args,
                                                 float_arg):
        module, exit_ = build_block(specs)
        assert_paths_agree(module, tuple(int_args) + (float_arg,),
                           breakpoints=[exit_])

    @pytest.mark.parametrize("op", OPS, ids=lambda op: "-".join(
        str(getattr(p, "value", p)) for p in op).replace(" ", ""))
    def test_every_kernel_on_edge_operands(self, op):
        """Each op once per pairing of hostile operands, with the second
        operand as formal, as result and as constant: division and
        remainder by zero, shifts >= width, NaN/inf conversions."""
        edge = list(zip(EDGE_INTS, EDGE_FLOATS * 2))
        specs = [(op, n0, n1, 0, iv, fv)
                 for n0 in (0, 1) for n1 in (0, 1, 2)
                 for iv, fv in edge[:12]]
        for k, (iv, fv) in enumerate(edge):
            module, exit_ = build_block(specs[k % 6::6] + [
                (op, 2, 2, 1, iv, fv), (op, 1, 2, 2, iv, fv)])
            args = tuple(EDGE_INTS[(k + j) % len(EDGE_INTS)]
                         for j in range(8)) + (fv,)
            assert_paths_agree(module, args, breakpoints=[exit_])


# ---------------------------------------------------------------------------
# Roll-back paths
# ---------------------------------------------------------------------------

FAULT_SRC = """
int data[8];
int main(int n, int d) {
    int a = n * 3;
    data[1] = a;
    int b = data[1] + 4;
    int c = b / d;
    data[2] = c;
    return data[2] + a;
}
"""

CALL_SRC = """
int data[4];
int twice(int x) { data[0] = x; return x * 2; }
int main(int n) {
    int a = n + 1;
    int b = twice(a);
    int c = b * 3 + twice(b);
    data[1] = c;
    return c + data[0];
}
"""

SWAP_SRC = """
int main(int n) {
    int a = 1;
    int b = 2;
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int t = a;
        a = b;
        b = t;
        acc = acc + a * 10 + b;
    }
    return acc * 100 + a * 10 + b;
}
"""


class TestRollback:
    def test_guest_fault_at_kth_op_of_a_segment(self):
        module = compile_minic(FAULT_SRC, "fault")
        (kind, message), _, state, events = assert_paths_agree(
            module, (5, 0), hooks=Recorder)
        assert kind == GuestFault.__name__ and "division by zero" in message
        # Parked on the division, mid-block, with the stores before it
        # visible and nothing after it charged.
        (_, _, index, _), = state[2]
        assert index > 0
        assert [e[0] for e in events].count("store") == 1

    def test_wild_pointer_load(self):
        src = "int main(int n) { int *p = 0; int a = n + 1; return *p + a; }"
        (kind, _), _, _, _ = assert_paths_agree(
            compile_minic(src, "wild"), (3,), hooks=Recorder)
        assert kind == "GuestFault"

    def test_intrinsic_raising_misspeculation_mid_segment(self):
        module = Module("m")
        fn = Function("main", FunctionType(I64, (I64,)), ["n"])
        module.add_function(fn)
        b = IRBuilder(module, fn.add_block("entry"))
        x = b.mul(fn.args[0], 3)
        b.call_intrinsic("check_heap", [x])
        y = b.add(x, 1)
        b.call_intrinsic("misspec", [y])
        b.ret(b.add(y, 1))

        def misspec(interp, inst, args):
            raise Misspeculation("control", f"saw {args[0]}", 4)

        (kind, message), _, state, _ = assert_paths_agree(
            module, (7,), hooks=Recorder, intrinsics={"misspec": misspec})
        assert kind == "Misspeculation" and "saw 22" in message
        (_, _, index, _), = state[2]
        assert index == 3

    @pytest.mark.parametrize("nth", [1, 2])
    def test_hook_raising_from_on_load(self, nth):
        module = compile_minic(FAULT_SRC, "hookfault")
        (kind, message), _, _, events = assert_paths_agree(
            module, (5, 2), hooks=lambda: Recorder(raise_on_load=nth))
        assert (kind, message) == ("RuntimeError", "hook refused the load")
        assert [e[0] for e in events].count("load") == nth

    def test_defined_call_mid_block_resumes_at_next_segment(self):
        module = compile_minic(CALL_SRC, "calls")
        main = module.function_named("main")
        entries = [sorted(segs) for segs in function_code(main).segs.values()]
        assert any(len(e) == 3 for e in entries)  # cut after both calls
        (kind, value), _, _, events = assert_paths_agree(
            module, (4,), hooks=Recorder)
        assert (kind, value) == ("returned", "60")
        assert [e[0] for e in events].count("return") == 3

    def test_fault_inside_callee_leaves_both_frames_parked(self):
        src = """
        int inv(int d) { int a = d + 0; return 100 / a; }
        int main(int n) { int x = n * 2; int y = inv(n) + x; return y; }
        """
        (kind, _), _, state, _ = assert_paths_agree(
            compile_minic(src, "deep"), (0,), hooks=Recorder)
        assert kind == "GuestFault"
        assert [f[0] for f in state[2]] == ["main", "inv"]

    def test_breakpoint_on_back_edge_with_multi_phi_swap(self):
        module = compile_minic(SWAP_SRC, "swap")
        main = module.function_named("main")
        header = main.block_named("for.cond")
        outcome, stops, _, _ = assert_paths_agree(
            module, (5,), breakpoints=[header], hooks=Recorder)
        assert outcome == ("returned", "8721")  # five swaps: a, b = 2, 1
        assert len(stops) == 6  # entry edge + five back edges
        assert {prev for _, prev, _ in stops} >= {"for.inc"}

    def test_guest_timeout_at_every_budget(self):
        module = compile_minic(CALL_SRC, "budget")
        _, _, (_, total, *_), _ = observe(module, (4,), compiled=False)
        for budget in range(1, total + 1):
            (kind, _), _, _, _ = assert_paths_agree(
                module, (4,), max_steps=budget, hooks=Recorder)
            assert kind == (GuestTimeout.__name__ if budget < total
                            else "returned")

    def test_frame_parked_by_step_at_non_entry_index(self):
        module = compile_minic(CALL_SRC, "parked")
        _, _, (_, total, *_), _ = observe(module, (4,), compiled=False)
        for presteps in range(total):
            assert_paths_agree(module, (4,), presteps=presteps,
                               hooks=Recorder)

    def test_undefined_value_fault(self):
        module = Module("u")
        fn = Function("main", FunctionType(I64, (I64, I64)), ["a", "b"])
        module.add_function(fn)
        b = IRBuilder(module, fn.add_block("entry"))
        x = b.add(fn.args[0], 1)
        b.ret(b.add(x, fn.args[1]))
        (kind, message), _, _, _ = assert_paths_agree(module, (1,))
        assert kind == "GuestFault" and "undefined value %b" in message


# ---------------------------------------------------------------------------
# Code identity
# ---------------------------------------------------------------------------

IDENT_SRC = """
double scale(double x) { return x * 2.0; }
int main(int n) {
    int acc = 7;
    for (int i = 0; i < n; i++) { acc = acc + i * 3; }
    return acc + (int)scale(1.5);
}
"""


def _codes(fn):
    return [seg.__code__ for segs in function_code(fn).segs.values()
            for _, seg in sorted(segs.items())]


def _digest(module, name="main"):
    fn = module.function_named(name)
    return codegen.content_key(fn, codegen.build_regmap(fn))[0]


class TestCodeIdentity:
    def test_fresh_modules_of_one_source_share_code_objects(self):
        first = compile_minic(IDENT_SRC, "ident")
        second = compile_minic(IDENT_SRC, "ident")
        before = _codes(first.function_named("main"))
        generated = codegen.generations
        after = _codes(second.function_named("main"))
        assert codegen.generations == generated
        assert all(a is b for a, b in zip(before, after)) and before
        # ... bound to their own IR objects.
        assert Interpreter(second).run("main", (4,)) == \
            Interpreter(first, compiled=False).run("main", (4,))
        seg = function_code(second.function_named("main")).segs[
            second.function_named("main").entry][0]
        bound = {c.cell_contents for c in seg.__closure__
                 if not callable(c.cell_contents)}
        assert second.function_named("main").entry in bound
        assert first.function_named("main").entry not in bound

    @pytest.mark.parametrize("old,new", [
        ("i * 3", "i * 4"),                      # one literal
        ("int acc = 7", "long acc = 7"),         # one type
        ("(int)scale(1.5)", "(int)sqrt(1.5)"),   # one callee
        ("x * 2.0", "x * 2.5"),                  # a float literal
    ], ids=["literal", "type", "callee", "float-literal"])
    def test_sources_differing_in_one_token_do_not_share(self, old, new):
        a = compile_minic(IDENT_SRC, "ident")
        b = compile_minic(IDENT_SRC.replace(old, new), "ident")
        name = "scale" if "x *" in old else "main"
        assert _digest(a, name) != _digest(b, name)
        # (by identity: code objects of equal segments compare equal)
        assert not set(map(id, _codes(a.function_named(name)))) \
            & set(map(id, _codes(b.function_named(name))))
        for module in (a, b):
            assert Interpreter(module).run("main", (5,)) == \
                Interpreter(module, compiled=False).run("main", (5,))

    def test_key_is_a_digest_of_content_not_a_python_hash(self):
        digest = _digest(compile_minic(IDENT_SRC, "ident"))
        assert isinstance(digest, bytes) and len(digest) == 16

    def test_in_place_mutation_regenerates(self):
        module = compile_minic(IDENT_SRC, "ident")
        main = module.function_named("main")
        assert Interpreter(module).run("main", (4,)) == 28
        code = function_code(main)
        assert function_code(main) is code
        mul = next(i for i in main.instructions()
                   if isinstance(i, BinOp) and i.kind is BinOpKind.MUL)
        # A constant mutated in place ...
        const = mul.operands[1]
        const.value = const.cval = 5
        assert function_code(main) is not code
        assert Interpreter(module).run("main", (4,)) == 40
        # ... and an operand list rewritten behind replace_operand's back.
        code = function_code(main)
        mul.operands[:] = [mul.operands[0], ConstInt(I32, 2)]
        assert function_code(main) is not code
        assert Interpreter(module).run("main", (4,)) == 22
        assert Interpreter(module, compiled=False).run("main", (4,)) == 22

    def test_equal_content_over_replaced_objects_rebinds(self):
        module = compile_minic(IDENT_SRC, "ident")
        main = module.function_named("main")
        code = function_code(main)
        generated = codegen.generations
        mul = next(i for i in main.instructions()
                   if isinstance(i, BinOp) and i.kind is BinOpKind.MUL)
        twin = BinOp(BinOpKind.MUL, *mul.operands)
        block = mul.parent
        block.instructions[block.instructions.index(mul)] = twin
        twin.parent = block
        for inst in main.instructions():
            inst.replace_operand(mul, twin)
        rebound = function_code(main)
        assert rebound is not code and twin in rebound.regmap
        assert codegen.generations == generated
        assert Interpreter(module).run("main", (4,)) == 28

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(codegen, "MEMO_SIZE", 3)
        for k in range(8):
            module = compile_minic(
                f"int main(int n) {{ return n * {1000 + k}; }}", "lru")
            assert Interpreter(module).run("main", (2,)) == 2 * (1000 + k)
            assert len(codegen._memo) <= 3
        # Least recently used goes first: the last three are resident.
        generated = codegen.generations
        module = compile_minic("int main(int n) { return n * 1007; }", "lru")
        Interpreter(module).run("main", (2,))
        assert codegen.generations == generated
        module = compile_minic("int main(int n) { return n * 1000; }", "lru")
        Interpreter(module).run("main", (2,))
        assert codegen.generations == generated + 1

    def test_generated_source_is_the_debugging_entry_point(self):
        module = compile_minic(CALL_SRC, "src")
        source = codegen.generated_source(module.function_named("main"))
        assert "def seg_main_entry_0(interp, frame):" in source
        assert "except BaseException:" in source
        compile(source, "<check>", "exec")


# ---------------------------------------------------------------------------
# Pre-fork warm
# ---------------------------------------------------------------------------


class TestPreForkWarm:
    @pytest.mark.parametrize("processes", [2])
    def test_no_generation_or_binding_after_construction(self, processes,
                                                         monkeypatch):
        prog = prepared_counter_program(24)
        executor = make_executor(prog.module, prog.plan, workers=2,
                                 processes=processes)
        generated = codegen.generations

        def refuse(fn):
            raise AssertionError(f"@{fn.name} bound after construction")

        # Forked workers inherit the patched module: a child that had to
        # validate, bind or generate code would fail the epoch.
        monkeypatch.setattr(interpreter_module, "function_code", refuse)
        result = executor.run(prog.entry, prog.ref_args)
        assert "".join(result.output) == "".join(prog.sequential.output)
        assert result.runtime_stats.misspec_count() == 0
        assert codegen.generations == generated


# ---------------------------------------------------------------------------
# Deterministic numbering after compile
# ---------------------------------------------------------------------------


def _all_digests(program):
    return {fn.name: codegen.content_key(fn, codegen.build_regmap(fn))[0]
            for fn in program.module.defined_functions()}


def _assert_uids_unique(module):
    values = list(module.globals.values())
    for fn in module.functions.values():
        values += [fn, *fn.args, *fn.instructions()]
    for fn in module.defined_functions():
        values += [op for inst in fn.instructions() for op in inst.operands]
    by_uid = {}
    for v in values:
        assert by_uid.setdefault(v.uid, v) is v, (v, by_uid[v.uid])


class TestPostCompileNumbering:
    """What the transform adds is numbered N+1, N+2, … after the module's
    own 1..N, wherever the process counter stands: the transformed
    functions of one (source, plan) have one content key, so the second
    program binds the first one's code."""

    @pytest.fixture(autouse=True)
    def _scratch_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    @pytest.mark.parametrize("name,inputs", [
        ("enc_md5", ((4, 48, 5), (4, 48, 1 << 20))),
        ("swaptions", ((4, 6, 5), (4, 6, 1 << 20))),
        ("dijkstra", ((8, 12, 7), (8, 12, 7))),
    ])
    def test_second_prepare_of_a_source_reuses_generated_code(self, name,
                                                              inputs):
        import threading

        from repro.bench.pipeline import prepare
        from repro.workloads import BY_NAME

        source = BY_NAME[name].source
        first = prepare(source, name, args=inputs[0], use_cache=False)
        first.execute(workers=2)
        # Unrelated compiles move the process counter, here and on
        # another thread, before and while the second program is made.
        compile_minic(IDENT_SRC, "noise")
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                compile_minic(CALL_SRC, "churn")

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            second = prepare(source, name, args=inputs[1], use_cache=False)
        finally:
            stop.set()
            thread.join(30.0)
        assert not thread.is_alive()
        assert _all_digests(second) == _all_digests(first)
        _assert_uids_unique(first.module)
        _assert_uids_unique(second.module)
        generated = codegen.generations
        result = second.execute(workers=2)
        assert codegen.generations == generated
        assert result.output == second.sequential.output

    def test_inserted_values_continue_the_modules_numbering(self):
        prog = prepared_counter_program(24)
        inserted = [inst for fn in prog.module.defined_functions()
                    for inst in fn.instructions()
                    if "privateer" in inst.meta]
        assert inserted
        pristine = compile_minic(prog.source, prog.name)
        n = pristine.next_uid - 1
        assert max(v.uid for fn in pristine.functions.values()
                   for v in fn.instructions()) <= n
        # (No malloc/free in this program: every marked call is new.)
        assert all(n < inst.uid < prog.module.next_uid for inst in inserted)

    def test_scope_is_per_thread_and_restored(self):
        import threading

        from repro.ir.values import UIDS

        module = compile_minic(IDENT_SRC, "scoped")
        start = module.next_uid
        process_counter = UIDS.counter
        seen = {}

        def other_thread():
            seen["uid"] = ConstInt(I64, 1).uid
            seen["counter"] = UIDS.counter

        with module.fresh_uids():
            a = ConstInt(I64, 1)
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(10.0)
            b = ConstInt(I64, 2)
        assert (a.uid, b.uid, module.next_uid) == (start, start + 1,
                                                   start + 2)
        assert seen["counter"] is process_counter
        assert UIDS.counter is process_counter
        # A hand-built module has no numbering of its own to continue.
        with Module("by_hand").fresh_uids():
            assert UIDS.counter is process_counter

    def test_snapshot_unpickled_in_a_fresh_process(self, tmp_path):
        """The collision the old invariant allowed: a process that
        receives a module by unpickling has a counter below N, and used
        to hand the transform's calls uids the module already holds."""
        import json
        import os
        import pickle
        import subprocess
        import sys

        import repro
        from repro.bench.pipeline import prepare
        from repro.workloads import BY_NAME

        source = BY_NAME["enc_md5"].source
        args = (4, 48, 5)
        snapshot = tmp_path / "module.pickle"
        snapshot.write_bytes(pickle.dumps(compile_minic(source, "enc_md5")))
        script = (
            "import json, pickle, sys\n"
            "from repro.bench.pipeline import prepare_module\n"
            "from repro.interp import codegen\n"
            "from repro.ir.values import UIDS\n"
            "from repro.workloads import BY_NAME\n"
            "module = pickle.load(open(sys.argv[1], 'rb'))\n"
            "below = next(UIDS.counter) < module.next_uid\n"
            "prog = prepare_module(module, BY_NAME['enc_md5'].source,\n"
            f"                      'enc_md5', args={args!r}, use_cache=False)\n"
            "uids = [v.uid for fn in prog.module.functions.values()\n"
            "        for v in (fn, *fn.args, *fn.instructions())]\n"
            "uids += [g.uid for g in prog.module.globals.values()]\n"
            "print(json.dumps({'below': below,\n"
            "    'unique': len(uids) == len(set(uids)),\n"
            "    'digests': {fn.name: codegen.content_key(\n"
            "        fn, codegen.build_regmap(fn))[0].hex()\n"
            "        for fn in prog.module.defined_functions()}}))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(repro.__file__)))
        proc = subprocess.run([sys.executable, "-c", script, str(snapshot)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        child = json.loads(proc.stdout)
        assert child["below"] and child["unique"]
        here = prepare(source, "enc_md5", args=args, use_cache=False)
        assert child["digests"] == {name: digest.hex() for name, digest
                                    in _all_digests(here).items()}


# ---------------------------------------------------------------------------
# Memory sites: the per-site inline cache against find() and the step path
# ---------------------------------------------------------------------------


def _site_module():
    """``main(p, q, v)``: ``x = load i32 p; store i64 v, q; return x`` —
    one load site and one store site, addresses straight from formals."""
    module = Module("sites")
    fn = Function("main", FunctionType(I64, (PTR, PTR, I64)),
                  ["p", "q", "v"])
    module.add_function(fn)
    b = IRBuilder(module, fn.add_block("entry"))
    x = b.load(fn.args[0], I32)
    b.store(fn.args[2], fn.args[1])
    b.ret(x)
    return module


class _World:
    """A main space with two leaf overlays and one interpreter over
    them: the machine the state machine drives twice, once per path."""

    def __init__(self, module, compiled):
        main = AddressSpace()
        self.interp = Interpreter(module, space=main, compiled=compiled)
        self.fn = module.function_named("main")
        #: every object handed out by a rule, in creation order
        self.objects = [main.allocate(size, "seed", "heap")
                        for size in (24, 8)]
        self.spaces = [main]
        self.fork()

    def fork(self):
        """Fresh workers, as ``RuntimeSystem.refork_workers`` makes them
        after every stretch the main space ran (and allocated)."""
        main = self.spaces[0]
        self.spaces = [main, AddressSpace(parent=main),
                       AddressSpace(parent=main)]

    def guarded(self, action):
        try:
            return ("ok", action())
        except GuestFault as exc:
            return ("GuestFault", str(exc))

    def access(self, k, p, q, v):
        interp = self.interp
        interp.space = self.spaces[k]
        interp.frames.clear()
        cycles, steps = interp.cycles, interp.steps
        interp.push_function(self.fn, (p, q, v))
        try:
            outcome = ("returned", interp.run_until_event())
        except Exception as exc:
            outcome = (type(exc).__name__, str(exc), interp.frames[-1].index)
        return outcome, interp.cycles - cycles, interp.steps - steps

    def picture(self):
        """What every space resolves at every object ever made, plus
        its dirty pages."""
        seen = []
        for space in self.spaces:
            for obj in self.objects:
                for addr in (obj.base, obj.base + obj.size - 1):
                    found = space.try_find(addr)
                    seen.append(found and (
                        found[0].base, found[0].size, found[0].writable,
                        found[1], bytes(found[0].data)))
            seen.append(sorted(space.dirty_pages))
        return seen


#: Offsets into an object: mostly inside it, some before it, across its
#: end or across a page boundary; and values whose store shows.
_OFFSETS = st.sampled_from([0] * 6 + [4, 4, 8, 16, -4, 4090])
_STORED = st.integers(1, 2**64)
_HOT = st.sampled_from([True, True, False])
_SPACES = st.sampled_from([0, 1, 1, 2, 2])


class MemorySiteMachine(RuleBasedStateMachine):
    """Random allocate / free / store-through-overlay / reduction-copy
    registration / read-only toggles / space switches, applied to a
    fast-path world and a step-path world in lockstep.  The fast world
    runs one bound ``Function`` throughout, and most draws aim at the
    space and objects of the previous access, so its two sites see
    every way a filled entry can go stale."""

    module = _site_module()

    def __init__(self):
        super().__init__()
        self.fast = _World(self.module, compiled=True)
        self.step = _World(self.module, compiled=False)
        #: space and object indices (p's, q's) of the previous access
        self.last = (0, 0, 1)

    def both(self, action):
        fast, step = action(self.fast), action(self.step)
        assert fast == step
        return fast

    def target(self, n, hot):
        """Index of an object: one of the previous access's when
        ``hot``, any otherwise."""
        if hot:
            return self.last[1 + n % 2]
        return n % len(self.fast.objects)

    @rule(k=_SPACES, hot=_HOT,
          size=st.sampled_from([1, 4, 8, 24, 4200]),
          region=st.sampled_from([HEAP_BASE, STACK_BASE]))
    def allocate(self, k, hot, size, region):
        k = self.last[0] if hot else k

        def allocate(w):
            w.objects.append(w.spaces[k].allocate(size, "o", "heap", region))
            if k == 0:
                # Overlays never outlive an allocation of their parent.
                w.fork()
        self.both(allocate)

    @rule(k=_SPACES, n=st.integers(0, 1 << 16), hot=_HOT,
          inner=st.sampled_from([0, 0, 0, 4]))
    def free(self, k, n, hot, inner):
        k, n = self.last[0] if hot else k, self.target(n, hot)
        self.both(lambda w: w.guarded(lambda: w.spaces[k].free(
            w.objects[n].base + inner).base))

    @rule(k=st.integers(1, 2), n=st.integers(0, 1 << 16), hot=_HOT)
    def register_reduction_copy(self, k, n, hot):
        """What ``RuntimeSystem._init_worker_redux`` does."""
        if hot and self.last[0]:
            k = self.last[0]
        n = self.target(n, hot)

        def register(w):
            obj = w.objects[n]
            space = w.spaces[k]
            found = w.spaces[0].try_find(obj.base)
            if (found is None or found[0] is not obj
                    or space.try_find(obj.base) != found):
                return None  # not a live main object this overlay sees
            copy = MemoryObject(obj.base, obj.size, obj.name, obj.kind,
                                obj.site, writable=True)
            copy.data[:] = b"\x07" * obj.size
            space.install_copy(copy)
            return obj.base
        self.both(register)

    @rule(k=_SPACES, n=st.integers(0, 1 << 16), hot=_HOT)
    def toggle_writable(self, k, n, hot):
        """``_protect_readonly`` / ``_unprotect_readonly``, on whatever
        space ``k`` resolves there (its copy, when it made one)."""
        k, n = self.last[0] if hot else k, self.target(n, hot)

        def toggle(w):
            found = w.spaces[k].try_find(w.objects[n].base)
            if found is not None:
                found[0].writable = not found[0].writable
        self.both(toggle)

    @rule(k=_SPACES, np=st.integers(0, 1 << 16),
          nq=st.one_of(st.none(), st.integers(0, 1 << 16)),
          op=_OFFSETS, oq=_OFFSETS,
          wild=st.sampled_from([None] * 6 + ["p", "q"]), v=_STORED)
    def access(self, k, np, nq, op, oq, wild, v):
        """Load from object ``np``, store to ``nq`` (None: the same)."""
        count = len(self.fast.objects)
        self.last = (k, np % count, (np if nq is None else nq) % count)
        self.access_again(op, oq, wild, v)

    @rule(op=_OFFSETS, oq=_OFFSETS,
          wild=st.sampled_from([None] * 6 + ["p", "q"]), v=_STORED)
    def access_again(self, op, oq, wild, v):
        """Through the space and at the objects of the previous access:
        the sites hit unless a rule in between made their entries
        stale."""
        fast, step = self.fast, self.step
        k, np, nq = self.last
        p = fast.objects[np].base + op
        q = fast.objects[nq].base + oq
        if wild == "p":
            p = (0, 0xDEAD0000, 1.5)[v % 3]
        elif wild == "q":
            q = (0, 0xDEAD0000, None)[v % 3]
        expected = fast.spaces[k].try_find(p, 4) \
            if isinstance(p, int) and p else None
        if expected is not None:
            obj, off = expected
            expected = int.from_bytes(obj.data[off:off + 4], "little",
                                      signed=True)
        got = fast.access(k, p, q, v)
        assert got == step.access(k, p, q, v)
        if got[0][0] == "returned":
            assert got[0][1] == expected
        else:
            assert got[0][2] == (0 if expected is None else 1)

    @invariant()
    def same_memory(self):
        assert self.fast.picture() == self.step.picture()
        assert self.fast.interp.cycles == self.step.interp.cycles
        assert self.fast.interp.steps == self.step.interp.steps


MemorySiteMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestMemorySiteMachine = MemorySiteMachine.TestCase


# The roll-back matrix again, over blocks that run many times in one
# run: each site misses on its first execution and hits afterwards, so
# the k-th fault lands on sites in either state.

LOOP_FAULT_SRC = """
int data[8];
int main(int n, int d) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        data[i % 8] = acc + i;
        acc = acc + data[(i * 3) % 8] / (d - i);
    }
    return acc;
}
"""

WALK_SRC = """
int main(int n) {
    int* p = (int*)malloc(8 * sizeof(int));
    int acc = 0;
    for (int i = 0; i < n; i++) {
        p[i] = i * 5;
        acc = acc + p[i / 2];
    }
    return acc;
}
"""


class TestRollbackOnCachedSites:
    @pytest.mark.parametrize("d", [0, 1, 5, 40])
    def test_guest_fault_at_kth_iteration(self, d):
        module = compile_minic(LOOP_FAULT_SRC, "loopfault")
        (kind, _), _, state, events = assert_paths_agree(
            module, (12, d), hooks=Recorder)
        assert kind == ("returned" if d == 40 else "GuestFault")
        # One store and one load an iteration, the faulting one's too.
        assert [e[0] for e in events].count("load") == min(d + 1, 12)

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_load_and_store_walking_off_a_cached_object(self, n):
        """The store site has hit seven times when ``p[8]`` leaves the
        object: same wild-pointer fault, same parked index."""
        (kind, message), _, state, _ = assert_paths_agree(
            compile_minic(WALK_SRC, "walk"), (n,), hooks=Recorder)
        assert kind == ("returned" if n == 8 else "GuestFault")
        if n > 8:
            assert "wild pointer" in message and "size 4" in message

    @pytest.mark.parametrize("nth", [1, 2, 5, 12])
    def test_hook_raising_from_on_load(self, nth):
        module = compile_minic(LOOP_FAULT_SRC, "loophook")
        (kind, message), _, _, events = assert_paths_agree(
            module, (12, 40), hooks=lambda: Recorder(raise_on_load=nth))
        assert (kind, message) == ("RuntimeError", "hook refused the load")
        assert [e[0] for e in events].count("store") == nth

    def test_guest_timeout_at_every_budget(self):
        module = compile_minic(LOOP_FAULT_SRC, "loopbudget")
        _, _, (_, total, *_), _ = observe(module, (5, 40), compiled=False)
        for budget in range(1, total + 1):
            (kind, _), _, _, _ = assert_paths_agree(
                module, (5, 40), max_steps=budget, hooks=Recorder)
            assert kind == (GuestTimeout.__name__ if budget < total
                            else "returned")

    def test_float_too_large_for_f32_precedes_the_fault(self):
        """``write_float`` packs before it resolves: an f32 store of a
        value that does not fit raises OverflowError on a wild pointer
        too, hit or miss, and leaves no copy behind."""
        module = Module("f32")
        fn = Function("main", FunctionType(I64, (PTR, F64)), ["p", "x"])
        module.add_function(fn)
        b = IRBuilder(module, fn.add_block("entry"))
        b.store(b.cast(CastKind.FPTRUNC, fn.args[1], F32), fn.args[0])
        b.ret(0)
        for p in (0xDEAD0000, 0):
            (kind, _), _, _, _ = assert_paths_agree(module, (p, 1e300))
            assert kind == "OverflowError"
        main = AddressSpace()
        obj = main.allocate(8, "o", "heap")
        for compiled in (True, False):
            worker = AddressSpace(parent=main)
            interp = Interpreter(module, space=worker, compiled=compiled)
            assert interp.run("main", (obj.base, 1.5)) == 0      # fills
            with pytest.raises(OverflowError):
                interp.run("main", (obj.base, 1e300))            # hit
            assert worker.read_float(obj.base, 4) == 1.5
            fresh = AddressSpace(parent=main)
            interp.space = fresh
            with pytest.raises(OverflowError):
                interp.run("main", (obj.base, 1e300))            # miss
            assert fresh.find(obj.base)[0] is obj


# ---------------------------------------------------------------------------
# Memory sites shared between threads and inherited across fork
# ---------------------------------------------------------------------------

SHARED_SRC = """
int cells[64];
int main(int n, int seed) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        int j = (i * 7 + seed) % 64;
        cells[j] = cells[j] + seed + i;
        acc = (acc + cells[(j * 3) % 64]) % 1000003;
    }
    return acc;
}
"""


class TestSharedSites:
    def test_two_threads_share_one_function_over_two_spaces(self):
        """Both interpreters run the same bound segments, hence the same
        cache cells, over spaces that hold different data at the same
        addresses: an entry read torn, or trusted for the wrong space,
        shows in the sums."""
        import sys
        import threading

        module = compile_minic(SHARED_SRC, "shared")
        n = 5000  # 2 loads + 1 store an iteration: > 10^4 accesses
        want = {seed: Interpreter(module, compiled=False).run(
            "main", (n, seed)) for seed in (3, 11)}
        got = {}
        # Bound before the threads start, so they share it.
        code = function_code(module.function_named("main"))

        def run(seed):
            got[seed] = Interpreter(module).run("main", (n, seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(seed,))
                       for seed in want]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert function_code(module.function_named("main")) is code
        assert got == want

    def test_forked_child_misses_once_per_site_then_hits(self, monkeypatch):
        """PR 16's pre-fork bind: the child inherits the bound segments
        with the parent's entries in them; its own overlay fills each
        site on the first access and never calls ``find`` again."""
        import os

        module = _site_module()
        main = AddressSpace()
        obj = main.allocate(16, "o", "heap")
        interp = Interpreter(module, space=AddressSpace(parent=main))
        assert interp.run("main", (obj.base, obj.base + 8, 7)) == 0
        finds = []
        find = AddressSpace.find
        monkeypatch.setattr(
            AddressSpace, "find",
            lambda self, addr, size=1: finds.append(addr)
            or find(self, addr, size))
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                interp.space = AddressSpace(parent=main)
                # (Copied up front: a first store's copy-on-write would
                # send the load site through find once more.)
                interp.space.write_int(obj.base + 8, 1, 8)
                counts = []
                for v in (9, 10):
                    del finds[:]
                    interp.run("main", (obj.base, obj.base + 8, v))
                    counts.append(len(finds))
                os.write(wfd, repr(counts).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(wfd)
        with os.fdopen(rfd, "rb") as pipe:
            reported = pipe.read().decode()
        assert os.waitpid(pid, 0)[1] == 0
        assert reported == "[2, 0]"   # the load site and the store site
