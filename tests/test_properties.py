"""Property-based tests (hypothesis) on core invariants:

* interpreter integer arithmetic == two's-complement C semantics;
* the interval object map never mixes objects up;
* shadow-metadata state machine invariants (Table 2);
* deferred output always commits in iteration order;
* trip_count agrees with direct loop simulation.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp.interpreter import Interpreter
from repro.interp.memory import AddressSpace
from repro.ir.instructions import BinOpKind, CmpPred
from repro.ir.types import I8, I32, I64, U8, U32, U64, IntType
from repro.parallel.backend import trip_count
from repro.runtime.iodefer import DeferredOutput
from repro.runtime.shadow import (
    LIVE_IN,
    OLD_WRITE,
    READ_LIVE_IN,
    TS_BASE,
    ShadowHeap,
    timestamp_for,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)


def c_wrap(value, bits, signed):
    value &= (1 << bits) - 1
    if signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


class TestIntegerSemantics:
    @given(a=int64s, b=int64s,
           ty=st.sampled_from([I8, I32, I64, U8, U32, U64]),
           kind=st.sampled_from([BinOpKind.ADD, BinOpKind.SUB, BinOpKind.MUL]))
    def test_wrapping_matches_c(self, a, b, ty, kind):
        a, b = ty.wrap(a), ty.wrap(b)
        result = Interpreter._int_binop(kind, a, b, ty)
        py = {"ADD": a + b, "SUB": a - b, "MUL": a * b}[kind.name]
        assert result == c_wrap(py, ty.bits, ty.signed)

    @given(a=int64s, b=int64s.filter(lambda x: x != 0),
           ty=st.sampled_from([I32, I64]))
    def test_division_truncates_toward_zero(self, a, b, ty):
        a, b = ty.wrap(a), ty.wrap(b)
        if b == 0:
            return
        q = Interpreter._int_binop(BinOpKind.DIV, a, b, ty)
        r = Interpreter._int_binop(BinOpKind.REM, a, b, ty)
        if ty.wrap(q * b + r) == a:  # exact relation, modulo wrap
            assert abs(r) < abs(b) or b in (-1, 1)

    @given(a=int64s, shift=st.integers(min_value=0, max_value=63))
    def test_unsigned_shift_right_is_logical(self, a, shift):
        a64 = U64.wrap(a)
        out = Interpreter._int_binop(BinOpKind.SHR, a64, shift, U64)
        assert out == (a64 >> shift)
        assert out >= 0

    @given(a=int64s, b=int64s, ty=st.sampled_from([I32, U32, I64]))
    def test_bitwise_ops_match_masked_python(self, a, b, ty):
        a, b = ty.wrap(a), ty.wrap(b)
        mask = (1 << ty.bits) - 1
        assert Interpreter._int_binop(BinOpKind.AND, a, b, ty) == \
            ty.wrap((a & mask) & (b & mask))
        assert Interpreter._int_binop(BinOpKind.XOR, a, b, ty) == \
            ty.wrap((a & mask) ^ (b & mask))

    @given(a=int64s, b=int64s)
    def test_comparison_total_order(self, a, b):
        lt = Interpreter._compare(CmpPred.LT, a, b)
        gt = Interpreter._compare(CmpPred.GT, a, b)
        eq = Interpreter._compare(CmpPred.EQ, a, b)
        assert lt + gt + eq == 1


class TestIntervalMap:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=300),
                          min_size=1, max_size=30),
           data=st.data())
    def test_every_byte_resolves_to_its_object(self, sizes, data):
        space = AddressSpace()
        objs = [space.allocate(s, f"o{i}", "heap") for i, s in enumerate(sizes)]
        idx = data.draw(st.integers(min_value=0, max_value=len(objs) - 1))
        obj = objs[idx]
        off = data.draw(st.integers(min_value=0, max_value=obj.size - 1))
        found, found_off = space.find(obj.base + off)
        assert found is obj and found_off == off

    @given(sizes=st.lists(st.integers(min_value=1, max_value=100),
                          min_size=2, max_size=20))
    def test_objects_never_overlap(self, sizes):
        space = AddressSpace()
        objs = [space.allocate(s, f"o{i}", "heap") for i, s in enumerate(sizes)]
        spans = sorted((o.base, o.end) for o in objs)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    @given(value=int64s, size=st.sampled_from([1, 2, 4, 8]))
    def test_int_roundtrip(self, value, size):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        wrapped = c_wrap(value, size * 8, signed=True)
        space.write_int(obj.base, wrapped, size)
        assert space.read_int(obj.base, size, signed=True) == wrapped

    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_roundtrip(self, value):
        space = AddressSpace()
        obj = space.allocate(8, "o", "heap")
        space.write_float(obj.base, value)
        assert space.read_float(obj.base) == value


@st.composite
def shadow_ops(draw):
    """A sequence of (is_write, offset, size, iteration) within one epoch."""
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    iteration = 0
    for _ in range(n):
        iteration += draw(st.integers(min_value=0, max_value=3))
        ops.append((
            draw(st.booleans()),
            draw(st.integers(min_value=0, max_value=60)),
            draw(st.integers(min_value=1, max_value=8)),
            min(iteration, 200),
        ))
    return ops


class TestShadowInvariants:
    @given(ops=shadow_ops())
    def test_metadata_codes_always_valid(self, ops):
        from repro.interp.errors import Misspeculation

        sh = ShadowHeap(96)
        for is_write, off, size, iteration in ops:
            ts = timestamp_for(iteration, 0)
            try:
                if is_write:
                    sh.on_write(off, size, ts, iteration)
                else:
                    sh.on_read(off, size, ts, iteration)
            except Misspeculation:
                pass
            for b in sh.meta:
                assert b in (LIVE_IN, OLD_WRITE, READ_LIVE_IN) or b >= TS_BASE

    @given(ops=shadow_ops())
    def test_write_read_same_iteration_never_misspeculates(self, ops):
        sh = ShadowHeap(96)
        for _, off, size, iteration in ops:
            ts = timestamp_for(iteration, 0)
            sh.on_write(off, size, ts, iteration)
            sh.on_read(off, size, ts, iteration)  # must always be fine

    @given(ops=shadow_ops())
    def test_reset_clears_all_epoch_state(self, ops):
        from repro.interp.errors import Misspeculation

        sh = ShadowHeap(96)
        for is_write, off, size, iteration in ops:
            ts = timestamp_for(iteration, 0)
            try:
                (sh.on_write if is_write else sh.on_read)(off, size, ts, iteration)
            except Misspeculation:
                pass
        sh.reset_after_checkpoint()
        assert all(b in (LIVE_IN, OLD_WRITE) for b in sh.meta)
        assert not sh.written and not sh.read_live_in


class TestDeferredOutputProperty:
    @given(records=st.lists(
        st.tuples(st.integers(min_value=0, max_value=50), st.text(max_size=5)),
        max_size=40))
    def test_commit_order_is_iteration_order(self, records):
        d = DeferredOutput()
        for iteration, text in records:
            d.emit(iteration, text)
        sink = []
        d.commit_range(0, 51, sink.append)
        expected = [t for i, t in sorted(
            enumerate(records), key=lambda e: (e[1][0], e[0]))]
        assert sink == [t for _i, t in
                        sorted(records, key=lambda r: r[0])] or sink == [
            t for t in expected]  # stable within an iteration


class TestTripCountProperty:
    @given(init=st.integers(min_value=-100, max_value=100),
           bound=st.integers(min_value=-100, max_value=100),
           step=st.integers(min_value=1, max_value=7),
           pred=st.sampled_from([CmpPred.LT, CmpPred.LE]))
    def test_upcounting_matches_simulation(self, init, bound, step, pred):
        expected = 0
        i = init
        while (i < bound if pred is CmpPred.LT else i <= bound):
            expected += 1
            i += step
        assert trip_count(init, bound, step, pred, False) == expected

    @given(init=st.integers(min_value=-100, max_value=100),
           bound=st.integers(min_value=-100, max_value=100),
           step=st.integers(min_value=-7, max_value=-1),
           pred=st.sampled_from([CmpPred.GT, CmpPred.GE]))
    def test_downcounting_matches_simulation(self, init, bound, step, pred):
        expected = 0
        i = init
        while (i > bound if pred is CmpPred.GT else i >= bound):
            expected += 1
            i += step
        assert trip_count(init, bound, step, pred, False) == expected
