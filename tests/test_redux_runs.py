"""Reduction partial results as packed runs (fragment format 3).

Three layers, smallest first:

* the fold alone — :meth:`RuntimeSystem._fold_redux_run` (one ``struct``
  unpack of main's bytes and of the worker's, the operator over the two
  tuples, one ``pack_into``) against the per-element oracle
  ``_apply_redux_element`` that ``REPRO_SHADOW=ref`` keeps, over random
  bit patterns of every element type the IR has;
* the extraction — ``_extract_redux`` against the per-element expansion
  it replaced, kept here as the reference;
* whole programs — a seeded generator of reduction loops (ROADMAP item
  1, class (i), reductions only): sequential output == simulated ==
  simulated on the step interpreter == pool == pool on one process,
  each also under ``REPRO_SHADOW=ref``, with equal counters and
  per-checkpoint ``redux_bytes_merged``.
"""

import dataclasses
import os
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.pipeline import prepare
from repro.classify.heaps import HeapKind
from repro.interp.errors import GuestFault
from repro.parallel.backend import DOALLExecutor
from repro.runtime.fragments import (
    FRAGMENT_FORMAT, EpochFragment, ReduxElement, ReduxRun)
from repro.runtime.shadow import SHADOW_ENV
from repro.runtime.stats import CheckpointRecord
from repro.transform.plan import ReduxObjectPlan

TINY_SRC = """
int out[8];
int main(int n) {
    for (int i = 0; i < n; i++) { out[i % 8] = i; }
    return 0;
}
"""

INT_OPERATORS = ("ADD", "MUL", "AND", "OR", "XOR")
#: (operator, element size, is_float): what MiniC can produce (4- and
#: 8-byte integers, f64) plus what only IR can (1/2-byte integers, f32).
ELEMENT_TYPES = (
    [(op, size, False) for op in INT_OPERATORS for size in (1, 2, 4, 8)]
    + [(op, size, True) for op in ("FADD", "FMUL") for size in (4, 8)])

_SPECIAL_FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                   1.0, -1.5, 3.0e38, 1.0e-45, 1.7e308, 5e-324)


def _special_patterns(size, is_float):
    if is_float:
        code = "<d" if size == 8 else "<f"
        out = []
        for value in _SPECIAL_FLOATS:
            try:
                out.append(struct.pack(code, value))
            except OverflowError:  # 1.7e308 as an f32
                pass
        # A signalling NaN and a NaN with a payload.
        out.append(b"\x01" + bytes(size - 3) + (b"\xf0\x7f" if size == 8
                                                 else b"\x80\x7f"))
        return out
    return [bytes(size), b"\xff" * size, bytes(size - 1) + b"\x80",
            b"\xff" * (size - 1) + b"\x7f", b"\x01" + bytes(size - 1)]


@st.composite
def typed_bytes(draw, size, is_float, count):
    """``count`` elements' worth of bytes: random bit patterns mixed with
    the values that break folds (NaN, ±inf, −0.0, extremes)."""
    element = st.one_of(st.binary(min_size=size, max_size=size),
                        st.sampled_from(_special_patterns(size, is_float)))
    return b"".join(draw(st.lists(element, min_size=count, max_size=count)))


@st.composite
def fold_cases(draw):
    operator, size, is_float = draw(st.sampled_from(ELEMENT_TYPES))
    count = draw(st.integers(min_value=1, max_value=7))
    #: The run need not start on the object's element grid.
    lead = draw(st.integers(min_value=0, max_value=9))
    return (operator, size, is_float, lead,
            draw(typed_bytes(size, is_float, count)),
            draw(typed_bytes(size, is_float, count)))


@pytest.fixture(scope="module")
def tiny():
    return prepare(TINY_SRC, "tiny", args=(8,), use_cache=False)


def _runtime(tiny, redux_objects=None):
    """A fresh runtime whose plan names ``redux_objects`` (site -> plan)
    and nothing else as reductions."""
    plan = dataclasses.replace(tiny.plan,
                               redux_objects=dict(redux_objects or {}))
    return DOALLExecutor(tiny.module, plan, workers=1).runtime


def _redux_object(rt, size, site="t"):
    return rt.main_space.allocate(size, site, "logical",
                                  HeapKind.REDUX.base, site=site)


def _folds(rt):
    return (rt._fold_redux_run, rt._fold_redux_run_ref)


class TestFold:
    @given(case=fold_cases())
    @settings(max_examples=300, deadline=None)
    def test_vector_fold_is_the_element_fold(self, tiny, case):
        operator, size, is_float, lead, main_bytes, delta_bytes = case
        rt = _runtime(tiny)
        outcomes = []
        for fold in _folds(rt):
            obj = _redux_object(rt, lead + len(main_bytes) + 3)
            obj.data[lead:lead + len(main_bytes)] = main_bytes
            run = ReduxRun(obj.base + lead, size, operator, is_float,
                           delta_bytes)
            try:
                fold(run)
                outcomes.append(bytes(obj.data))
            except OverflowError as e:  # an f32 product out of range
                outcomes.append((type(e), str(e)))
        assert outcomes[0] == outcomes[1]

    def test_known_values(self, tiny):
        """Hand-computed, so the two folds cannot be wrong together."""
        rt = _runtime(tiny)
        cases = [
            # int8 ADD wraps: 100 + 100 = -56; -128 + -1 = 127
            ("ADD", 1, False, bytes([100, 0x80]), bytes([100, 0xff]),
             bytes([200, 0x7f])),
            # uint16 view of MUL wrap-around: 300 * 300 = 90000 & 0xffff
            ("MUL", 2, False, struct.pack("<h", 300), struct.pack("<h", 300),
             struct.pack("<H", 90000 & 0xffff)),
            ("AND", 4, False, struct.pack("<I", 0xff00ff00),
             struct.pack("<I", 0x0ff00ff0), struct.pack("<I", 0x0f000f00)),
            ("OR", 8, False, struct.pack("<Q", 1 << 63), struct.pack("<Q", 1),
             struct.pack("<Q", (1 << 63) | 1)),
            ("XOR", 4, False, struct.pack("<I", 0xffffffff),
             struct.pack("<I", 0x0000ffff), struct.pack("<I", 0xffff0000)),
            ("FADD", 8, True, struct.pack("<2d", 1.5, -0.0),
             struct.pack("<2d", 2.25, 0.0), struct.pack("<2d", 3.75, 0.0)),
            ("FMUL", 4, True, struct.pack("<f", 1.5), struct.pack("<f", -2.0),
             struct.pack("<f", -3.0)),
        ]
        for operator, size, is_float, main, delta, want in cases:
            for fold in _folds(rt):
                obj = _redux_object(rt, len(main))
                obj.data[:] = main
                fold(ReduxRun(obj.base, size, operator, is_float, delta))
                assert bytes(obj.data) == want, (operator, fold.__name__)

    @pytest.mark.parametrize("operator", ["FMUL", "FADD"])
    def test_two_nans_leave_the_same_payload_in_both_folds(self, tiny,
                                                          operator):
        """Both folds evaluate the operator through one function: an
        inline ``a * b`` may run as CPython's specialised float opcode,
        which can take its operands the other way round and so keep the
        other NaN's payload.  Repeated, so any specialisation has set
        in."""
        rt = _runtime(tiny)
        main = struct.pack("<2Q", 0x7FF8000000000001, 0xFFF0000000000A5A)
        delta = struct.pack("<2Q", 0x7FF80000000B0002, 0x7FF4000000000003)
        outcomes = set()
        for _ in range(64):
            for fold in _folds(rt):
                obj = _redux_object(rt, len(main))
                obj.data[:] = main
                fold(ReduxRun(obj.base, 8, operator, True, delta))
                outcomes.add(bytes(obj.data))
        assert len(outcomes) == 1

    def test_read_only_target_faults_as_a_store_does(self, tiny):
        rt = _runtime(tiny)
        obj = _redux_object(rt, 16)
        obj.writable = False
        run = ReduxRun(obj.base + 8, 4, "ADD", False, bytes(8))
        for fold in _folds(rt):
            with pytest.raises(GuestFault) as caught:
                fold(run)
            assert str(caught.value) == (
                f"write to read-only object {obj.name} @0x{run.addr:x}")
        assert bytes(obj.data) == bytes(16)

    def test_freed_target_faults_as_a_load_does(self, tiny):
        rt = _runtime(tiny)
        obj = _redux_object(rt, 16)
        rt.main_space.free(obj.base)
        run = ReduxRun(obj.base, 8, "FADD", True, bytes(16))
        for fold in _folds(rt):
            with pytest.raises(GuestFault) as caught:
                fold(run)
            assert str(caught.value) == (
                f"wild pointer 0x{run.addr:x} (size 8)")

    def test_run_without_a_plan_is_counted_not_merged(self, tiny):
        rt = _runtime(tiny)
        obj = _redux_object(rt, 16)
        obj.data[:] = b"\x07" * 16
        run = ReduxRun(obj.base + 4, 8, None, False, bytes(8))
        assert run.elements() == [
            ReduxElement(obj.base + 4, 8, None, False, 0)]
        for fold in _folds(rt):
            fold(run)
        assert bytes(obj.data) == b"\x07" * 16
        rt.begin_invocation(1)
        frag = EpochFragment(wid=0, epoch_start=0, redux_runs=(run,))
        assert rt.checkpoint(0, 1, [frag]).redux_bytes_merged == 8
        assert bytes(obj.data) == b"\x07" * 16


# -- extraction ----------------------------------------------------------------


def _expand_per_element(rt, worker, updates):
    """The extraction format 2 had: every update ``(addr, size)`` steps
    through its object in element-size strides from its own address, and
    each distinct element is one typed read of the worker's space."""
    elements = set()
    for addr, size in updates:
        found = rt.main_space.try_find(addr)
        entry = worker.redux_copies.get(found[0].base if found else addr)
        es = entry[1].element_size if entry else size
        for e in range(addr, addr + size, es):
            elements.add((e, es))
    out = []
    for addr, es in sorted(elements):
        found = rt.main_space.try_find(addr)
        entry = worker.redux_copies.get(found[0].base if found else addr)
        if entry is None:
            out.append(ReduxElement(addr, es, None, False, 0))
            continue
        rplan = entry[1]
        if rplan.is_float:
            delta = worker.space.read_float(addr, es)
        else:
            delta = worker.space.read_int(
                addr, es, rplan.operator in ("ADD", "MUL"))
        out.append(ReduxElement(addr, es, rplan.operator, rplan.is_float,
                                delta))
    return out


def _same_elements(got, want):
    """Equal element lists, NaN deltas compared by bit pattern."""
    def key(el):
        delta = (struct.pack("<d", el.delta) if el.is_float else el.delta)
        return (el.addr, el.size, el.operator, el.is_float, delta)
    return [key(el) for el in got] == [key(el) for el in want]


@st.composite
def extraction_cases(draw):
    """One or two planned reduction objects (adjacent when the first is
    a multiple of the 16-byte allocation alignment), random replica
    contents, and a random set of element-aligned updates."""
    objects = []
    for index in range(draw(st.integers(min_value=1, max_value=2))):
        operator, size, is_float = draw(st.sampled_from(ELEMENT_TYPES))
        count = draw(st.integers(min_value=1, max_value=8))
        objects.append((f"r{index}", operator, size, is_float, count,
                        draw(typed_bytes(size, is_float, count)),
                        draw(st.sets(st.integers(0, count - 1), min_size=1))))
    return objects


class TestExtract:
    @staticmethod
    def _planned(tiny, objects):
        """A runtime in an invocation with one worker whose replicas of
        ``objects`` hold the given bytes; returns (rt, worker, bases)."""
        rt = _runtime(tiny, {
            site: ReduxObjectPlan(site, operator, size, is_float)
            for site, operator, size, is_float, _n, _data, _upd in objects})
        bases = [_redux_object(rt, size * count, site).base
                 for site, _op, size, _f, count, _data, _upd in objects]
        rt.begin_invocation(1)
        worker = rt.workers[0]
        for base, obj in zip(bases, objects):
            worker.redux_copies[base][0].data[:] = obj[5]
        return rt, worker, bases

    @given(objects=extraction_cases())
    @settings(max_examples=150, deadline=None)
    def test_runs_expand_to_the_elements_updated(self, tiny, objects):
        rt, worker, bases = self._planned(tiny, objects)
        updates = [(base + index * size, size)
                   for base, (_s, _o, size, _f, _n, _d, updated)
                   in zip(bases, objects) for index in sorted(updated)]
        for addr, size in updates:
            worker.redux_written.add_range(addr, addr + size)
        runs, _dirty = rt._extract_redux(worker)
        assert _same_elements(
            [el for run in runs for el in run.elements()],
            _expand_per_element(rt, worker, updates))
        # Maximal: two runs of one object never touch, and no run
        # straddles two objects.
        for run in runs:
            obj = rt.main_space.find(run.addr)[0]
            assert run.addr + len(run.data) <= obj.base + obj.size
        for a, b in zip(runs, runs[1:]):
            assert (a.addr + len(a.data) < b.addr
                    or rt.main_space.find(a.addr)[0]
                    is not rt.main_space.find(b.addr)[0])

    def test_adjacent_objects_are_cut_at_the_boundary(self, tiny):
        objects = [("r0", "ADD", 8, False, 2, bytes(range(16)), {0, 1}),
                   ("r1", "FADD", 4, True, 3, bytes(12), {0, 2})]
        rt, worker, (a, b) = self._planned(tiny, objects)
        assert b == a + 16
        worker.redux_written.add_range(a, a + 16)
        worker.redux_written.add_range(b, b + 4)
        worker.redux_written.add_range(b + 8, b + 12)
        runs, _dirty = rt._extract_redux(worker)
        assert runs == (
            ReduxRun(a, 8, "ADD", False, bytes(range(16))),
            ReduxRun(b, 4, "FADD", True, bytes(4)),
            ReduxRun(b + 8, 4, "FADD", True, bytes(4)))

    @pytest.mark.parametrize("offset,length", [
        (2, 4),    # misaligned to the 4-byte element
        (4, 6),    # not a multiple of it: takes in the rest of the last
        (0, 2),    # smaller than one element
        (3, 9),    # both
    ])
    def test_odd_update_expands_as_a_lone_update_always_did(
            self, tiny, offset, length):
        objects = [("r0", "XOR", 4, False, 6, bytes(range(1, 25)), set())]
        rt, worker, (base,) = self._planned(tiny, objects)
        worker.redux_written.add_range(base + offset, base + offset + length)
        runs, _dirty = rt._extract_redux(worker)
        want = _expand_per_element(rt, worker, [(base + offset, length)])
        assert len(runs) == 1 and len(runs[0].data) % 4 == 0
        assert _same_elements(runs[0].elements(), want)

    def test_update_running_off_the_object_faults(self, tiny):
        objects = [("r0", "ADD", 8, False, 2, bytes(16), set())]
        rt, worker, (base,) = self._planned(tiny, objects)
        worker.redux_written.add_range(base + 12, base + 16)
        with pytest.raises(GuestFault, match="wild pointer"):
            rt._extract_redux(worker)
        with pytest.raises(GuestFault, match="wild pointer"):
            _expand_per_element(rt, worker, [(base + 12, 4)])

    def test_addresses_without_a_plan_become_operator_less_runs(self, tiny):
        objects = [("r0", "ADD", 4, False, 4, bytes(16), set())]
        rt, worker, (base,) = self._planned(tiny, objects)
        # Two elements, then 8 bytes past the object, mapped by nothing.
        worker.redux_written.add_range(base + 8, base + 24)
        runs, _dirty = rt._extract_redux(worker)
        assert runs == (ReduxRun(base + 8, 4, "ADD", False, bytes(8)),
                        ReduxRun(base + 16, 8, None, False, bytes(8)))
        assert rt.checkpoint(0, 1).redux_bytes_merged == 16


class TestWireFormat:
    def test_format_2_fragment_is_rejected_at_checkpoint(self, tiny):
        assert FRAGMENT_FORMAT == 3
        rt = _runtime(tiny)
        rt.begin_invocation(1)
        stale = EpochFragment(wid=0, epoch_start=0, format=2)
        with pytest.raises(ValueError, match="fragment format 2 from "
                                             "worker 0 does not match"):
            rt.checkpoint(0, 1, [stale])


# -- whole programs: the reduction-loop generator -----------------------------

#: C type -> (element size, printf conversion)
C_TYPES = {"int": (4, "%d"), "unsigned": (4, "%u"), "long": (8, "%ld"),
           "double": (8, "%.4f")}
#: operator -> update statement over ``{x}`` (the element), ``i``, ``j``
#: and a drawn constant ``{c}``.  Floating-point terms and factors are
#: small dyadic rationals, so every partial sum and product is exact and
#: the worker-order merge prints what the sequential order does.
UPDATES = {
    "ADD": "{x} += i * {c} + j;",
    "MUL": "{x} *= i * {c} + j + 3;",
    "AND": "{x} &= ~(1 << ((i * {c} + j) % 31));",
    "OR": "{x} |= 1 << ((i * {c} + j) % 31);",
    "XOR": "{x} ^= i * {c} + j;",
    "FADD": "{x} += (i * {c} + j) * 0.25;",
    "FMUL": "{x} *= 0.5 + ((i * {c} + j) % 3);",
}
TYPED_OPERATORS = (
    [(ctype, op) for ctype in ("int", "unsigned", "long")
     for op in INT_OPERATORS]
    + [("double", "FADD"), ("double", "FMUL")])
TRAIN_TRIPS = 6


@st.composite
def reduction_objects(draw):
    ctype, operator = draw(st.sampled_from(TYPED_OPERATORS))
    return (ctype, operator,
            draw(st.integers(min_value=1, max_value=7)),        # length
            draw(st.integers(min_value=1, max_value=2654435)),  # constant
            draw(st.integers(min_value=-3, max_value=9)))       # initial


reduction_loops = st.tuples(
    st.lists(reduction_objects(), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=12),   # trip count
    st.integers(min_value=1, max_value=3),    # workers
    st.integers(min_value=1, max_value=6))    # checkpoint period


def render(objects):
    """MiniC source of one loop that reduces into every object; the
    reduction loop is the program's only outer loop, so it is the one
    the pipeline parallelizes."""
    decls, inits, updates, prints = [], [], [], []
    for k, (ctype, operator, length, constant, initial) in enumerate(objects):
        _size, conv = C_TYPES[ctype]
        decls.append(f"{ctype} r{k}[{length}];")
        inits += [f"r{k}[{e}] = {initial + e};" for e in range(length)]
        updates.append(
            f"for (int j = 0; j < {length}; j++) {{ "
            + UPDATES[operator].format(x=f"r{k}[j]", c=constant) + " }")
        prints.append('printf("%s\\n", %s);' % (
            " ".join([conv] * length),
            ", ".join(f"r{k}[{e}]" for e in range(length))))
    return "\n".join([
        *decls,
        "int main(int n) {",
        *inits,
        "for (int i = 0; i < n; i++) {", *updates, "}",
        *prints,
        "return 0; }"])


def _digest(result):
    stats = result.runtime_stats
    return (result.output, result.return_value, result.total_wall_cycles,
            stats.counter_snapshot(), stats.invocations, stats.checkpoints,
            stats.misspec_count(),
            [dataclasses.astuple(r) for r in stats.checkpoint_records])


class TestReductionLoopGenerator:
    @given(loop=reduction_loops)
    # Two adjacent objects (16 and 32 bytes), then two apart.
    @example(loop=([("long", "MUL", 2, 7, 1), ("double", "FADD", 4, 3, 0)],
                   9, 2, 2))
    @example(loop=([("int", "XOR", 3, 11, 5), ("unsigned", "AND", 5, 2, -1)],
                   12, 3, 1))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_every_mode_prints_the_sequential_output(self, loop):
        objects, trips, workers, period = loop
        prog = prepare(render(objects), "redux_gen", args=(TRAIN_TRIPS,),
                       ref_args=(trips,), use_cache=False)
        assert {site: (p.operator, p.element_size)
                for site, p in prog.plan.redux_objects.items()} == {
            f"global:r{k}": (operator, C_TYPES[ctype][0])
            for k, (ctype, operator, *_rest) in enumerate(objects)}
        digests = {}
        for shadow in ("vec", "ref"):
            for label, options, env in (
                    ("simulated", dict(processes=1), {}),
                    # The generated code's oracle, on the same team.
                    ("simulated/step", dict(processes=1),
                     {"REPRO_INTERP": "step"}),
                    ("pool", dict(backend="pool"), {}),
                    ("pool/2", dict(processes=2), {})):
                with mock.patch.dict(os.environ, {SHADOW_ENV: shadow, **env}):
                    result = prog.execute(
                        workers=workers, checkpoint_period=period,
                        adapt=False, **options)
                    assert result.output == prog.sequential.output, (
                        shadow, label)
                    digests[shadow, label] = _digest(result)
        reference = digests["vec", "simulated"]
        for key, digest in digests.items():
            assert digest == reference, key
        assert reference[6] == 0  # parallelizable by construction
        # Every iteration updates every element, so a checkpoint folds
        # each object once per worker that ran an iteration of the epoch.
        total = sum(C_TYPES[ctype][0] * length
                    for ctype, _op, length, _c, _init in objects)
        records = [CheckpointRecord(*fields) for fields in reference[7]]
        assert [r.redux_bytes_merged for r in records] == [
            total * min(workers, r.end_iteration - r.start_iteration)
            for r in records]
        # Below min_parallel_trips the loop runs in main, unspeculated.
        assert bool(records) == (trips >= 2)

    def test_squashed_partial_results_never_reach_main(self):
        """Injected misspeculation: the squashed epochs' runs are dropped
        with the epoch, recovery re-executes in main, the re-forked
        replicas start from the identity — on both backends, under both
        folds, with one trajectory."""
        objects = [("long", "ADD", 4, 5, 2), ("double", "FMUL", 3, 1, 1)]
        prog = prepare(render(objects), "redux_storm", args=(TRAIN_TRIPS,),
                       ref_args=(23,), use_cache=False)
        assert len(prog.plan.redux_objects) == 2
        digests = {}
        for shadow in ("vec", "ref"):
            with mock.patch.dict(os.environ, {SHADOW_ENV: shadow}):
                for backend in ("simulated", "pool"):
                    result = prog.execute(
                        workers=3, checkpoint_period=4, misspec_period=5,
                        backend=backend, adapt=False)
                    assert result.output == prog.sequential.output
                    digests[shadow, backend] = _digest(result)
        reference = digests["vec", "simulated"]
        assert reference[6] >= 4  # injected at iterations 4, 9, 14, 19
        for key, digest in digests.items():
            assert digest == reference, key
