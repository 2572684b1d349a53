"""Shadow-memory and checkpoint-merge micro-benchmarks.

``python -m repro perf`` measures the two vectorized shadow layers,
always against the per-byte reference oracle (``REPRO_SHADOW=ref``) so
every number is a *relative* claim with a built-in differential check.
Every other wall-clock number lives in ``perfbench/``.

* **phase 1** — Table 2 validation throughput: a synthetic epoch loop
  drives ``on_write``/``on_read`` over a privatization-shaped access
  pattern (write-then-read scratch region plus a read-only live-in
  region) through both :class:`~repro.runtime.shadow.ShadowHeap` and
  :class:`~repro.runtime.shadow.ReferenceShadowHeap`, asserting the
  final metadata is bit-identical before reporting bytes/second.
* **merge** — checkpoint validate+commit throughput: packed fragments
  with interleaved per-worker write runs feed phase-two validation,
  the latest-iteration-wins merge, and the commit store, vectorized
  (:func:`~repro.runtime.merge.merge_fragments` + slice stores) vs the
  per-byte oracle (:func:`~repro.runtime.merge.merge_fragments_ref` +
  byte stores).  The committed buffers must be identical; the reported
  ``speedup`` must clear :data:`SHADOW_MERGE_GATE`.

Both implementations are invoked directly (not via ``REPRO_SHADOW``),
so one process measures both sides under identical conditions.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple, Type

from ..runtime.fragments import EpochFragment, WRITE_VALUE
from ..runtime.merge import (
    find_phase2_violation,
    find_phase2_violation_ref,
    merge_fragments,
    merge_fragments_ref,
)
from ..runtime.shadow import ReferenceShadowHeap, ShadowHeap, TS_BASE

#: Required checkpoint-merge speedup of the vectorized path over the
#: per-byte oracle.
SHADOW_MERGE_GATE = 5.0


def _drive_phase1(heap_cls: Type, footprint: int, op_size: int,
                  iterations: int, checkpoint_every: int
                  ) -> Tuple[float, int, bytes]:
    """One synthetic privatization epoch loop; returns (elapsed seconds,
    shadow bytes validated, final metadata bytes)."""
    heap = heap_cls(footprint)
    scratch_end = footprint - footprint // 4  # top quarter stays read-only
    write_offsets = range(0, scratch_end - op_size + 1, op_size)
    live_offsets = range(scratch_end, footprint - op_size + 1, op_size)
    touched = 0
    t0 = time.perf_counter()
    for i in range(iterations):
        rel = i % checkpoint_every
        ts = TS_BASE + rel
        for off in write_offsets:
            heap.on_write(off, op_size, ts, rel)
            touched += op_size
        for off in write_offsets:
            heap.on_read(off, op_size, ts, rel)  # same-ts fast path
            touched += op_size
        for off in live_offsets:
            heap.on_read(off, op_size, ts, rel)  # live-in promote path
            touched += op_size
        if (i + 1) % checkpoint_every == 0:
            heap.reset_after_checkpoint()
    elapsed = time.perf_counter() - t0
    return elapsed, touched, bytes(heap.meta)


def _build_fragments(workers: int, footprint: int, run_len: int,
                     epoch_iters: int) -> List[EpochFragment]:
    """Interleaved per-worker write runs over the bottom 7/8 of the
    footprint (worker w owns every w-th ``run_len`` block, iteration
    varying per block) plus disjoint live-in reads in the top 1/8, so
    phase-two validation passes and the merge sees every worker."""
    read_zone = footprint - footprint // 8
    template = (bytes(range(256)) * (run_len // 256 + 1))[:run_len]
    frags = []
    read_slice = (footprint - read_zone) // max(workers, 1)
    for w in range(workers):
        write_runs: List[Tuple[int, int, int]] = []
        kinds = bytearray()
        values = bytearray()
        stride = workers * run_len
        for start in range(w * run_len, read_zone - run_len + 1, stride):
            rel = (start // run_len) % epoch_iters
            write_runs.append((start, start + run_len, rel))
            kinds.extend(bytes(run_len))  # all WRITE_VALUE
            values.extend(template)
        read_start = read_zone + w * read_slice
        frags.append(EpochFragment(
            wid=w, epoch_start=0,
            read_live_in_runs=((read_start, read_start + read_slice),)
            if read_slice else (),
            write_runs=tuple(write_runs),
            write_kinds=bytes(kinds), write_values=bytes(values),
            epoch_written_runs=tuple((s, e) for s, e, _r in write_runs)))
    return frags


def _timed_merge_vec(frags, committed: bytearray,
                     scratch: bytearray) -> float:
    t0 = time.perf_counter()
    violation = find_phase2_violation(frags, committed)
    assert violation is None, "synthetic fragments must validate cleanly"
    outcome = merge_fragments(frags)
    base = outcome.base
    values = outcome.values
    for start, end in outcome.value_runs():
        scratch[start:end] = values[start - base:end - base]
    return time.perf_counter() - t0


def _timed_merge_ref(frags, committed: bytearray,
                     scratch: bytearray) -> float:
    t0 = time.perf_counter()
    violation = find_phase2_violation_ref(frags, committed)
    assert violation is None, "synthetic fragments must validate cleanly"
    outcome = merge_fragments_ref(frags)
    base = outcome.base
    kinds = outcome.kinds
    values = outcome.values
    for i in range(len(kinds)):  # per-byte commit, as the oracle would
        if kinds[i] == WRITE_VALUE:
            scratch[base + i] = values[i]
    return time.perf_counter() - t0


def measure_shadow(label: str, *, footprint: int, op_size: int,
                   iterations: int, checkpoint_every: int, workers: int,
                   run_len: int, merge_footprint: int,
                   repeats: int) -> Dict[str, object]:
    """Benchmark both shadow layers at one configuration; see module
    docstring.  Raises AssertionError if the implementations disagree on
    any byte of metadata or committed state."""
    vec_elapsed = ref_elapsed = float("inf")
    vec_meta = ref_meta = b""
    for _ in range(repeats):
        elapsed, touched, vec_meta = _drive_phase1(
            ShadowHeap, footprint, op_size, iterations, checkpoint_every)
        vec_elapsed = min(vec_elapsed, elapsed)
        elapsed, _touched, ref_meta = _drive_phase1(
            ReferenceShadowHeap, footprint, op_size, iterations,
            checkpoint_every)
        ref_elapsed = min(ref_elapsed, elapsed)
    assert vec_meta == ref_meta, (
        f"{label}: phase-1 metadata diverged between implementations")

    frags = _build_fragments(workers, merge_footprint, run_len,
                             checkpoint_every)
    written_bytes = sum(len(f.write_kinds) for f in frags)
    committed = bytearray(merge_footprint)
    merge_vec = merge_ref = float("inf")
    scratch_vec = scratch_ref = b""
    for _ in range(repeats):
        scratch = bytearray(merge_footprint)
        merge_vec = min(merge_vec, _timed_merge_vec(frags, committed, scratch))
        scratch_vec = bytes(scratch)
        scratch = bytearray(merge_footprint)
        merge_ref = min(merge_ref, _timed_merge_ref(frags, committed, scratch))
        scratch_ref = bytes(scratch)
    assert scratch_vec == scratch_ref, (
        f"{label}: committed bytes diverged between merge implementations")

    return {
        "label": label,
        "workers": workers,
        "repeats": repeats,
        "phase1": {
            "footprint_bytes": footprint,
            "op_size": op_size,
            "iterations": iterations,
            "checkpoint_every": checkpoint_every,
            "bytes_validated": touched,
            "ref_mbps": round(touched / ref_elapsed / 1e6, 2),
            "vec_mbps": round(touched / vec_elapsed / 1e6, 2),
            "speedup": round(ref_elapsed / vec_elapsed, 2),
        },
        "merge": {
            "footprint_bytes": merge_footprint,
            "run_len": run_len,
            "written_bytes": written_bytes,
            "ref_mbps": round(written_bytes / merge_ref / 1e6, 2),
            "vec_mbps": round(written_bytes / merge_vec / 1e6, 2),
            "speedup": round(merge_ref / merge_vec, 2),
        },
    }


#: Configurations :func:`run` measures.  ``default`` matches the
#: evaluated workloads' scale (hundreds of bytes per object); ``stress``
#: has multi-KB object footprints and a multi-MB merge, so validation
#: volume is realistic.
SHADOW_CONFIGS: Tuple[Dict[str, object], ...] = (
    dict(label="default", footprint=64 * 1024, op_size=256, iterations=32,
         checkpoint_every=8, workers=4, run_len=64,
         merge_footprint=256 * 1024, repeats=2),
    dict(label="stress", footprint=512 * 1024, op_size=4096, iterations=8,
         checkpoint_every=4, workers=8, run_len=4096,
         merge_footprint=2 * 1024 * 1024, repeats=1),
)


def run() -> int:
    """Measure every :data:`SHADOW_CONFIGS` entry and print one row
    each; returns 1 if a merge speedup misses :data:`SHADOW_MERGE_GATE`,
    else 0."""
    rc = 0
    for config in SHADOW_CONFIGS:
        res = measure_shadow(**config)
        p1, mg = res["phase1"], res["merge"]
        print(f"shadow   {res['label']:12s} "
              f"validate {p1['ref_mbps']:>8.1f} -> {p1['vec_mbps']:>8.1f} MB/s "
              f"({p1['speedup']:.1f}x)  "
              f"merge {mg['ref_mbps']:>8.1f} -> {mg['vec_mbps']:>8.1f} MB/s "
              f"({mg['speedup']:.1f}x)")
        if mg["speedup"] < SHADOW_MERGE_GATE:
            print(f"FAIL: shadow {res['label']}: checkpoint-merge speedup "
                  f"{mg['speedup']:.2f}x < required "
                  f"{SHADOW_MERGE_GATE:.1f}x over the per-byte oracle")
            rc = 1
    if rc == 0:
        print(f"gate ok: every merge >= {SHADOW_MERGE_GATE:.1f}x "
              f"the per-byte oracle")
    return rc
