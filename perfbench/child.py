"""The measured process: one fresh interpreter per run.

``run.py`` starts this with a scrubbed environment and a scratch
directory, reads the result file it leaves, and checks the teardown.
Set-up is everything from the driver's ``--t0`` stamp (taken just before
this process was started) to the first timed sample: interpreter start,
imports, building the workload (``prepare``, server start, anchors), the
golden check and one untimed, checked warm-up of every part -- each
stage divided by the box's slowdown around it (``harness.SetUp``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def set_up(args, rng: random.Random, problems: List[str]):
    """Build, golden check, warm-up.  Returns ``(bench, warmup,
    setup)``; ``setup.seconds`` is the set-up up to here, where the
    caller's first timed sample follows."""
    import golden
    import harness
    import workloads

    setup = harness.SetUp(args.t0, workloads.cpus_of(args.workload))
    bench = workloads.build(args.workload, rng, args.scratch)
    setup.stage()
    warmup = harness.Samples()
    try:
        problems += golden.check([prog.name for prog in bench.programs],
                                 Path(args.golden) if args.golden else None)
        setup.stage()
        for part in bench.parts:
            harness.take_sample(part, warmup, bench.live_pids)
        if args.workload == "prepare_cold":
            for prog in bench.programs:
                if not workloads.verify_prepared(prog):
                    problems.append(f"{prog.name}: the prepared program "
                                    f"does not run to the sequential output")
    except BaseException:
        bench.close()
        raise
    problems += [f"warm-up: {e}" for e in warmup.errors]
    setup.stage()
    return bench, warmup, setup


def untraced(args, rng: random.Random) -> Dict[str, object]:
    import harness

    problems: List[str] = []
    bench, warmup, setup = set_up(args, rng, problems)
    try:
        samples = harness.sample(bench.parts, args.seconds, rng,
                                 bench.live_pids)
    finally:
        problems += bench.close()
    return {
        "metrics": {"op_s": samples.op_s, "cpu_s": samples.cpu_s,
                    "peak_rss_mb": samples.peak_rss_mb,
                    "setup_s": setup.seconds},
        "attempted": warmup.attempted + samples.attempted,
        "failed": warmup.failed + samples.failed,
        "problems": problems + samples.errors,
        "notes": harness.describe(samples),
    }


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--golden", default="")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    if args.trace:
        import layers

        result = layers.traced(args, rng)
    else:
        result = untraced(args, rng)
    tmp = args.result + ".tmp"
    with open(tmp, "w") as f:
        json.dump(result, f)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
