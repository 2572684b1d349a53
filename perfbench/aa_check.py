"""A/A check: does the benchmark agree with itself?

    python3 perfbench/aa_check.py [--runs 10] [--workloads W ...]

Two sets (A, B) of ``--runs`` untraced runs per workload of the same
code; run *i* of either set uses ``--seed i``, and A and B alternate
which goes first.  For every workload x end-to-end metric it prints both
medians, B's relative difference from A in the worse direction, both
interquartile spreads (``statistics.quantiles(values, n=4)``, as a share
of the median) and the bound.  Exits non-zero when B's median is worse
than A's by more than the bound, or when a spread other than
``setup_s``'s exceeds it.

About 45 minutes for the default 2 x 10 x 4 runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as table  # noqa: E402


def one_run(workload: str, seed: int) -> Dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(table.RUN_SECONDS),
         "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, "
                         f"result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*",
                    default=[name for name, _why in table.WORKLOADS])
    ap.add_argument("--out", default="",
                    help="also write every run's values to this JSON file")
    args = ap.parse_args(argv)

    raw: Dict[str, Dict[str, List[Dict[str, float]]]] = {}
    failures = []
    print(f"{'workload':13s} {'metric':12s} {'median A':>10s} "
          f"{'median B':>10s} {'B worse':>8s} {'iqr A':>7s} {'iqr B':>7s} "
          f"{'bound':>6s}")
    for workload in args.workloads:
        sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
        for i in range(1, args.runs + 1):
            for side in ("AB" if i % 2 else "BA"):
                sets[side].append(one_run(workload, i))
                print(f"  {workload} {side}{i} "
                      + " ".join(f"{k}={v:.4f}"
                                 for k, v in sets[side][-1].items()),
                      file=sys.stderr, flush=True)
        raw[workload] = sets
        for m in table.END_TO_END:
            a = [run[m.name] for run in sets["A"]]
            b = [run[m.name] for run in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m.better == "higher":
                worse = -worse
            iqr_a, iqr_b = spread(a), spread(b)
            verdict = ""
            if worse > m.bound:
                verdict = "  FAIL median"
            elif m.name != "setup_s" and max(iqr_a, iqr_b) > m.bound:
                verdict = "  FAIL spread"
            if verdict:
                failures.append(f"{workload}/{m.name}")
            print(f"{workload:13s} {m.name:12s} {med_a:10.4f} {med_b:10.4f} "
                  f"{worse:+8.2%} {iqr_a:7.2%} {iqr_b:7.2%} "
                  f"{m.bound:6.2f}{verdict}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    print("A/A: " + ("FAILED " + ", ".join(failures) if failures
                     else "all pairings within their bounds"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
