"""Self-test of the benchmark itself (not collected by the repository's
tests: ``testpaths = ["tests"]``).

    python3 perfbench/selftest.py --quick    # 1.5 to 2 min
    python3 perfbench/selftest.py            # about 3 min

``--quick`` checks that ``BENCHMARK.json`` and ``metrics.py`` agree, that
every name and unit is well formed and the counts are within the
contract's limits, that a run of every workload prints every declared
metric (``--seconds 0``: the 15 sweeps a run takes at least), and that
every ``=`` count is identical in two fresh traced runs of each workload with
the same seed.

The full test adds, per workload, a traced run with another seed (no
``=`` count may move by more than 1 %: the seed reorders work, it does
not resize it), and checks that a corrupted ``golden.json``, a missing
``src/`` and a measured process that leaves a descendant running all
make ``run.py`` exit non-zero.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as table  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SHORT = ["--seconds", "0"]

#: Stands in for ``child.py`` in a scratch copy of the benchmark: leaves
#: a healthy result and a grandchild that outlives it.
LEAKY_CHILD = """\
import json, subprocess, sys
subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"],
                 start_new_session=True)
metrics = dict.fromkeys(("op_s", "cpu_s", "peak_rss_mb", "setup_s"), 1.0)
with open(sys.argv[sys.argv.index("--result") + 1], "w") as f:
    json.dump({"metrics": metrics, "attempted": 1, "failed": 0,
               "problems": []}, f)
"""


def static_checks() -> List[str]:
    problems = []
    declared = table.benchmark_json()
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != declared:
        problems.append("BENCHMARK.json differs from metrics.py "
                        "(python3 perfbench/metrics.py --write)")
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} used twice" for n in set(names)
                 if names.count(n) > 1]
    for m in declared["end_to_end"] + declared["per_layer"]:
        if not UNIT.match(m["unit"]):
            problems.append(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"bad direction of {m['name']}")
    for w in declared["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"why of {w['name']} is not one short line")
    if not 2 <= len(declared["workloads"]) <= 8:
        problems.append("workload count outside 2..8")
    if not 1 <= len(declared["end_to_end"]) <= 16:
        problems.append("end-to-end count outside 1..16")
    if not 1 <= len(declared["per_layer"]) <= 128:
        problems.append("per-layer count outside 1..128")
    for m in declared["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(
            m["bound"] for m in declared["end_to_end"]):
        problems.append("setup_s is missing or lacks the largest bound")
    return problems


def run(argv: List[str], cwd: Path = ROOT, script: Path = HERE / "run.py"
        ) -> Tuple[int, Dict[str, object], str]:
    """One ``run.py``; returns ``(exit code, result object, output)``."""
    proc = subprocess.run([sys.executable, str(script)] + argv, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return proc.returncode, result, proc.stdout


def check_result(what: str, code: int, result: Dict[str, object],
                 output: str, declared) -> List[str]:
    problems = []
    if code != 0 or not result.get("correct"):
        tail = "\n".join(line[:160] for line in
                         output.strip().splitlines()[-12:-1])
        return [f"{what}: exit code {code}, correct "
                f"{result.get('correct')}\n{tail}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
    got = result["metrics"]
    want = {m.name: m.unit for m in declared}
    if set(got) != set(want):
        problems.append(f"{what}: metrics differ from the declared ones: "
                        f"{sorted(set(got) ^ set(want))}")
    for name, unit in want.items():
        entry = got.get(name, {})
        if entry.get("unit") != unit or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"{what}: {name} is {entry}")
        if f"\n{name} = " not in output:
            problems.append(f"{what}: {name} is not printed by name")
    return problems


def exact_values(result: Dict[str, object]) -> Dict[str, float]:
    return {name: result["metrics"][name]["value"] for name in table.EXACT}


def main(argv: List[str]) -> int:
    quick = "--quick" in argv
    started = time.time()
    problems = static_checks()
    workloads = [name for name, _why in table.WORKLOADS]

    jobs = {}
    for w in workloads:
        jobs[w, "untraced"] = ["--workload", w, "--seed", "1",
                               "--trace", "0"] + SHORT
        for twin in ("a", "b"):
            jobs[w, twin] = ["--workload", w, "--seed", "1",
                             "--trace", "1"] + SHORT
        if not quick:
            jobs[w, "other seed"] = ["--workload", w, "--seed", "2",
                                     "--trace", "1"] + SHORT
    # Correctness and counts only, so two runs may share the two cores.
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = dict(zip(jobs, pool.map(run, jobs.values())))

    for (w, kind), (code, result, output) in done.items():
        declared = table.END_TO_END if kind == "untraced" else table.PER_LAYER
        problems += check_result(f"{w} {kind}", code, result, output,
                                 declared)
    if not problems:
        for w in workloads:
            a = exact_values(done[w, "a"][1])
            b = exact_values(done[w, "b"][1])
            problems += [f"{w}: {n} is {a[n]} then {b[n]} with one seed"
                         for n in a if a[n] != b[n]]
            if quick:
                continue
            c = exact_values(done[w, "other seed"][1])
            problems += [f"{w}: {n} moves from {a[n]} to {c[n]} with the seed"
                         for n in a if abs(c[n] - a[n]) > 0.01 * abs(a[n])]

    if not quick:
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            golden = json.loads((HERE / "golden.json").read_text())
            golden["enc_md5"]["output"][0] = "0" * 32
            bad = Path(tmp) / "golden.json"
            bad.write_text(json.dumps(golden))
            code, result, _out = run(["--workload", "prepare_cold", "--seed",
                                      "1", "--golden", str(bad)] + SHORT)
            if code == 0 or result.get("correct", False):
                problems.append("a corrupted golden.json went unnoticed")
            # Only BENCHMARK.json and the files under its paths.
            bare = Path(tmp) / "bare"
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil
                            .ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, result, _out = run(
                ["--workload", "prepare_cold", "--seed", "1"] + SHORT,
                cwd=bare, script=bare / "perfbench" / "run.py")
            if code == 0 or result:
                problems.append("run.py ran without the repository's src/")
            # The same copy beside a stand-in src/, its measured process
            # replaced by one that leaks a sleeping grandchild.
            (bare / "src" / "repro").mkdir(parents=True)
            (bare / "src" / "repro" / "__init__.py").write_text("")
            (bare / "perfbench" / "child.py").write_text(LEAKY_CHILD)
            code, result, out = run(
                ["--workload", "prepare_cold", "--seed", "1"] + SHORT,
                cwd=bare, script=bare / "perfbench" / "run.py")
            if (code == 0 or result.get("correct", True)
                    or "processes survived the run" not in out):
                problems.append("a descendant that outlived the measured "
                                "process went unnoticed")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {'failed' if problems else 'ok'} "
          f"({len(jobs)} runs, {time.time() - started:.0f}s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
