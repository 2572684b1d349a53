"""One benchmark run: ``python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0|1``.

Starts the measured process (``child.py``) fresh, with a scratch
directory inside the checkout, every ``REPRO_*`` variable scrubbed and
the cache, policy, flight and temporary directories pointed into the
scratch; prints every metric by name with its unit; checks the outputs
and the teardown; ends with the result object on the last line.

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace
1`` the per-layer ones (see ``layers.py``).
Exit code 0 iff every output was correct and the teardown was clean.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as table  # noqa: E402

#: Seconds after which a measured process is killed and the run fails
#: (the driver's own limit is 180 s for the whole command).
CHILD_TIMEOUT_S = 150.0
#: Seconds an orphan has to end by itself after the measured process.
WIND_DOWN_S = 2.0
SCRATCH_BASE = ROOT / ".perfbench-scratch"
PR_SET_CHILD_SUBREAPER = 36


def scrubbed_env(scratch: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var, sub in (("REPRO_CACHE_DIR", "cache"), ("REPRO_ADAPT_DIR", "adapt"),
                     ("REPRO_FLIGHT_DIR", "flight"), ("TMPDIR", "tmp")):
        env[var] = os.path.join(scratch, sub)
        os.makedirs(env[var])
    # REPRO_HISTORY_DIR stays unset: naming a directory switches the
    # server's history sampler on, and no workload asks for that.
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def live_children() -> List[int]:
    me = os.getpid()
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def reap_survivors() -> List[str]:
    """After the measured process has exited, nothing it started may be
    alive.  This process is a subreaper, so orphans are its children:
    kill and reap them (and the orphans that makes), and say which they
    were."""
    # multiprocessing's resource tracker ends by itself once the measured
    # process's end of its pipe is closed: winding down is not surviving.
    deadline = time.monotonic() + WIND_DOWN_S
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    found: List[str] = []
    while True:
        alive = live_children()
        if not alive:
            break
        for pid in alive:
            try:
                with open(f"/proc/{pid}/cmdline") as f:
                    found.append(f"{pid} {f.read().split(chr(0))[:-1]}")
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass  # died since the scan; still ours to reap
            os.waitpid(pid, 0)
    while True:  # zombies adopted on the way
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return found


def run_child(args, problems: List[str]) -> Optional[Dict[str, object]]:
    """One measured process in its own scratch directory and process
    group; returns its result, or None when it left none."""
    SCRATCH_BASE.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=SCRATCH_BASE)
    result_path = os.path.join(scratch, "result.json")
    shm_before = shm_segments()
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--result", result_path,
           "--golden", args.golden]
    env = scrubbed_env(scratch)
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT),
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        code = proc.wait()
        problems.append(f"measured process killed after {CHILD_TIMEOUT_S}s")
    if code != 0:
        problems.append(f"measured process exited with code {code}")
    survivors = reap_survivors()
    if survivors:
        problems.append(f"processes survived the run: {survivors}")
    # The pool backend names its rings repro-pool-<pid>-...; another
    # run's live rings are not this run's leak.
    leaked = {name for name in shm_segments() - shm_before
              if name.startswith("repro-") and not any(
                  part.isdigit() and os.path.exists(f"/proc/{part}")
                  for part in name.split("-")[2:3])}
    if leaked:
        problems.append(f"/dev/shm segments left behind: {sorted(leaked)}")
    result = None
    if os.path.exists(result_path):
        with open(result_path) as f:
            result = json.load(f)
    shutil.rmtree(scratch, ignore_errors=True)
    if os.path.exists(scratch):
        problems.append(f"scratch directory {scratch} could not be removed")
    try:
        SCRATCH_BASE.rmdir()
    except OSError:
        pass  # another run's scratch is in it
    return result


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [name for name, _why in table.WORKLOADS]
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=table.RUN_SECONDS)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--golden", default="",
                    help="another golden.json (the self-test corrupts one)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: {ROOT / 'src' / 'repro'} is missing: the benchmark "
              f"measures the repository it sits in", file=sys.stderr)
        return 2
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    problems: List[str] = []
    result = run_child(args, problems)
    if result is None:
        print("\n".join(problems), file=sys.stderr)
        print("error: the measured process left no result", file=sys.stderr)
        return 1
    problems += result["problems"]
    attempted, failed = result["attempted"], result["failed"]

    declared = table.PER_LAYER if args.trace else table.END_TO_END
    values = result["metrics"]
    missing = [m.name for m in declared if m.name not in values]
    if missing:
        print(f"error: the measured process reported no {missing}",
              file=sys.stderr)
        return 1
    for note in result.get("notes", []):
        print(note)
    print(f"workload {args.workload} seed {args.seed} "
          f"attempted {attempted} failed {failed}")
    for m in declared:
        print(f"{m.name} = {values[m.name]!r} {m.unit}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
