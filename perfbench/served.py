"""``service_mix``: a ``python -m repro serve`` subprocess under a closed
loop of two clients.

One op is one *round* of 18 submissions over two programs at small
size on the simulated backend:

* 2 **cold** — a guest seed the server has never seen, so the resident
  prepared-program cache and the on-disk profile cache both miss;
* 8 **warm** — the run's resident inputs at ``workers`` 1-4 (simulated
  workers: no process is started for them); an inert knob
  (``misspec_burst`` while ``misspec_period`` is 0, which injects
  nothing) carries a serial number, so the result cache misses while
  the prepared program stays resident and the work stays the same;
* 8 **hit** — identical resubmissions of the anchors submitted in
  set-up: answered from the result cache at submit time.

Closed loop: each client sends its next submission only when the
previous one is ``done``.  The seed permutes the order of the round's
parts and of the submissions inside a part, which the two clients take
alternately; it does not resize the round.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.pipeline import run_sequential
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import TERMINAL_STATES

from harness import Part
from workloads import SERVICE_MIX, Bench, Program, programs_of

CLIENTS = 2
#: ``workers`` of the warm and hit submissions of one program: the
#: simulated executor's worker count, two submissions per client.
WORKER_KNOBS = (1, 2, 3, 4)
#: Seconds between two GET /jobs/<id> of a waiting client.
POLL_S = 0.01
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0


class Server:
    """The ``repro serve`` process: started on an ephemeral port, its
    output kept in the scratch directory, stopped with SIGTERM."""

    def __init__(self, scratch: str):
        self.log_path = os.path.join(scratch, "serve.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=self._log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL)
        self.pid = self.proc.pid
        try:
            self.url = self._wait_for_url()
        except BaseException:
            self.stop()
            raise

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        marker = "serve: job API on "
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith(marker) and line.endswith("\n"):
                        return line[len(marker):].strip()
            time.sleep(0.01)
        with open(self.log_path) as f:
            raise RuntimeError(f"repro serve did not start:\n{f.read()}")

    def stop(self) -> List[str]:
        """SIGTERM and wait for the drained exit; returns the hygiene
        problems found (a server that needs killing is one)."""
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("server ignored SIGTERM and was killed")
        self._log.close()
        with open(self.log_path) as f:
            drained = "serve: drained and stopped" in f.read()
        if not problems and (self.proc.returncode != 0 or not drained):
            problems.append(
                f"server exit was not a drained one (code "
                f"{self.proc.returncode}, drained line: {drained})")
        return problems


@dataclass
class JobRecord:
    """One submission as its client saw it."""

    tier: str
    program: str
    submit_rtt_s: float = 0.0
    total_s: float = 0.0
    polls: int = 0
    rejected: bool = False
    job: Dict[str, object] = field(default_factory=dict)
    expected: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        job = self.job
        result = job.get("result") or {}
        tier_ok = {
            "cold": not job.get("cache_hit") and not job.get("warm"),
            "warm": not job.get("cache_hit") and bool(job.get("warm")),
            "hit": bool(job.get("cache_hit")),
        }[self.tier]
        return (not self.rejected and job.get("state") == "done"
                and tier_ok and result.get("output") == self.expected
                and bool(result.get("output_matches")))


def run_job(client: ServiceClient, payload: Dict[str, object],
            record: JobRecord) -> None:
    """Submit and wait for ``done``; the closed loop's one step."""
    t0 = time.perf_counter()
    try:
        job = client.submit(payload)
    except ServiceError as exc:
        record.rejected = exc.status == 429
        record.job = {"state": "refused", "error": str(exc)}
        record.total_s = record.submit_rtt_s = time.perf_counter() - t0
        return
    record.submit_rtt_s = time.perf_counter() - t0
    while job["state"] not in TERMINAL_STATES:
        time.sleep(POLL_S)
        job = client.job(job["id"])
        record.polls += 1
    record.total_s = time.perf_counter() - t0
    record.job = job


class ServiceMix:
    """Draws and plays the parts of a round against one server.

    A round is played as six parts, tier x program, each by the two
    closed-loop clients: the box changes speed several times during a
    whole round, seldom during a 0.1-0.35 s part with a speed probe on
    either side (README.md, "Timing protocol").  One sweep of the six
    parts, in seed-permuted order against one server's caches, is one
    round.
    """

    def __init__(self, server: Server, programs: List[Program],
                 rng: random.Random):
        self.server = server
        self.programs = programs
        self.rng = rng
        #: Distinguishes the warm submissions of one part sample from
        #: every earlier one (carried by the inert knob).
        self.serial = 0
        #: Guest seeds of cold jobs: above every registered and drawn
        #: seed, never repeated within a server's life.
        self.next_cold_seed = 1 << 20
        self.resident_output = {
            p.name: run_sequential(p.source, p.name, "main", p.ref).output
            for p in programs}
        self.pending: List[Tuple[Dict[str, object], JobRecord]] = []
        #: The records of every part sample played, for the traced run.
        self.history: List[List[JobRecord]] = []

    def payload(self, prog: Program, args, workers: int,
                **knobs) -> Dict[str, object]:
        return dict(workload=prog.name, args=list(args),
                    train_args=list(args), workers=workers,
                    backend="simulated", **knobs)

    def submit_anchors(self) -> bool:
        """Set-up: the jobs the hit tier resubmits.  Also makes every
        program resident, so the first round's warm tier is warm."""
        client = ServiceClient(self.server.url)
        ok = True
        for prog in self.programs:
            for i, workers in enumerate(WORKER_KNOBS):
                rec = JobRecord("warm" if i else "cold", prog.name,
                                expected=self.resident_output[prog.name])
                run_job(client, self.payload(prog, prog.ref, workers), rec)
                ok = ok and rec.ok()
        return ok

    def draw(self, tier: str, prog: Program) -> None:
        """Untimed: one part's submissions, their references and their
        order (the clients take alternate ones)."""
        out = self.resident_output[prog.name]
        if tier == "cold":
            args = (*prog.ref[:2], self.next_cold_seed)
            self.next_cold_seed += 1
            out = run_sequential(prog.source, prog.name, "main", args).output
            payloads = [self.payload(prog, args, 2)]
        elif tier == "warm":
            self.serial += 1
            payloads = [self.payload(prog, prog.ref, workers,
                                     misspec_burst=self.serial)
                        for workers in WORKER_KNOBS]
        else:
            payloads = [self.payload(prog, prog.ref, workers)
                        for workers in WORKER_KNOBS]
        self.rng.shuffle(payloads)
        self.pending = [(payload, JobRecord(tier, prog.name, expected=out))
                        for payload in payloads]

    def play(self) -> List[JobRecord]:
        """Timed: the two closed-loop clients work through the part."""
        jobs = self.pending

        def client_loop(mine) -> None:
            client = ServiceClient(self.server.url)
            for payload, record in mine:
                run_job(client, payload, record)

        threads = [threading.Thread(target=client_loop,
                                    args=(jobs[i::CLIENTS],))
                   for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = [rec for _payload, rec in jobs]
        self.history.append(records)
        return records


TIERS = ("cold", "warm", "hit")


def build_service_mix(rng: random.Random, scratch: str,
                      cpus: Tuple[int, ...]) -> Bench:
    programs = programs_of(SERVICE_MIX, rng, paired=False)
    # The server on one core, the clients on the other (with one core,
    # both there): a process started now inherits this affinity.
    os.sched_setaffinity(0, cpus[-1:])
    try:
        server = Server(scratch)
    finally:
        os.sched_setaffinity(0, cpus[:1])
    try:
        mix = ServiceMix(server, programs, rng)
        if not mix.submit_anchors():
            raise RuntimeError("service_mix: an anchor job did not end done")
    except BaseException:
        server.stop()
        raise
    parts = [Part(f"{tier}.{prog.name}", mix.play,
                  check=lambda records: all(r.ok() for r in records),
                  before=lambda tier=tier, prog=prog: mix.draw(tier, prog),
                  cpus=cpus)
             for tier in TIERS for prog in programs]
    return Bench(programs, parts, live_pids=(server.pid,),
                 close=server.stop, mix=mix)
