"""The `python -m repro` command-line interface."""

import pytest

from repro.__main__ import main

SRC = """
int scratch[8];
int out[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 8; j++) { scratch[j] = i + j; }
        int acc = 0;
        for (int r = 0; r < 5; r++) {
            for (int j = 0; j < 8; j++) { acc += scratch[j]; }
        }
        out[i] = acc;
    }
    printf("%d\\n", out[2]);
    return 0;
}
"""

BAD_SRC = """
int state;
int out[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        out[i] = state;
        state = state + i;
        for (int j = 0; j < 20; j++) { out[i] = out[i] * 3 + j; }
    }
    printf("%d\\n", out[0]);
    return 0;
}
"""


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SRC)
    return str(path)


class TestAnalyze:
    def test_shows_heap_assignment(self, prog_file, capsys):
        rc = main(["analyze", prog_file, "--args", "24"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Heap assignment" in out
        assert "PRIVATE" in out
        assert "ParallelPlan" in out

    def test_unparallelizable_reports_reasons(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text(BAD_SRC)
        rc = main(["analyze", str(path), "--args", "24"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "no parallelizable loop" in out


class TestRun:
    def test_runs_and_reports(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup:" in out
        assert "output matches sequential: True" in out
        assert "misspeculations:  0" in out

    def test_timeline_flag(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--timeline"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worker 0" in out and "legend" in out

    def test_misspec_injection(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--misspec-period", "9"])
        out = capsys.readouterr().out
        assert rc == 0  # still correct
        assert "recoveries: 2" in out


class TestArgValidation:
    """Bad worker/epoch arguments die in argparse with a clear message,
    before any compilation or execution starts."""

    def _expect_usage_error(self, argv, capsys, fragment):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert fragment in capsys.readouterr().err

    def test_run_zero_workers_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["run", prog_file, "--args", "24", "--workers", "0"],
            capsys, "at least one worker")

    def test_run_negative_workers_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["run", prog_file, "--args", "24", "--workers", "-3"],
            capsys, "must be >= 1 (got -3)")

    def test_run_non_integer_workers_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["run", prog_file, "--args", "24", "--workers", "two"],
            capsys, "expected an integer, got 'two'")

    def test_run_epoch_floor_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["run", prog_file, "--args", "24", "--checkpoint-period", "1"],
            capsys, "cannot amortize a checkpoint")

    def test_trace_zero_workers_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["trace", prog_file, "--args", "24", "--workers", "0"],
            capsys, "at least one worker")

    def test_baselines_zero_workers_rejected(self, prog_file, capsys):
        self._expect_usage_error(
            ["baselines", prog_file, "--args", "24", "--workers", "0"],
            capsys, "at least one worker")

    def test_valid_arguments_still_accepted(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "1",
                   "--checkpoint-period", "2"])
        assert rc == 0
        assert "speedup:" in capsys.readouterr().out


_EXECUTION = {("--checkpoint-period",): None, ("--misspec-period",): 0,
              ("--misspec-burst",): 0}
_BACKEND = {("--processes",): 1}
_OBS = {("--trace",): False, ("--trace-out",): None, ("--metrics",): False,
        ("--status-port",): None}
_WORKLOAD = {("workload",): None, ("--args",): None, ("--small",): False}

#: Every subcommand's ``(option strings, default)`` pairs (a positional
#: by its name), as they were before the shared flag helpers existed.
PARSER_SURFACE = {
    "analyze": {("workload",): None, ("--args",): None,
                ("--no-cache",): False, **_OBS},
    "run": {("workload",): None, ("--args",): None, ("--workers",): 24,
            **_EXECUTION, ("--timeline",): False, ("--no-cache",): False,
            ("--report",): None, **_BACKEND,
            ("--adapt", "--no-adapt"): None, **_OBS},
    "trace": {**_WORKLOAD, ("--workers",): 24, **_EXECUTION,
              ("--out-dir",): ".", ("--cache",): False, ("--report",): None,
              **_BACKEND, ("--adapt", "--no-adapt"): None,
              ("--status-port",): None},
    "explain": {**_WORKLOAD, ("--workers",): 24, **_EXECUTION,
                ("--flight-dir",): None, ("--json",): None,
                ("--no-cache",): False, ("--report",): None, **_BACKEND,
                ("--adapt", "--no-adapt"): None},
    "baselines": {("workload",): None, ("--args",): None,
                  ("--workers",): 24},
    "workloads": {("--json",): False},
    "serve": {("--port",): None, ("--queue-depth",): None,
              ("--retain",): 256, ("--history-dir",): None},
    "submit": {**_WORKLOAD, ("--train-args",): None, ("--workers",): 4,
               **_EXECUTION, ("--adapt",): False, ("--trace",): False,
               ("--no-wait",): True, ("--json",): False, ("--url",): None,
               ("--port",): None, ("--timeout",): 300.0, **_BACKEND},
    "jobs": {("job_id",): None, ("--json",): False, ("--url",): None,
             ("--port",): None, ("--timeout",): 10.0},
    "report": {},
    "perf": {},
    "top": {("rest",): None},
    "dash": {("rest",): None},
}


def test_every_subcommand_keeps_its_options_and_defaults():
    import argparse

    from repro.__main__ import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {tuple(a.option_strings) or (a.dest,): a.default
               for a in parser._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, parser in sub.choices.items()}
    assert surface == PARSER_SURFACE


@pytest.mark.parametrize("command", ["run", "trace", "explain"])
def test_execution_flags_reach_execute(command):
    from repro.__main__ import _execute_kwargs, build_parser

    args = build_parser().parse_args([
        command, "prog.c", "--workers", "3", "--checkpoint-period", "5",
        "--misspec-period", "7", "--misspec-burst", "9",
        "--processes", "2", "--no-adapt"])
    assert _execute_kwargs(args) == dict(
        workers=3, checkpoint_period=5, misspec_period=7, misspec_burst=9,
        processes=2, adapt=False)


@pytest.mark.parametrize("command", ["analyze", "run", "trace", "explain"])
def test_no_loop_found_lists_the_reasons(command, tmp_path, capsys):
    from repro import obs

    path = tmp_path / "bad.c"
    path.write_text(BAD_SRC)
    argv = [command, str(path), "--args", "24"]
    if command == "trace":
        argv += ["--out-dir", str(tmp_path)]
    rc = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    first = lines.index("no parallelizable loop found:")
    assert lines[first + 1].startswith("  - ")
    # `trace` armed tracing and disarms it on this path too.
    assert obs.enabled() is False


@pytest.mark.parametrize("command", ["analyze", "run", "trace", "explain",
                                     "baselines", "submit"])
def test_unknown_workload_message_is_shared(command, capsys):
    rc = main([command, "no-such-workload"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: 'no-such-workload' is neither a workload "
                          "(")
    assert err.rstrip().endswith(") nor a MiniC source file")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "trace"])
def test_trace_survives_a_crash(command, prog_file, tmp_path, capsys,
                                monkeypatch):
    """A run that faults still leaves its trace, and leaves tracing
    disarmed."""
    from repro import obs
    from repro.bench import pipeline
    from repro.interp.errors import GuestFault
    from repro.obs import schema

    def fault(self, **kwargs):
        raise GuestFault("injected fault")

    monkeypatch.setattr(pipeline.PreparedProgram, "execute", fault)
    argv = [command, prog_file, "--args", "24", "--workers", "2"]
    argv += (["--trace", "--trace-out", str(tmp_path / "prog")]
             if command == "run"
             else ["--out-dir", str(tmp_path)])
    with pytest.raises(GuestFault):
        main(argv)
    capsys.readouterr()
    jsonl = tmp_path / "prog.trace.jsonl"
    assert schema.validate_jsonl(str(jsonl))["errors"] == []
    assert obs.enabled() is False


def test_importing_the_cli_loads_no_other_repro_module():
    """`repro serve` starts through this module: its import stays cheap."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro.__main__; print(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "['repro', 'repro.__main__']"


class TestAdaptFlag:
    def test_run_adapt_prints_summary(self, prog_file, capsys, monkeypatch,
                                      tmp_path):
        from repro.adapt.policy import ADAPT_DIR_ENV

        monkeypatch.setenv(ADAPT_DIR_ENV, str(tmp_path))
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--adapt", "--misspec-period", "5",
                   "--misspec-burst", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adapt:" in out
        assert "epoch " in out and "grows=" in out and "warm=no" in out
        assert "output matches sequential: True" in out

    def test_run_no_adapt_is_silent(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--no-adapt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adapt:" not in out

    def test_env_var_enables_adapt(self, prog_file, capsys, monkeypatch,
                                   tmp_path):
        from repro.adapt import ADAPT_ENV
        from repro.adapt.policy import ADAPT_DIR_ENV

        monkeypatch.setenv(ADAPT_ENV, "1")
        monkeypatch.setenv(ADAPT_DIR_ENV, str(tmp_path))
        rc = main(["run", prog_file, "--args", "24", "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "adapt:" in out


class TestPoolBackendCLI:
    """The team-size flag and env vars documented in docs/BACKENDS.md,
    driven through the real CLI."""

    def test_run_processes_two(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--processes", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend:          pool" in out
        assert "output matches sequential: True" in out

    def test_backend_flags_are_gone(self, prog_file, capsys):
        """``--processes`` replaced the ``--backend``/``--pool-workers``
        pair: both are unrecognized, so ``--backend process`` gets the
        ordinary usage error too."""
        for flags in (["--backend", "pool"], ["--backend", "process"],
                      ["--pool-workers", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", prog_file, "--args", "24", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_processes_fewer_than_workers(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "24", "--workers", "4",
                   "--processes", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output matches sequential: True" in out

    def test_processes_capped_at_workers(self, prog_file, capsys):
        """One worker is the parent alone, whatever P asks for: it runs
        and reports as the simulated reference."""
        rc = main(["run", prog_file, "--args", "24", "--workers", "1",
                   "--processes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "backend:          simulated" in out

    def test_processes_zero_rejected(self, prog_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", prog_file, "--args", "24", "--processes", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_removed_ring_size_variable_is_ignored(self, prog_file, capsys,
                                                   monkeypatch):
        """The pool has no shared-memory ring to size any more: the old
        variable, even malformed, changes nothing."""
        monkeypatch.setenv("REPRO_POOL_RING_KB", "banana")
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--processes", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "output matches sequential: True" in out

    def test_trace_backend_pool_emits_artifacts(self, prog_file, tmp_path,
                                                capsys):
        rc = main(["trace", prog_file, "--args", "24", "--workers", "2",
                   "--processes", "2", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pool backend" in out
        assert (tmp_path / "prog.trace.jsonl").is_file()
        assert (tmp_path / "prog.chrome.json").is_file()


class TestBaselines:
    def test_reports_all_baselines(self, prog_file, capsys):
        rc = main(["baselines", prog_file, "--args", "24",
                   "--workers", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DOALL-only" in out
        assert "LRPD" in out
        assert "dependence speculation" in out


class TestTrace:
    def test_trace_source_file_emits_artifacts(self, prog_file, tmp_path,
                                               capsys):
        out_dir = tmp_path / "traces"
        rc = main(["trace", prog_file, "--args", "24", "--workers", "2",
                   "--out-dir", str(out_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "speedup" in out
        assert "pipeline.prepare" in out       # span summary table
        assert "runtime.checkpoints" in out    # metrics table
        jsonl = out_dir / "prog.trace.jsonl"
        chrome = out_dir / "prog.chrome.json"
        assert jsonl.is_file() and chrome.is_file()

        from repro.obs import schema
        assert schema.validate_jsonl(str(jsonl))["errors"] == []
        assert schema.validate_chrome(str(chrome))["errors"] == []

    def test_trace_artifacts_cover_phases_and_simulated_lanes(
            self, prog_file, tmp_path, capsys):
        import json

        from repro.obs.trace import WORKER_PID_BASE

        rc = main(["trace", prog_file, "--args", "24", "--workers", "2",
                   "--misspec-period", "9", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert rc == 0
        events = [json.loads(line) for line in
                  (tmp_path / "prog.trace.jsonl").read_text().splitlines()]
        spans = {e["name"] for e in events if e["kind"] == "span"}
        assert {"pipeline.compile", "pipeline.classify", "pipeline.transform",
                "pipeline.prepare", "pipeline.execute"} <= spans
        instants = {e["name"] for e in events if e["kind"] == "instant"}
        assert "runtime.checkpoint" in instants
        assert "runtime.misspec" in instants
        chrome = json.loads((tmp_path / "prog.chrome.json").read_text())
        pids = {e["pid"] for e in chrome["traceEvents"]}
        # Wall clock, simulated timeline and one lane per worker.
        assert pids == {1, 2} | {WORKER_PID_BASE + w for w in range(2)}

    def test_trace_unknown_target_fails(self, capsys):
        rc = main(["trace", "no-such-workload"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "neither a workload" in err

    def test_tracing_disabled_after_command(self, prog_file, tmp_path,
                                            capsys):
        from repro.obs import TRACER

        main(["trace", prog_file, "--args", "24", "--workers", "2",
              "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert not TRACER.enabled


class TestObsFlags:
    def test_run_trace_flag(self, prog_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace:" in out
        assert (tmp_path / "prog.trace.jsonl").is_file()
        assert (tmp_path / "prog.chrome.json").is_file()

    def test_run_trace_out_prefix(self, prog_file, tmp_path, capsys):
        prefix = tmp_path / "deep" / "mytrace"
        rc = main(["run", prog_file, "--args", "24", "--workers", "2",
                   "--trace-out", str(prefix)])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "deep" / "mytrace.trace.jsonl").is_file()

    def test_analyze_metrics_flag(self, prog_file, capsys):
        rc = main(["analyze", prog_file, "--args", "24", "--metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "classify.sites.private" in out


class TestWorkloads:
    def test_lists_five(self, capsys):
        rc = main(["workloads"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("alvinn", "dijkstra", "blackscholes", "swaptions",
                     "enc_md5"):
            assert name in out


class TestStatusEndpoint:
    def test_run_with_status_port_serves_and_stops(self, prog_file, capsys):
        rc = main(["run", prog_file, "--args", "8", "--status-port", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: http://127.0.0.1:" in out
        assert "/metrics" in out

    def test_status_port_arms_observability(self, prog_file, capsys,
                                            monkeypatch):
        from repro import obs

        seen = {}
        orig = obs.METRICS.snapshot

        def spy_execute(func):
            def wrapper(*a, **kw):
                result = func(*a, **kw)
                seen["enabled"] = obs.enabled()
                seen["epochs"] = orig().get("executor.epochs")
                return result
            return wrapper

        from repro.bench import pipeline

        monkeypatch.setattr(pipeline.PreparedProgram, "execute",
                            spy_execute(pipeline.PreparedProgram.execute))
        rc = main(["run", prog_file, "--args", "8", "--status-port", "0"])
        assert rc == 0
        assert seen["enabled"] is True
        assert seen["epochs"]["value"] > 0
        assert obs.enabled() is False  # disarmed on the way out

    def test_env_port_honoured(self, prog_file, capsys, monkeypatch):
        from repro.obs.server import STATUS_PORT_ENV

        monkeypatch.setenv(STATUS_PORT_ENV, "0")
        rc = main(["run", prog_file, "--args", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: http://127.0.0.1:" in out

    def test_malformed_env_port_exits_2(self, prog_file, capsys,
                                        monkeypatch):
        from repro.obs.server import STATUS_PORT_ENV

        monkeypatch.setenv(STATUS_PORT_ENV, "not-a-port")
        with pytest.raises(SystemExit) as exc:
            main(["run", prog_file, "--args", "8"])
        assert exc.value.code == 2
        assert "not an integer" in capsys.readouterr().err


class TestPerf:
    def test_shadow_rows_no_file_no_port(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.obs.server import STATUS_PORT_ENV, StatusServer

        # `perf` has no --status-port: with the env var set it must not
        # bind the port an observed run already holds.
        monkeypatch.setenv(STATUS_PORT_ENV, "1")
        monkeypatch.setattr(StatusServer, "start", lambda self: pytest.fail(
            "perf started a status server"))
        monkeypatch.chdir(tmp_path)
        rc = main(["perf"])
        out = capsys.readouterr().out
        assert rc == 0
        rows = [line.split()[1] for line in out.splitlines()
                if line.startswith("shadow ")]
        assert rows == ["default", "stress"]
        assert "gate ok" in out
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_no_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        options = [line.split()[0] for line in out.splitlines()
                   if line.lstrip().startswith("-")]
        assert options == ["-h,"]

    @pytest.mark.parametrize("argv, message", [
        (["bench-check"], "invalid choice: 'bench-check'"),
        (["perf", "--quick"], "unrecognized arguments: --quick"),
    ])
    def test_removed_command_and_options_exit_2(self, argv, message,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
