"""Misspeculation forensics: flight recorder, root-cause explain engine,
and HTML run reports.

The flight recorder must be a pure observer (dumps only on
misspeculation or crash, nothing when clean), the explain engine must
attribute every misspeculation to its static site/object/heap
identically at every team size, and the artifacts must round-trip through
their on-disk JSONL/JSON formats and the schema validator.
"""

import json
import subprocess
import sys

import pytest

from repro.adapt import SpeculationController
from repro.bench.pipeline import prepare
from repro.classify.heaps import HeapKind
from repro.forensics import (
    FlightRecorder,
    explain_snapshot,
    load_dump,
    render_html,
    render_text,
    summarize_context,
    write_dump,
)
from repro.interp.errors import Misspeculation
from repro.obs import schema
from repro.parallel.backend import make_executor
from repro.parallel.backend import DOALLExecutor
from repro.runtime.shadow import timestamp_for
from repro.workloads import ALL_WORKLOADS

from helpers import prepared_counter_program

SRC = """
int scratch[8];
int out[64];
int main(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < 8; j++) { scratch[j] = i + j; }
        int acc = 0;
        for (int j = 0; j < 8; j++) { acc = acc + scratch[j]; }
        out[i] = acc;
    }
    printf("%d\\n", out[0]);
    return 0;
}
"""


class TestFlightRecorder:
    def test_ring_drops_oldest_and_counts(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("epoch", outcome="commit", index=i)
        assert len(rec.events) == 4
        assert rec.dropped == 6
        assert [e["index"] for e in rec.events] == [6, 7, 8, 9]
        # seq numbers keep counting across drops.
        assert [e["seq"] for e in rec.events] == [6, 7, 8, 9]

    def test_snapshot_shape(self):
        rec = FlightRecorder(capacity=8)
        rec.set_metadata(backend="simulated", workload="t")
        rec.record("misspec", kind="privacy", iteration=3, detail="d",
                   injected=False, context=None)
        rec.note_site_accesses({"global:a": 16}, {"global:a": 4})
        snap = rec.snapshot(heap_map=[], site_heaps={"global:a": HeapKind.PRIVATE},
                            crash=False)
        assert snap["meta"]["backend"] == "simulated"
        assert snap["meta"]["events_recorded"] == 1
        assert snap["meta"]["crash"] is False
        assert snap["verdicts"] == {"global:a": "private"}
        assert snap["site_summary"]["global:a"]["written_bytes"] == 16
        assert snap["site_summary"]["global:a"]["epochs"] == 1

    def test_site_access_accumulation(self):
        rec = FlightRecorder()
        rec.note_site_accesses({"s": 8}, {})
        rec.note_site_accesses({"s": 8}, {"s": 2})
        totals = rec.site_totals["s"]
        assert totals["written_bytes"] == 16
        assert totals["read_live_in_bytes"] == 2
        assert totals["epochs"] == 2


def _run_with_flight(program, processes, flight_dir, **kwargs):
    executor = make_executor(program.module, program.plan,
                             workers=kwargs.pop("workers", 4),
                             processes=processes,
                             flight_dir=str(flight_dir), **kwargs)
    result = executor.run(program.entry, program.ref_args)
    return executor, result


class TestDumpLifecycle:
    def test_clean_run_writes_nothing(self, tmp_path):
        program = prepare(SRC, "clean", args=(24,))
        executor, _ = _run_with_flight(program, 1, tmp_path)
        assert executor.flight_dump_path is None
        assert list(tmp_path.iterdir()) == []

    def test_misspec_run_dumps_and_validates(self, tmp_path):
        program = prepare(SRC, "dumped", args=(24,))
        executor, _ = _run_with_flight(program, 1, tmp_path,
                                       misspec_period=7, misspec_burst=14)
        path = tmp_path / "dumped.simulated.flight.jsonl"
        assert executor.flight_dump_path == str(path)
        report = schema.validate_flight(str(path))
        assert report["errors"] == []
        assert report["kinds"]["meta"] == 1
        assert report["kinds"]["event"] >= 2

    def test_dump_round_trips_to_same_diagnosis(self, tmp_path):
        program = prepare(SRC, "rt", args=(24,))
        executor, _ = _run_with_flight(program, 1, tmp_path,
                                       misspec_period=7, misspec_burst=14)
        live = executor.flight_snapshot()
        loaded = load_dump(executor.flight_dump_path)
        assert loaded["verdicts"] == live["verdicts"]
        assert loaded["heap_map"] == live["heap_map"]
        assert [d.to_dict() for d in explain_snapshot(loaded)] == \
            [d.to_dict() for d in explain_snapshot(live)]

    def test_crash_dump_marked(self, tmp_path, monkeypatch):
        program = prepare(SRC, "crashy", args=(24,))
        executor = make_executor(program.module, program.plan,
                                 workers=4, flight_dir=str(tmp_path))

        def boom(entry, args):
            executor.runtime.recorder.record("epoch", outcome="commit")
            raise RuntimeError("host bug")

        monkeypatch.setattr(executor, "_run_guest", boom)
        with pytest.raises(RuntimeError):
            executor.run(program.entry, program.ref_args)
        loaded = load_dump(executor.flight_dump_path)
        assert loaded["meta"]["crash"] is True
        assert schema.validate_flight(executor.flight_dump_path)["errors"] == []

    def test_env_var_names_dump_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        program = prepare(SRC, "envdir", args=(24,))
        result = program.execute(workers=4, misspec_period=9,
                                 misspec_burst=9)
        assert result.flight_dump == \
            str(tmp_path / "envdir.simulated.flight.jsonl")


class TestRunMetadata:
    def test_snapshot_meta_identifies_run(self):
        import repro

        program = prepare(SRC, "meta", args=(24,))
        result = program.execute(workers=3)
        meta = result.forensics["meta"]
        assert meta["repro_version"] == repro.__version__
        assert meta["workload"] == "meta"
        assert meta["fingerprint"] == program.fingerprint
        assert meta["backend"] == "simulated"
        assert meta["workers"] == 3
        assert meta["adapt"] is False
        assert isinstance(meta["argv"], list)


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_explain_backend_parity(workload, tmp_path):
    """Under injected misspeculation bursts, the parent alone and a
    team of four processes must produce bit-identical diagnoses, each
    naming the injected static site; the dump is named by the label."""
    per_backend = {}
    for backend, processes in (("simulated", 1), ("pool", 4)):
        program = prepare(workload.source, workload.name,
                          args=workload.train, ref_args=workload.train)
        _, result = _run_with_flight(program, processes, tmp_path / backend,
                                     misspec_period=6, misspec_burst=18)
        dump = tmp_path / backend / \
            f"{workload.name}.{backend}.flight.jsonl"
        assert dump.is_file()
        per_backend[backend] = [d.to_dict()
                                for d in explain_snapshot(load_dump(dump))]
    sim, pool = per_backend["simulated"], per_backend["pool"]
    assert sim, f"{workload.name}: injection produced no diagnoses"
    assert sim == pool
    for d in sim:
        assert d["injected"] is True
        assert d["site"], f"{workload.name}: diagnosis without a site"
        assert d["heap_tag"] == int(HeapKind.PRIVATE)
        assert d["heap"] == "private"


class TestGenuineConflictForensics:
    """Real (non-injected) shadow-memory conflicts carry full context:
    iteration pair, shadow-code transition, named object."""

    @pytest.fixture
    def runtime(self):
        prog = prepare(SRC, "forensic_rt", args=(16,))
        executor = DOALLExecutor(prog.module, prog.plan, workers=2)
        rt = executor.runtime
        rt.begin_invocation(2)
        yield rt
        if rt.speculating:
            rt.end_invocation()

    def test_old_write_read_context(self, runtime):
        """Phase 1: reading a byte whose shadow code says an earlier
        epoch's iteration wrote it."""
        w0 = runtime.workers[0]
        w0.shadow.on_write(0, 4, timestamp_for(0, 0), 0)
        runtime.checkpoint(0, 2)
        with pytest.raises(Misspeculation) as ei:
            w0.shadow.on_read(0, 4, timestamp_for(0, 0), 2)
        exc = runtime.capture_conflict_context(w0, ei.value)
        ctx = exc.context
        assert ctx is not None
        assert ctx["heap_tag"] == int(HeapKind.PRIVATE)
        assert ctx["object"] is not None
        assert ctx["shadow_code"] is not None
        runtime.record_misspeculation(exc)
        snap = runtime.recorder.snapshot(heap_map=[], site_heaps={},
                                         crash=False)
        (diag,) = explain_snapshot(snap)
        assert diag.kind == "privacy"
        assert diag.transition is not None
        assert "read" in diag.transition

    def test_cross_worker_flow_context(self, runtime):
        """Phase 2: checkpoint-time cross-worker flow names both the
        writing and the reading worker."""
        w0, w1 = runtime.workers
        w1.shadow.on_write(0, 4, timestamp_for(1, 0), 1)
        w0.shadow.on_read(0, 4, timestamp_for(0, 0), 0)
        with pytest.raises(Misspeculation) as ei:
            runtime.checkpoint(0, 2)
        ctx = ei.value.context
        assert ctx is not None
        assert ctx["writer_wid"] == 1
        assert ctx["reader_wid"] == 0
        assert ctx["writer_iteration"] == 1
        line = summarize_context(ei.value.kind, ei.value.detail, ctx)
        assert "worker 1 wrote" in line
        assert "worker 0 read" in line

    def test_injection_never_feeds_demotion(self):
        """Injected misspeculations carry context for the diagnosis but
        must not strike (and eventually demote) a real site."""
        program = prepared_counter_program(32)
        controller = SpeculationController(loop=str(program.plan.ref),
                                           workload="counter")
        executor = make_executor(program.module, program.plan,
                                 workers=4, misspec_period=5,
                                 controller=controller)
        executor.run(program.entry, program.ref_args)
        assert controller.site_strikes == {}


class TestControllerDiagnosis:
    def test_demotion_carries_diagnosis(self):
        c = SpeculationController(loop="main:1", workload="t")
        line = "privacy at private+3 [site global:a, heap private]: x"
        for i in range(c.config.demote_after):
            c.note_misspec("privacy", i, "global:a", line)
        summary = c.summary()
        assert "global:a" in summary["demotions"]
        assert summary["demotion_diagnoses"]["global:a"] == line

    def test_note_misspec_diagnosis_optional(self):
        c = SpeculationController(loop="main:1", workload="t")
        c.note_misspec("privacy", 0, "global:a")  # legacy 3-arg call
        assert c.site_strikes["global:a"] == 1


class TestSchemaMalformed:
    def _flight_errors(self, tmp_path, lines):
        p = tmp_path / "f.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return schema.validate_flight(str(p))["errors"]

    META = json.dumps({"kind": "meta", "flight_format": 1, "crash": False})

    def test_first_record_must_be_meta(self, tmp_path):
        errs = self._flight_errors(
            tmp_path, [json.dumps({"kind": "verdicts", "site_heaps": {}}),
                       self.META])
        assert any("first record" in e for e in errs)

    def test_unknown_record_kind(self, tmp_path):
        errs = self._flight_errors(
            tmp_path, [self.META, json.dumps({"kind": "wat"})])
        assert any("unknown record kind" in e for e in errs)

    def test_unknown_event_type_and_missing_seq(self, tmp_path):
        errs = self._flight_errors(
            tmp_path,
            [self.META,
             json.dumps({"kind": "event", "data": {"event": "nope"}})])
        assert any("unknown event type" in e for e in errs)
        assert any("seq" in e for e in errs)

    def test_misspec_event_requires_kind_and_iteration(self, tmp_path):
        errs = self._flight_errors(
            tmp_path,
            [self.META,
             json.dumps({"kind": "event",
                         "data": {"event": "misspec", "seq": 0}})])
        assert any("missing kind" in e for e in errs)
        assert any("missing iteration" in e for e in errs)

    def test_invalid_json_and_empty(self, tmp_path):
        errs = self._flight_errors(tmp_path, [self.META, "{nope"])
        assert any("invalid JSON" in e for e in errs)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert any("no records" in e
                   for e in schema.validate_flight(str(empty))["errors"])

    def test_load_dump_raises_with_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(self.META + "\n{broken\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_dump(p)

    def test_explain_payload_errors(self, tmp_path):
        p = tmp_path / "e.json"
        p.write_text(json.dumps({
            "explain_format": "one", "diagnoses": [
                {"kind": 3, "iteration": "x", "injected": "y",
                 "site": 7, "heap_tag": "z"}]}))
        errs = schema.validate_explain(str(p))["errors"]
        assert any("explain_format" in e for e in errs)
        assert any("meta" in e for e in errs)
        assert sum("diagnoses[0]" in e for e in errs) >= 4

    def test_explain_payload_clean(self, tmp_path):
        program = prepare(SRC, "okjson", args=(24,))
        result = program.execute(workers=4, misspec_period=9,
                                 misspec_burst=9)
        from repro.forensics.explain import to_json

        snap = result.forensics
        payload = to_json(snap, explain_snapshot(snap))
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(payload))
        report = schema.validate_explain(str(p))
        assert report["errors"] == []
        assert report["diagnoses"] >= 1


class TestHtmlReport:
    def test_report_is_self_contained(self):
        program = prepare(SRC, "rep", args=(24,))
        result = program.execute(workers=4, misspec_period=7,
                                 misspec_burst=14)
        snap = result.forensics
        html_doc = render_html(snap, explain_snapshot(snap))
        assert html_doc.startswith("<!DOCTYPE html>")
        # No external assets: everything inline.
        assert "http://" not in html_doc and "https://" not in html_doc
        assert "<script src" not in html_doc and "<link" not in html_doc
        for section in ("Logical heap address space", "Epoch outcomes",
                        "Conflicts", "Controller decisions"):
            assert section in html_doc
        assert "private" in html_doc

    def test_clean_report_renders(self):
        program = prepare(SRC, "repclean", args=(24,))
        result = program.execute(workers=4)
        html_doc = render_html(result.forensics,
                               explain_snapshot(result.forensics))
        assert "clean run" in html_doc

    def test_render_text_clean(self):
        program = prepare(SRC, "textclean", args=(24,))
        result = program.execute(workers=4)
        text = render_text(result.forensics,
                           explain_snapshot(result.forensics))
        assert "nothing to explain" in text


class TestTracerSink:
    def test_partial_trace_survives_unclean_exit(self, tmp_path):
        """An unhandled crash must still leave the streamed JSONL on
        disk (flushed by the atexit hook)."""
        out = tmp_path / "partial.trace.jsonl"
        code = (
            "from repro import obs\n"
            "obs.enable()\n"
            f"obs.TRACER.open_sink({str(out)!r})\n"
            "obs.TRACER.instant('x.one', cat='t')\n"
            "obs.TRACER.instant('x.two', cat='t')\n"
            "raise RuntimeError('crash before write_jsonl')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              cwd="/root/repo/src")
        assert proc.returncode != 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        kinds = [l["kind"] for l in lines]
        assert kinds[0] == "meta"
        assert kinds.count("instant") == 2

    def test_streamed_then_finalised(self, tmp_path):
        from repro import obs

        out = tmp_path / "t.trace.jsonl"
        obs.enable()
        try:
            obs.TRACER.set_run_metadata(workload="sinktest")
            obs.TRACER.open_sink(out)
            obs.TRACER.instant("x.mid", cat="t")
            # Streamed immediately: header + the event, no close needed.
            obs.TRACER.close_sink()
            streamed = [json.loads(l) for l in out.read_text().splitlines()]
            assert streamed[0]["attrs"]["events"] == -1
            assert streamed[0]["attrs"]["run"]["workload"] == "sinktest"
            n = obs.TRACER.write_jsonl(out)
            final = [json.loads(l) for l in out.read_text().splitlines()]
            assert final[0]["attrs"]["events"] == n
        finally:
            obs.disable()
        assert schema.validate_jsonl(str(out))["errors"] == []


class TestExplainCli:
    @pytest.fixture
    def prog_file(self, tmp_path):
        p = tmp_path / "prog.c"
        p.write_text(SRC)
        return str(p)

    def _main(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_explain_names_injected_site(self, prog_file, capsys):
        rc = self._main(["explain", prog_file, "--args", "24",
                         "--workers", "4", "--misspec-period", "7",
                         "--misspec-burst", "14"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "misspeculation(s) diagnosed" in out
        assert "site:" in out
        assert "heap:" in out

    def test_explain_clean_run(self, prog_file, capsys):
        rc = self._main(["explain", prog_file, "--args", "24",
                         "--workers", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nothing to explain" in out

    def test_explain_artifacts(self, prog_file, tmp_path, capsys):
        dump_dir = tmp_path / "fl"
        json_out = tmp_path / "d.json"
        html_out = tmp_path / "d.html"
        rc = self._main(["explain", prog_file, "--args", "24",
                         "--workers", "4", "--misspec-period", "7",
                         "--misspec-burst", "14",
                         "--flight-dir", str(dump_dir),
                         "--json", str(json_out),
                         "--report", str(html_out)])
        assert rc == 0
        dump = dump_dir / "prog.simulated.flight.jsonl"
        assert dump.is_file()
        assert schema.validate_flight(str(dump))["errors"] == []
        assert schema.validate_explain(str(json_out))["errors"] == []
        assert html_out.read_text().startswith("<!DOCTYPE html>")

    def test_explain_unknown_target(self, capsys):
        rc = self._main(["explain", "not-a-workload"])
        assert rc == 2
        assert "neither a workload" in capsys.readouterr().err

    def test_run_report_flag(self, prog_file, tmp_path, capsys):
        html_out = tmp_path / "run.html"
        rc = self._main(["run", prog_file, "--args", "24", "--workers", "4",
                         "--report", str(html_out)])
        assert rc == 0
        assert "report:" in capsys.readouterr().out
        assert "Epoch outcomes" in html_out.read_text()

    def test_schema_cli_flight_mode(self, prog_file, tmp_path, capsys):
        dump_dir = tmp_path / "fl"
        self._main(["explain", prog_file, "--args", "24", "--workers", "4",
                    "--misspec-period", "7", "--misspec-burst", "14",
                    "--flight-dir", str(dump_dir)])
        capsys.readouterr()
        dump = dump_dir / "prog.simulated.flight.jsonl"
        rc = schema.main([str(dump), "--flight"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "record(s) valid" in out
