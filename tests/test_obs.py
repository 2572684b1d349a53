"""The observability layer: tracer, metrics registry, schema checks,
logging config, and end-to-end pipeline instrumentation."""

import json
import logging

import pytest

from repro import obs
from repro.obs import log as obs_log
from repro.obs import schema
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    SIM_PID,
    TRACER,
    WORKER_PID_BASE,
    Tracer,
    timeline_to_chrome,
)
from repro.parallel.timeline import Timeline


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and clear."""
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()


class TestTracer:
    def test_disabled_records_nothing(self):
        t = Tracer()
        with t.span("work", cat="test") as sp:
            sp.set(x=1)
        t.instant("evt")
        assert t.events == []

    def test_span_records_duration_and_attrs(self):
        t = Tracer()
        t.enable()
        with t.span("work", cat="test", a=1) as sp:
            sp.set(b=2)
        (ev,) = t.events
        assert ev["kind"] == "span"
        assert ev["name"] == "work"
        assert ev["dur_us"] >= 0
        assert ev["attrs"]["span_id"] >= 1  # auto-assigned, process-unique
        assert {k: v for k, v in ev["attrs"].items()
                if k != "span_id"} == {"a": 1, "b": 2}

    def test_span_end_attrs_and_idempotence(self):
        t = Tracer()
        t.enable()
        sp = t.span("explicit", cat="test")
        sp.end(result="ok")
        sp.end(result="twice")  # second end is a no-op
        (ev,) = t.events
        assert {k: v for k, v in ev["attrs"].items()
                if k != "span_id"} == {"result": "ok"}

    def test_span_records_exception_marker(self):
        t = Tracer()
        t.enable()
        with pytest.raises(ValueError):
            with t.span("boom", cat="test"):
                raise ValueError("x")
        (ev,) = t.events
        assert ev["attrs"]["error"] == "ValueError"

    def test_instants_and_monotonic_timestamps(self):
        t = Tracer()
        t.enable()
        t.instant("a")
        t.instant("b", cat="runtime", iteration=3)
        a, b = t.events
        assert a["ts_us"] <= b["ts_us"]
        assert b["attrs"]["iteration"] == 3

    def test_enable_resets_epoch_and_events(self):
        t = Tracer()
        t.enable()
        t.instant("old")
        t.enable()
        assert t.events == []

    def test_jsonl_round_trip(self, tmp_path):
        t = Tracer()
        t.enable()
        with t.span("phase", cat="pipeline"):
            t.instant("tick")
        path = tmp_path / "t.jsonl"
        n = t.write_jsonl(path)
        assert n == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert {ln["kind"] for ln in lines[1:]} == {"span", "instant"}

    def test_chrome_export_shape(self):
        t = Tracer()
        t.enable()
        with t.span("phase", cat="pipeline"):
            pass
        t.instant("tick", tid=2)
        trace = t.chrome_trace()
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "X" in phases and "i" in phases and "M" in phases
        x = next(e for e in events if e["ph"] == "X")
        assert x["name"] == "phase" and "dur" in x

    def test_render_summary_aggregates(self):
        t = Tracer()
        t.enable()
        for _ in range(3):
            with t.span("phase.a", cat="pipeline"):
                pass
        text = t.render_summary()
        assert "phase.a" in text
        assert "3" in text


class TestWorkerTraceProcesses:
    """Events shipped back by forked pool workers are re-homed to one
    trace process per worker (pid ``WORKER_PID_BASE + wid``)."""

    def test_absorb_worker_events_rehomes_pids(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("backend.worker_epoch", cat="backend", tid=3):
                pass
            shipped = [dict(ev) for ev in tracer.events]
            tracer.absorb_worker_events(2, shipped)
            absorbed = [ev for ev in tracer.events
                        if ev.get("pid", None) == WORKER_PID_BASE + 2]
            assert absorbed, "worker events must land in the worker pid"
        finally:
            tracer.disable()

    def test_absorb_noop_when_disabled(self):
        tracer = Tracer()
        before = len(tracer.events)
        tracer.absorb_worker_events(0, [{"name": "x", "ph": "X"}])
        assert len(tracer.events) == before

    def test_chrome_export_names_worker_processes(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("backend.worker_epoch", cat="backend", tid=1):
                pass
            tracer.absorb_worker_events(
                0, [dict(ev) for ev in tracer.events])
            events = tracer.chrome_events()
        finally:
            tracer.disable()
        names = {
            (ev["pid"], ev["args"]["name"])
            for ev in events
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert (WORKER_PID_BASE, "worker process 0") in names
        # The export stays valid JSON.
        json.dumps(events)

    def test_double_digit_wid_pid_assignment(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("backend.worker_epoch", cat="backend"):
                pass
            shipped = [dict(ev) for ev in tracer.events]
            tracer.absorb_worker_events(12, shipped)
            pids = {ev["pid"] for ev in tracer.events
                    if ev["name"] == "backend.worker_epoch"
                    and ev is not tracer.events[0]}
        finally:
            tracer.disable()
        assert WORKER_PID_BASE + 12 in pids

    def test_absorbed_events_preserve_order(self):
        tracer = Tracer()
        tracer.enable()
        try:
            shipped = []
            for i in range(3):
                with tracer.span(f"w{i}", cat="backend"):
                    pass
            shipped = [dict(ev) for ev in tracer.events]
            tracer.reset()
            tracer.enable()
            tracer.absorb_worker_events(0, shipped)
            names = [ev["name"] for ev in tracer.events]
        finally:
            tracer.disable()
        assert names == ["w0", "w1", "w2"]


class TestCapture:
    """A worker slice run in-process records its telemetry apart, as a
    forked worker does, for the parent to absorb under the worker's id."""

    def test_tracer_capture_keeps_events_out_of_stream_and_sink(
            self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        sink = tmp_path / "t.jsonl"
        tracer.open_sink(sink)
        try:
            with tracer.span("parent.before"):
                pass
            with tracer.capture() as captured:
                with tracer.span("backend.worker_epoch", cat="backend"):
                    pass
                tracer.instant("inside")
            assert [ev["name"] for ev in captured] == [
                "backend.worker_epoch", "inside"]
            assert [ev["name"] for ev in tracer.events] == ["parent.before"]
            tracer.absorb_worker_events(0, captured)
            tracer.close_sink()
        finally:
            tracer.disable()
        streamed = [json.loads(line)
                    for line in sink.read_text().splitlines()[1:]]
        assert [(ev["name"], ev["pid"]) for ev in streamed] == [
            ("parent.before", 1),
            ("backend.worker_epoch", WORKER_PID_BASE),
            ("inside", WORKER_PID_BASE)]

    def test_registry_capture_records_apart_readers_see_outer(self):
        reg = MetricsRegistry()
        reg.counter("runtime.checks").inc(3)
        with reg.capture() as inner:
            reg.counter("runtime.checks").inc(5)
            reg.counter("epoch.slices").inc()
            assert reg.snapshot() == {
                "runtime.checks": {"type": "counter", "value": 3}}
        assert inner.snapshot()["runtime.checks"]["value"] == 5
        reg.merge(inner.dump(), prefix="worker.0.")
        reg.counter("runtime.checks").inc()
        snap = reg.snapshot()
        assert snap["runtime.checks"]["value"] == 4
        assert snap["worker.0.runtime.checks"]["value"] == 5
        assert snap["worker.0.epoch.slices"]["value"] == 1


class TestTimelineConverter:
    def test_workers_become_thread_lanes(self):
        tl = Timeline()
        tl.add("spawn", None, 0, 10)
        tl.add("iteration", 0, 10, 40, "i=0")
        tl.add("iteration", 1, 10, 35, "i=1")
        tl.add("checkpoint", None, 40, 45)
        events = timeline_to_chrome(tl, cycles_per_us=10.0)
        xs = [e for e in events if e.get("ph") == "X"]
        assert len(xs) == 4
        iter0 = next(e for e in xs if e["args"].get("label") == "i=0")
        assert iter0["tid"] == 1 and iter0["pid"] == SIM_PID
        assert iter0["ts"] == 1.0 and iter0["dur"] == 3.0
        ckpt = next(e for e in xs if e["args"]["kind"] == "checkpoint")
        assert ckpt["tid"] == 0

    def test_malformed_events_clamped(self):
        tl = Timeline()
        tl.add("iteration", 0, -5, -1)
        events = timeline_to_chrome(tl)
        x = next(e for e in events if e.get("ph") == "X")
        assert x["ts"] >= 0 and x["dur"] >= 0

    def test_merged_into_chrome_trace(self):
        tl = Timeline()
        tl.add("iteration", 0, 0, 10)
        t = Tracer()
        t.enable()
        t.instant("tick")
        trace = t.chrome_trace(timeline=tl)
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert SIM_PID in pids and 1 in pids


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        for v in (1, 2, 3, 4):
            reg.histogram("h").observe(v)
        snap = reg.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 2.5
        assert snap["h"]["count"] == 4
        assert snap["h"]["mean"] == 2.5
        assert snap["h"]["min"] == 1 and snap["h"]["max"] == 4

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in range(101):
            h.observe(v)
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95

    def test_histogram_empty(self):
        h = MetricsRegistry().histogram("h")
        assert h.mean is None
        for p in (0, 50, 95, 100):
            assert h.percentile(p) is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["mean"] is None
        assert snap["p50"] is None and snap["p95"] is None

    def test_histogram_single_sample(self):
        h = MetricsRegistry().histogram("h")
        h.observe(42.0)
        # Every percentile of a one-sample distribution is that sample.
        for p in (0, 1, 50, 95, 99, 100):
            assert h.percentile(p) == 42.0
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == snap["mean"] == 42.0

    def test_histogram_percentile_bounds_clamped(self):
        h = MetricsRegistry().histogram("h")
        for v in (10, 20, 30):
            h.observe(v)
        # Out-of-range p clamps to the extreme samples, never indexes
        # outside the reservoir.
        assert h.percentile(-50) == 10
        assert h.percentile(0) == 10
        assert h.percentile(100) == 30
        assert h.percentile(500) == 30

    def test_histogram_beyond_reservoir_cap(self):
        from repro.obs.metrics import HISTOGRAM_SAMPLE_CAP

        h = MetricsRegistry().histogram("h")
        n = HISTOGRAM_SAMPLE_CAP + 500
        for v in range(n):
            h.observe(float(v))
        # Aggregates stay exact past the cap; the reservoir does not.
        assert h.count == n
        assert len(h.samples) == HISTOGRAM_SAMPLE_CAP
        assert h.min == 0.0 and h.max == float(n - 1)
        assert h.mean == sum(range(n)) / n
        # The reservoir samples the whole stream, not the first CAP
        # observations: late values must be represented.
        assert max(h.samples) >= float(HISTOGRAM_SAMPLE_CAP)
        # Percentiles become estimates over the reservoir: still
        # defined, still ordered, and bounded by the observed range.
        p50, p95 = h.percentile(50), h.percentile(95)
        assert p50 is not None and p95 is not None
        assert 0.0 <= p50 <= p95 <= float(n - 1)
        # A uniform reservoir puts the median estimate near the true
        # median (n/2), which first-N capping could never achieve.
        assert abs(p50 - n / 2) < n * 0.15

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_render_table(self):
        reg = MetricsRegistry()
        reg.counter("runtime.checks").inc(7)
        text = reg.render_table()
        assert "runtime.checks" in text and "7" in text
        assert MetricsRegistry().render_table() == "(no metrics recorded)"


class TestSchema:
    def _write(self, tmp_path, lines):
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_valid_trace_passes(self, tmp_path):
        TRACER.enable()
        with TRACER.span("phase", cat="pipeline"):
            TRACER.instant("tick")
        path = tmp_path / "ok.jsonl"
        TRACER.write_jsonl(path)
        report = schema.validate_jsonl(str(path))
        assert report["errors"] == []
        assert report["events"] == 3

    def test_rejects_bad_events(self, tmp_path):
        path = self._write(tmp_path, [
            '{"kind": "span"}',
            'not json',
            '{"kind": "wormhole", "name": 3, "cat": "x", "ts_us": -1, '
            '"pid": 1, "tid": 0, "attrs": {}}',
        ])
        report = schema.validate_jsonl(path)
        msgs = "\n".join(report["errors"])
        assert "missing field" in msgs
        assert "invalid JSON" in msgs
        assert "unknown kind" in msgs
        assert "negative ts_us" in msgs

    def test_empty_file_fails(self, tmp_path):
        path = self._write(tmp_path, [""])
        report = schema.validate_jsonl(path)
        assert any("no events" in e for e in report["errors"])

    def test_chrome_validation(self, tmp_path):
        TRACER.enable()
        with TRACER.span("phase", cat="pipeline"):
            pass
        path = tmp_path / "c.json"
        TRACER.write_chrome(path)
        assert schema.validate_chrome(str(path))["errors"] == []
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z"}]}')
        assert schema.validate_chrome(str(bad))["errors"]

    def test_cli_entry(self, tmp_path, capsys):
        TRACER.enable()
        TRACER.instant("tick")
        path = tmp_path / "t.jsonl"
        TRACER.write_jsonl(path)
        assert schema.main([str(path)]) == 0
        assert "ok:" in capsys.readouterr().out
        bad = self._write(tmp_path, ['{"kind": "span"}'])
        assert schema.main([bad]) == 1


class TestLogging:
    def test_namespace(self):
        assert obs_log.get_logger("runtime").name == "repro.runtime"
        assert obs_log.get_logger("repro.executor").name == "repro.executor"

    def test_configure_from_env_levels(self):
        assert obs_log.configure_from_env(env="debug", force=True) \
            == logging.DEBUG
        assert obs_log.configure_from_env(env="off", force=True) is None
        assert obs_log.configure_from_env(env="", force=True) is None

    def test_unconfigured_logger_stays_silent(self, capsys):
        # The NullHandler on the repro root must defeat logging's
        # last-resort stderr handler.
        obs_log.get_logger("runtime").warning("quiet please")
        assert capsys.readouterr().err == ""


class TestPipelineInstrumentation:
    """End-to-end: the full pipeline under tracing emits phase spans,
    runtime instants, and metrics."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.bench.pipeline import prepare

        obs.enable()
        src = """
        int scratch[32];
        int out[32];
        int main(int n) {
            for (int i = 0; i < n; i++) {
                for (int j = 0; j < 32; j++) { scratch[j] = i + j; }
                int acc = 0;
                for (int j = 0; j < 32; j++) { acc = acc + scratch[j]; }
                out[i] = acc;
            }
            printf("%d\\n", out[3]);
            return 0;
        }
        """
        program = prepare(src, "obs_e2e", args=(16,), use_cache=False)
        result = program.execute(workers=4, misspec_period=7,
                                 record_timeline=True)
        events = list(TRACER.events)
        metrics = METRICS.snapshot()
        obs.disable()
        return program, result, events, metrics

    def test_phase_spans_present(self, traced_run):
        _, _, events, _ = traced_run
        spans = {e["name"] for e in events if e["kind"] == "span"}
        for phase in ("pipeline.compile", "pipeline.profile.time",
                      "pipeline.classify", "pipeline.transform",
                      "pipeline.prepare", "pipeline.execute",
                      "executor.invocation"):
            assert phase in spans, f"missing span {phase}"
        # The selected loop is the outermost one, whose profile the time
        # profile's run kept: no loop profile ran on its own.
        assert "pipeline.profile.loop" not in spans
        (profile_run,) = [e for e in events if e["kind"] == "span"
                          and e["name"] == "pipeline.profile.time"]
        assert profile_run["attrs"]["loops_profiled"] == 1
        assert profile_run["attrs"]["profiles_kept"] == 1

    def test_a_nested_candidate_runs_a_loop_profile_of_its_own(self):
        from repro.bench.pipeline import prepare

        # The outer loop carries acc and g: the inner one is selected,
        # and the one run never profiles it (the outer one is active).
        src = """
        int g[32];
        int main(int n) {
            long acc = 1;
            for (int r = 0; r < n; r++) {
                for (int i = 0; i < 32; i++) { g[i] = g[i] * 3 + r + i; }
                acc = acc * 7 + g[r % 32];
            }
            printf("%ld\\n", acc);
            return 0;
        }
        """
        obs.enable()
        program = prepare(src, "obs_nested", args=(6,), use_cache=False)
        events = list(TRACER.events)
        obs.disable()
        spans = [e for e in events if e["kind"] == "span"]
        assert [e["attrs"]["loop"] for e in spans
                if e["name"] == "pipeline.profile.loop"] == [
                    str(program.plan.ref)]
        (profile_run,) = [e for e in spans
                          if e["name"] == "pipeline.profile.time"]
        assert profile_run["attrs"]["profiles_kept"] == 1

    def test_runtime_instants_present(self, traced_run):
        _, result, events, _ = traced_run
        instants = [e for e in events if e["kind"] == "instant"]
        names = {e["name"] for e in instants}
        assert "runtime.checkpoint" in names
        assert "runtime.misspec" in names  # misspec_period=7 injected some
        assert "executor.recovery" in names
        ckpts = [e for e in instants if e["name"] == "runtime.checkpoint"]
        assert len(ckpts) == result.runtime_stats.checkpoints
        for e in ckpts:
            assert e["attrs"]["cycles"] > 0

    def test_invocation_span_has_cycle_dual(self, traced_run):
        _, result, events, _ = traced_run
        inv = next(e for e in events if e["kind"] == "span"
                   and e["name"] == "executor.invocation")
        assert inv["attrs"]["wall_cycles"] > 0
        assert inv["attrs"]["trips"] == 16

    def test_metrics_capture_runtime_counters(self, traced_run):
        _, result, events, metrics = traced_run
        stats = result.runtime_stats
        assert metrics["runtime.checkpoints"]["value"] == stats.checkpoints
        assert metrics["runtime.shadow.bytes_written"]["value"] \
            == stats.private_write_bytes
        assert metrics["runtime.misspec.injected"]["value"] \
            == stats.misspec_count() - stats.misspec_count(
                include_injected=False)
        assert metrics["classify.sites.private"]["value"] >= 1
        assert metrics["interp.ips.fast"]["count"] >= 1 \
            or metrics.get("interp.ips.step", {}).get("count", 0) >= 1

    def test_artifacts_validate_against_schema(self, traced_run, tmp_path):
        _, result, events, _ = traced_run
        t = Tracer()
        t.enable()
        t.events = list(events)
        jsonl = tmp_path / "e2e.trace.jsonl"
        chrome = tmp_path / "e2e.chrome.json"
        t.write_jsonl(jsonl)
        t.write_chrome(chrome, timeline=result.timeline)
        assert schema.validate_jsonl(str(jsonl))["errors"] == []
        assert schema.validate_chrome(str(chrome))["errors"] == []
