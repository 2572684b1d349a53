"""The live telemetry plane: status endpoint, schema validation for its
payloads, and the `repro top` dashboard rendering."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import schema
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.server import (
    STATUS_PORT_ENV,
    StatusServer,
    resolve_status_port,
)
from repro.obs.top import (
    payload_from_registry,
    render_dashboard,
    worker_rows,
)
from repro.obs.trace import TRACER


@pytest.fixture(autouse=True)
def _clean_obs():
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()


def _populated_registry() -> MetricsRegistry:
    r = MetricsRegistry()
    r.counter("executor.epochs").inc(4)
    r.counter("executor.iterations.committed").inc(64)
    r.gauge("executor.progress.trips").set(64)
    r.gauge("executor.progress.iteration").set(64)
    r.counter("runtime.checkpoints").inc(4)
    r.counter("worker.0.epoch.slices").inc(2)
    r.counter("worker.0.epoch.iterations").inc(32)
    r.counter("worker.0.epoch.busy_us").inc(500_000)
    r.counter("worker.1.epoch.slices").inc(2)
    r.counter("worker.1.epoch.iterations").inc(32)
    r.counter("worker.1.epoch.busy_us").inc(400_000)
    h = r.histogram("worker.1.span_us")
    h.observe(10.0)
    h.observe(20.0)
    return r


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read()


class TestResolveStatusPort:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(STATUS_PORT_ENV, raising=False)
        assert resolve_status_port(None) is None

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(STATUS_PORT_ENV, "9999")
        assert resolve_status_port(4242) == 4242

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(STATUS_PORT_ENV, "4321")
        assert resolve_status_port(None) == 4321

    def test_env_not_integer(self, monkeypatch):
        monkeypatch.setenv(STATUS_PORT_ENV, "eighty")
        with pytest.raises(ValueError, match="not an integer"):
            resolve_status_port(None)

    def test_env_out_of_range(self, monkeypatch):
        monkeypatch.setenv(STATUS_PORT_ENV, "70000")
        with pytest.raises(ValueError, match="outside"):
            resolve_status_port(None)


class TestStatusServer:
    def test_health_metrics_and_prom_roundtrip(self):
        registry = _populated_registry()
        with StatusServer(port=0, registry=registry) as srv:
            assert srv.port and srv.port != 0
            health = json.loads(_get(srv.url + "/health"))
            assert health["status"] == "ok"
            assert health["metrics"] == len(registry)

            payload = json.loads(_get(srv.url + "/metrics"))
            assert payload["status_format"] == 1
            assert payload["generated_unix"] > 0
            assert payload["metrics"]["executor.epochs"]["value"] == 4
            assert payload["metrics"]["worker.1.span_us"]["count"] == 2

            prom = _get(srv.url + "/metrics.prom").decode()
            assert "# TYPE repro_executor_epochs counter" in prom
            assert 'repro_epoch_slices{worker="0"} 2' in prom
        assert srv.port is None  # stopped by the context manager

    def test_unknown_path_is_404(self):
        with StatusServer(port=0, registry=MetricsRegistry()) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(srv.url + "/nope")
            assert exc.value.code == 404
            body = json.loads(exc.value.read())
            assert "/metrics" in body["endpoints"]

    def test_serves_live_updates(self):
        registry = MetricsRegistry()
        with StatusServer(port=0, registry=registry) as srv:
            before = json.loads(_get(srv.url + "/metrics"))["metrics"]
            assert before == {}
            registry.counter("executor.epochs").inc()
            after = json.loads(_get(srv.url + "/metrics"))["metrics"]
            assert after["executor.epochs"]["value"] == 1

    def test_defaults_to_process_singletons(self):
        METRICS.counter("executor.epochs").inc(7)
        with StatusServer(port=0) as srv:
            payload = json.loads(_get(srv.url + "/metrics"))
        assert payload["metrics"]["executor.epochs"]["value"] == 7

    def test_epoch_unix_anchor_present(self):
        with StatusServer(port=0, registry=MetricsRegistry()) as srv:
            payload = json.loads(_get(srv.url + "/metrics"))
        assert payload["epoch_unix"] == pytest.approx(
            TRACER.epoch_unix, abs=1e-6)


class TestMetricsSchema:
    def _payload_file(self, tmp_path, payload):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_live_payload_validates(self, tmp_path):
        with StatusServer(port=0, registry=_populated_registry()) as srv:
            raw = _get(srv.url + "/metrics")
        path = tmp_path / "metrics.json"
        path.write_bytes(raw)
        report = schema.validate_metrics(str(path))
        assert report["errors"] == []
        assert report["metrics"] > 0

    def test_missing_envelope_fields(self, tmp_path):
        path = self._payload_file(tmp_path, {"metrics": {}})
        errors = schema.validate_metrics(path)["errors"]
        assert any("status_format" in e for e in errors)
        assert any("generated_unix" in e for e in errors)

    def test_bad_worker_label(self, tmp_path):
        path = self._payload_file(tmp_path, {
            "status_format": 1, "generated_unix": 1.0, "run": {},
            "metrics": {
                "worker.two.epoch.slices": {"type": "counter", "value": 1},
            },
        })
        errors = schema.validate_metrics(path)["errors"]
        assert any("not an integer" in e for e in errors)

    def test_missing_type_fields(self, tmp_path):
        path = self._payload_file(tmp_path, {
            "status_format": 1, "generated_unix": 1.0, "run": {},
            "metrics": {
                "a": {"type": "counter"},
                "b": {"type": "widget", "value": 1},
                "c": {"type": "histogram", "count": 2},
            },
        })
        errors = schema.validate_metrics(path)["errors"]
        assert any("'value'" in e for e in errors)
        assert any("unknown type" in e for e in errors)
        assert any("'sum'" in e for e in errors)

    def test_null_gauge_is_valid(self, tmp_path):
        path = self._payload_file(tmp_path, {
            "status_format": 1, "generated_unix": 1.0, "run": {},
            "metrics": {"g": {"type": "gauge", "value": None}},
        })
        assert schema.validate_metrics(path)["errors"] == []


class TestPromSchema:
    def _prom_file(self, tmp_path, text):
        path = tmp_path / "metrics.prom"
        path.write_text(text)
        return str(path)

    def test_live_exposition_validates(self, tmp_path):
        with StatusServer(port=0, registry=_populated_registry()) as srv:
            raw = _get(srv.url + "/metrics.prom")
        path = tmp_path / "metrics.prom"
        path.write_bytes(raw)
        report = schema.validate_prom(str(path))
        assert report["errors"] == []
        assert report["samples"] > 0
        assert report["families"]["repro_executor_epochs"] == "counter"

    def test_sample_without_type_declaration(self, tmp_path):
        path = self._prom_file(tmp_path, "repro_orphan 1\n")
        errors = schema.validate_prom(path)["errors"]
        assert any("no preceding TYPE" in e for e in errors)

    def test_summary_suffixes_belong_to_family(self, tmp_path):
        path = self._prom_file(
            tmp_path,
            "# TYPE repro_lat summary\n"
            'repro_lat{quantile="0.5"} 1.0\n'
            "repro_lat_count 2\n"
            "repro_lat_sum 3.0\n")
        assert schema.validate_prom(path)["errors"] == []

    def test_bad_lines_flagged(self, tmp_path):
        path = self._prom_file(
            tmp_path,
            "# TYPE repro_x gauge\n"
            "repro_x notanumber\n"
            "repro_x{unquoted=1} 2\n"
            "!! garbage\n")
        errors = schema.validate_prom(path)["errors"]
        assert any("non-numeric" in e for e in errors)
        assert any("bad label pair" in e for e in errors)
        assert any("unparseable" in e for e in errors)

    def test_empty_exposition_fails(self, tmp_path):
        path = self._prom_file(tmp_path, "\n")
        errors = schema.validate_prom(path)["errors"]
        assert any("no samples" in e for e in errors)

    def test_cli_modes(self, tmp_path, capsys):
        with StatusServer(port=0, registry=_populated_registry()) as srv:
            mjson = _get(srv.url + "/metrics")
            mprom = _get(srv.url + "/metrics.prom")
        jpath = tmp_path / "m.json"
        jpath.write_bytes(mjson)
        ppath = tmp_path / "m.prom"
        ppath.write_bytes(mprom)
        assert schema.main(["--metrics", str(jpath)]) == 0
        assert schema.main(["--prom", str(ppath)]) == 0
        bad = tmp_path / "bad.prom"
        bad.write_text("garbage !\n")
        assert schema.main(["--prom", str(bad)]) == 1


class TestTopDashboard:
    def test_worker_rows_numeric_order(self):
        metrics = {
            "worker.10.epoch.slices": {"type": "counter", "value": 1},
            "worker.2.epoch.slices": {"type": "counter", "value": 1},
            "worker.0.span_us": {"type": "histogram", "count": 3,
                                 "sum": 1.0},
            "other.metric": {"type": "counter", "value": 9},
        }
        rows = worker_rows(metrics)
        assert [wid for wid, _ in rows] == ["0", "2", "10"]
        assert rows[0][1]["span_us"] == 3  # histogram falls back to count

    def test_render_dashboard_snapshot(self):
        payload = payload_from_registry(
            _populated_registry(),
            run={"workload": "dijkstra", "backend": "pool"})
        frame = render_dashboard(payload)
        assert "dijkstra" in frame
        assert "backend=pool" in frame
        assert "epochs committed" in frame
        # Both workers, numerically ordered, with busy seconds.
        w0 = frame.index("     0  ")
        w1 = frame.index("     1  ")
        assert w0 < w1
        assert "0.50s" in frame and "0.40s" in frame

    def test_render_dashboard_rates_from_prev(self):
        prev_reg = MetricsRegistry()
        prev_reg.counter("executor.epochs").inc(2)
        prev_reg.counter("worker.0.epoch.busy_us").inc(100_000)
        prev = payload_from_registry(prev_reg)
        cur_reg = MetricsRegistry()
        cur_reg.counter("executor.epochs").inc(4)
        cur_reg.counter("worker.0.epoch.busy_us").inc(600_000)
        cur = payload_from_registry(cur_reg)
        cur["generated_unix"] = prev["generated_unix"] + 1.0
        frame = render_dashboard(cur, prev=prev)
        assert "2.0 epoch/s" in frame
        assert "50%" in frame  # 0.5s busy over a 1s poll gap

    def test_render_pool_row(self):
        reg = MetricsRegistry()
        reg.counter("pool.spawns").inc(2)
        reg.counter("pool.respawns.no_pool").inc()
        reg.counter("pool.respawns.child_died").inc()
        reg.counter("pool.syncs").inc(7)
        reg.counter("pool.sync_bytes").inc(3072)
        reg.counter("pool.worker_deaths").inc()
        frame = render_dashboard(payload_from_registry(reg))
        assert ("pool   forks 2 (child_died 1)   syncs 7 (3.0 KiB)   "
                "deaths 1   ring overflows 0") in frame
        assert "pool   " not in render_dashboard(
            payload_from_registry(MetricsRegistry()))

    def test_render_without_workers_notes_pool_backend(self):
        reg = MetricsRegistry()
        reg.counter("executor.epochs").inc()
        payload = payload_from_registry(reg, run={"backend": "pool"})
        assert "no worker.N.* metrics yet" in render_dashboard(payload)

    def test_snapshot_cli(self, tmp_path, capsys):
        from repro.obs.top import main as top_main

        payload = payload_from_registry(_populated_registry())
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(payload))
        assert top_main(["--snapshot", str(path)]) == 0
        assert "epochs committed" in capsys.readouterr().out

    def test_no_endpoint_configured_errors(self, monkeypatch, capsys):
        from repro.obs.top import main as top_main

        monkeypatch.delenv(STATUS_PORT_ENV, raising=False)
        assert top_main([]) == 2
        assert "REPRO_STATUS_PORT" in capsys.readouterr().err

    def test_top_polls_live_server(self):
        from repro.obs.top import fetch_payload

        with StatusServer(port=0, registry=_populated_registry()) as srv:
            payload = fetch_payload(srv.url + "/metrics")
        assert payload["metrics"]["executor.epochs"]["value"] == 4
