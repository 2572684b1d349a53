"""Parallelization-as-a-service: serializers, job store, scheduler
batching/caching, the HTTP tier, the CLI entry points, and schema
validation of the service payloads (docs/SERVICE.md)."""

import json
import os
import pickle
import sys
import threading
import time
import urllib.request

import pytest

from repro.__main__ import main
from repro.obs import schema
from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    metric_sort_key,
    render_prometheus,
    split_labeled_metric,
)
from repro.obs.trace import TRACER, Tracer
from repro.service import (
    FrontEndCache,
    JobStore,
    QueueFull,
    STATE_DONE,
    STATE_FAILED,
    STATE_QUEUED,
    ServiceApp,
    ServiceClient,
    ServiceError,
    ValidationError,
    fingerprint_source,
    parse_submit,
)
from repro.service import frontend_cache, jobstore, scheduler
from repro.service.app import (
    SERVE_PORT_ENV,
    SERVE_QUEUE_ENV,
    resolve_queue_depth,
    resolve_serve_port,
    workloads_payload,
)

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

# Train input (carry=0) satisfies privatization; ref input (carry=1)
# creates a true loop-carried flow the runtime must catch and recover
# (same program as tests/test_genuine_misspeculation.py).
MISSPEC_SRC = """
int state[8];
int out[128];
int main(int n, int carry) {
    for (int i = 0; i < n; i++) {
        if (carry && i > 0) {
            out[i] = state[0];
        } else {
            out[i] = i;
        }
        state[0] = i * 7;
        for (int j = 0; j < 25; j++) { out[i] += j; }
    }
    printf("%d %d %d\\n", out[1], out[5], out[n-1]);
    return 0;
}
"""


@pytest.fixture(autouse=True)
def _clean_obs(tmp_path, monkeypatch):
    """Private scratch caches + clean global obs state per test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_ADAPT_DIR", str(tmp_path / "adapt"))
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()


@pytest.fixture
def app(tmp_path):
    """A started service on an ephemeral port with a private registry."""
    registry = MetricsRegistry()
    app = ServiceApp(port=0, registry=registry, tracer=Tracer(),
                     spool_dir=str(tmp_path / "spool"))
    with app:
        yield app


def _client(app: ServiceApp) -> ServiceClient:
    return ServiceClient(app.url, timeout=30.0)


class TestDeepNesting:
    @pytest.mark.parametrize("source", [
        "int main() { return " + "(" * 10_000 + "1" + ")" * 10_000 + "; }",
        "int main() { " + "{" * 10_000 + "}" * 10_000 + " return 0; }",
    ], ids=["parens", "blocks"])
    def test_a_submission_nested_too_deep_is_a_compile_error(self, app, source):
        status, body, _ = app.handle_submit(
            {"source": source, "name": "deep", "args": [], "workers": 2})
        assert status == 400
        assert body["errors"] == [
            "source: CompileError: " + body["error"].split(": ", 1)[1]]
        assert "nesting too deep" in body["error"]


class TestParseSubmit:
    def test_workload_defaults_to_ref(self):
        spec = parse_submit({"workload": "dijkstra"})
        from repro.workloads import BY_NAME

        w = BY_NAME["dijkstra"]
        assert spec.args == w.ref
        assert spec.train_args == w.train
        assert spec.source == w.source

    def test_small_uses_train(self):
        spec = parse_submit({"workload": "dijkstra", "small": True})
        from repro.workloads import BY_NAME

        assert spec.args == BY_NAME["dijkstra"].train

    def test_inline_source(self):
        spec = parse_submit({"source": SRC, "name": "mine",
                             "args": [24], "workers": 2})
        assert spec.name == "mine"
        assert spec.args == (24,)
        assert spec.workers == 2

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown field"):
            parse_submit({"workload": "dijkstra", "wrokers": 3})

    def test_requires_exactly_one_of_workload_source(self):
        with pytest.raises(ValidationError, match="exactly one"):
            parse_submit({})
        with pytest.raises(ValidationError, match="exactly one"):
            parse_submit({"workload": "dijkstra", "source": SRC})

    def test_unknown_workload_lists_available(self):
        with pytest.raises(ValidationError, match="dijkstra"):
            parse_submit({"workload": "nope"})

    def test_collects_all_errors(self):
        try:
            parse_submit({"workload": "nope", "workers": 0,
                          "args": ["x"], "bogus": 1})
        except ValidationError as e:
            joined = "\n".join(e.errors)
            assert len(e.errors) >= 4
            assert "workers" in joined
            assert "args" in joined
            assert "bogus" in joined
        else:
            pytest.fail("expected ValidationError")

    def test_payload_spellings_become_one_team_size(self):
        """``backend`` and ``pool_workers`` are translated to the team
        size P at validation: an explicit count is P, ``pool`` alone is
        one process per worker, and nothing is 1; at most ``workers``."""
        def processes(**knobs):
            return parse_submit({"workload": "dijkstra", **knobs}).processes

        assert processes() == 1
        assert processes(backend="simulated") == 1
        assert processes(backend="pool") == 4
        assert processes(backend="pool", pool_workers=2) == 2
        assert processes(pool_workers=2) == 2
        assert processes(backend="pool", pool_workers=8, workers=3) == 3

    def test_two_spellings_of_one_process_are_one_job(self, tmp_path):
        """``simulated`` and a pool of one process name the same run:
        one result-cache key, and one flight-dump name for it."""
        from helpers import prepared_counter_program

        sim = parse_submit({"workload": "dijkstra", "backend": "simulated"})
        pool1 = parse_submit({"workload": "dijkstra", "backend": "pool",
                              "pool_workers": 1})
        fp = "f" * 16
        assert sim.cache_key(fp) == pool1.cache_key(fp)
        prog = prepared_counter_program(16)
        dumps = []
        for i, spec in enumerate((sim, pool1)):
            result = prog.execute(workers=spec.workers,
                                  processes=spec.processes,
                                  misspec_period=5, adapt=False,
                                  flight_dir=str(tmp_path / str(i)))
            dumps.append(os.path.basename(result.flight_dump))
        assert dumps[0] == dumps[1] == "counter.simulated.flight.jsonl"

    def test_cache_key_ignores_trace_only(self):
        base = parse_submit({"workload": "dijkstra"})
        traced = parse_submit({"workload": "dijkstra", "trace": True})
        other = parse_submit({"workload": "dijkstra", "workers": 5})
        fp = "f" * 16
        assert base.cache_key(fp) == traced.cache_key(fp)
        assert base.cache_key(fp) != other.cache_key(fp)
        assert base.cache_key(fp) != base.cache_key("e" * 16)

    def test_fingerprint_is_content_keyed(self):
        a = fingerprint_source(SRC, "a")
        b = fingerprint_source(SRC, "a")
        c = fingerprint_source(BAD_SRC, "a")
        assert a == b  # deterministic for identical source
        assert a != c


class TestJobStore:
    def _spec(self, **over):
        payload = {"source": SRC, "name": "t", "args": [16]}
        payload.update(over)
        return parse_submit(payload)

    def test_queue_full_raises_with_retry_after(self):
        store = JobStore(queue_depth=2, registry=MetricsRegistry())
        store.submit(self._spec(), "fp")
        store.submit(self._spec(workers=2), "fp")
        with pytest.raises(QueueFull) as exc:
            store.submit(self._spec(workers=3), "fp")
        assert exc.value.retry_after_s >= 1.0
        assert store.registry.counter("service.queue.rejected").value == 1

    def test_cache_hit_skips_queue(self):
        store = JobStore(queue_depth=1, registry=MetricsRegistry())
        job = store.submit(self._spec(), "fp")
        [claimed] = store.take_queued()
        store.finish(claimed, STATE_DONE, result={"output_matches": True})
        # The queue slot is free again AND the identical resubmission is
        # answered from the result cache without consuming it.
        hit = store.submit(self._spec(), "fp")
        assert hit.cache_hit and hit.state == STATE_DONE
        assert hit.result["cached_from"] == job.id
        assert store.registry.counter("service.cache_hits").value == 1

    def test_failed_jobs_are_not_cached(self):
        store = JobStore(registry=MetricsRegistry())
        store.submit(self._spec(), "fp")
        [claimed] = store.take_queued()
        store.finish(claimed, STATE_FAILED, error="boom")
        again = store.submit(self._spec(), "fp")
        assert not again.cache_hit and again.state == STATE_QUEUED

    def test_retention_evicts_oldest_and_its_metrics(self):
        registry = MetricsRegistry()
        store = JobStore(retain=2, registry=registry)
        ids = []
        for workers in (1, 2, 3):
            store.submit(self._spec(workers=workers), "fp")
            [claimed] = store.take_queued()
            store.finish(claimed, STATE_DONE,
                         result={"output_matches": True})
            ids.append(claimed.id)
        assert store.get(ids[0]) is None
        assert store.get(ids[1]) is not None
        names = set(registry.snapshot())
        assert not any(n.startswith(f"job.{ids[0]}.") for n in names)
        assert any(n.startswith(f"job.{ids[1]}.") for n in names)

    def test_counts_and_fingerprint_payload(self):
        store = JobStore(registry=MetricsRegistry())
        store.submit(self._spec(), "fp")
        counts = store.counts()
        assert counts[STATE_QUEUED] == 1
        payload = store.fingerprint_payload()
        assert payload["fingerprints"]["fp"]["jobs"] == 1
        assert payload["queue_capacity"] == store.queue_depth


class TestServiceEndToEnd:
    def test_batching_warm_start_and_cache_hit(self, app):
        client = _client(app)
        # Two jobs sharing a fingerprint, different knobs: the second
        # must ride the resident prepared program (warm start).
        j1 = client.submit({"source": SRC, "name": "p", "args": [24],
                            "workers": 2})
        j2 = client.submit({"source": SRC, "name": "p", "args": [24],
                            "workers": 3})
        assert j1["fingerprint"] == j2["fingerprint"]
        j1 = client.wait(j1["id"])
        j2 = client.wait(j2["id"])
        assert j1["state"] == "done" and j2["state"] == "done"
        assert not j1["warm"] and j2["warm"]
        assert j1["result"]["output_matches"]
        assert j1["result"]["table1"]["speedup"] > 0
        assert j1["result"]["table3"]["private_sites"] >= 1
        r = app.registry
        assert r.counter("service.prepare.cold").value == 1
        assert r.counter("service.prepare.warm").value == 1

        # Identical resubmission: served from the warm result cache.
        j3 = client.submit({"source": SRC, "name": "p", "args": [24],
                            "workers": 2})
        assert j3["cache_hit"] and j3["state"] == "done"
        assert j3["result"]["cached_from"] == j1["id"]
        assert r.counter("service.cache_hits").value == 1

        fp = client.fingerprints()
        stats = fp["fingerprints"][j1["fingerprint"]]
        assert stats["jobs"] == 3
        assert stats["cache_hits"] == 1
        assert stats["warm_runs"] == 1

    def test_checkpoint_period_is_an_execute_knob(self, app):
        # The period is picked at execute time: a second period reuses
        # the resident program, but is a result of its own.
        client = _client(app)
        jobs = [client.wait(client.submit(
            {"source": SRC, "name": "p", "args": [24], "workers": 2,
             "checkpoint_period": period})["id"]) for period in (4, 6)]
        assert [(j["warm"], j["cache_hit"]) for j in jobs] == \
            [(False, False), (True, False)]
        assert app.registry.counter("service.prepare.cold").value == 1

    def test_misspeculating_job_is_done_with_forensics(self, app):
        client = _client(app)
        job = client.submit({"source": MISSPEC_SRC, "name": "genuine",
                             "train_args": [24, 0], "args": [24, 1],
                             "workers": 4})
        job = client.wait(job["id"])
        # Caught-and-recovered misspeculation is a *successful* job: the
        # output matched the sequential baseline after recovery.
        assert job["state"] == "done"
        result = job["result"]
        assert result["output_matches"]
        assert result["misspeculations"] > 0
        assert result["genuine_misspeculations"] > 0
        assert result["recoveries"] > 0
        assert result["squashed_iterations"] > 0
        forensics = result["forensics"]
        assert forensics["total_diagnoses"] > 0
        kinds = {d["kind"] for d in forensics["diagnoses"]}
        assert kinds & {"privacy", "control"}

    def test_unparallelizable_job_fails_with_reasons(self, app):
        client = _client(app)
        job = client.submit({"source": BAD_SRC, "name": "bad",
                             "args": [24]})
        job = client.wait(job["id"])
        assert job["state"] == "failed"
        assert "no parallelizable loop" in job["error"]
        assert app.registry.counter("service.jobs.failed").value == 1

    def test_injected_misspec_counts_surface(self, app):
        client = _client(app)
        job = client.submit({"source": SRC, "name": "inj", "args": [24],
                             "workers": 2, "misspec_period": 7,
                             "misspec_burst": 10})
        job = client.wait(job["id"])
        assert job["state"] == "done"
        assert job["result"]["misspeculations"] > 0
        assert job["result"]["genuine_misspeculations"] == 0

    def test_trace_artifact_round_trip(self, tmp_path):
        # Pipeline spans land on the global TRACER, so the trace test
        # runs the server in its production wiring (tracer=None).
        with ServiceApp(port=0, registry=MetricsRegistry(),
                        spool_dir=str(tmp_path / "spool")) as app:
            self._trace_round_trip(app, tmp_path)

    def _trace_round_trip(self, app, tmp_path):
        client = _client(app)
        job = client.submit({"source": SRC, "name": "traced",
                             "args": [24], "workers": 2, "trace": True})
        job = client.wait(job["id"])
        assert job["state"] == "done" and job["has_trace"]
        text = client.trace(job["id"])
        lines = [json.loads(line) for line in text.splitlines() if line]
        assert any(ev.get("kind") == "meta" for ev in lines)
        assert any(ev.get("name") == "pipeline.execute" for ev in lines)
        # The artifact is the documented JSONL trace schema.
        path = tmp_path / "job.trace.jsonl"
        path.write_text(text)
        report = schema.validate_jsonl(str(path))
        assert report["errors"] == []
        # Traced runs are not cache-filled: the resubmission runs fresh.
        again = client.submit({"source": SRC, "name": "traced",
                               "args": [24], "workers": 2, "trace": True})
        assert not again["cache_hit"]
        client.wait(again["id"])

    def test_validation_errors_are_http_400(self, app):
        client = _client(app)
        with pytest.raises(ServiceError) as exc:
            client.submit({"workload": "nope", "workers": 0})
        assert exc.value.status == 400
        assert any("workers" in e for e in exc.value.errors)

    def test_backend_process_is_http_400(self, app):
        client = _client(app)
        with pytest.raises(ServiceError) as exc:
            client.submit({"workload": "dijkstra", "backend": "process"})
        assert exc.value.status == 400
        assert any("unknown backend 'process'" in e
                   and "simulated, pool" in e for e in exc.value.errors)

    def test_uncompilable_source_is_http_400(self, app):
        client = _client(app)
        with pytest.raises(ServiceError) as exc:
            client.submit({"source": "int main( {", "name": "broken"})
        assert exc.value.status == 400
        assert "compile" in str(exc.value)

    def test_unknown_job_is_http_404(self, app):
        client = _client(app)
        with pytest.raises(ServiceError) as exc:
            client.job("j999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client.trace("j999")
        assert exc.value.status == 404

    def test_workloads_and_health_endpoints(self, app):
        client = _client(app)
        names = {w["name"] for w in client.workloads()}
        assert {"dijkstra", "enc_md5"} <= names
        health = client.health()
        assert health["status"] == "ok"
        assert health["scheduler"] == "running"
        assert set(health["jobs"]) == {"queued", "running", "done",
                                       "failed", "misspeculated"}


def _counting_compiles(monkeypatch):
    """Count ``compile_minic`` calls at both places the service can
    compile: the front-end cache (which imports it when it compiles)
    and ``prepare()``."""
    from repro.bench import pipeline
    from repro.frontend import lower

    calls = []
    real = lower.compile_minic

    def counting(source, name):
        calls.append(name)
        return real(source, name)

    monkeypatch.setattr(lower, "compile_minic", counting)
    monkeypatch.setattr(pipeline, "compile_minic", counting)
    return calls


class TestFrontEndCache:
    """The third cache of ``repro serve``: (name, source) -> fingerprint
    + pristine module snapshot (docs/SERVICE.md)."""

    def test_fingerprint_equals_the_uncached_reference(self):
        from repro.workloads import ALL_WORKLOADS

        cache = FrontEndCache(registry=MetricsRegistry())
        assert len(ALL_WORKLOADS) == 5
        for w in ALL_WORKLOADS:
            reference = fingerprint_source(w.source, w.name)
            assert cache.fingerprint(w.source, w.name) == (reference, False)
            assert cache.fingerprint(w.source, w.name) == (reference, True)
            module, fingerprint = cache.module(w.source, w.name)
            assert fingerprint == reference
            from repro.profiling.serialize import module_fingerprint
            assert module_fingerprint(module) == reference
        r = cache.registry
        assert r.counter("service.frontend.misses").value == 5
        assert r.counter("service.frontend.hits").value == 5
        assert r.gauge("service.frontend.bytes").value > 5 * 10_000

    def test_resubmission_compiles_nothing(self, app, monkeypatch):
        calls = _counting_compiles(monkeypatch)
        status, body, _ = app.handle_submit(
            {"source": SRC, "name": "p", "args": [24], "workers": 2})
        assert status == 202 and calls == ["p"]
        first = _client(app).wait(body["job"]["id"])
        # The cold job prepared from the snapshot: still one compile.
        assert first["state"] == "done" and not first["warm"]
        assert calls == ["p"]
        # Warm, result-cache hit and a second cold job (new inputs):
        # validation and prepare both find the source known.
        for payload in ({"args": [24], "workers": 3},
                        {"args": [24], "workers": 2},
                        {"args": [16], "workers": 2}):
            status, body, _ = app.handle_submit(
                {"source": SRC, "name": "p", **payload})
            assert status in (200, 202)
            job = _client(app).wait(body["job"]["id"])
            assert job["state"] == "done"
            assert job["fingerprint"] == first["fingerprint"]
        assert calls == ["p"]
        r = app.registry
        assert r.counter("service.frontend.misses").value == 1
        assert r.counter("service.frontend.hits").value == 3
        assert r.counter("service.prepare.cold").value == 2

    def test_name_and_every_literal_are_part_of_the_key(self):
        cache = FrontEndCache(registry=MetricsRegistry())
        base, _ = cache.fingerprint(SRC, "p")
        renamed, hit = cache.fingerprint(SRC, "q")
        assert not hit
        edited, hit = cache.fingerprint(SRC.replace("r < 5", "r < 6"), "p")
        assert not hit and edited != base
        assert edited == fingerprint_source(SRC.replace("r < 5", "r < 6"),
                                            "p")
        assert renamed == fingerprint_source(SRC, "q")
        assert len(cache) == 3
        # The name is length-prefixed: moving a character between name
        # and source is another key.
        assert frontend_cache.source_key("ab", "c") \
            != frontend_cache.source_key("b", "ca")

    def test_compile_errors_are_400_every_time_and_never_cached(self, app):
        bodies = []
        for _ in range(2):
            status, body, _ = app.handle_submit(
                {"source": "int main( {", "name": "broken"})
            assert status == 400
            body.pop("generated_unix")
            bodies.append(body)
        assert bodies[0] == bodies[1]
        assert "source does not compile" in bodies[0]["error"]
        assert len(app.frontend) == 0
        assert app.registry.counter("service.frontend.misses").value == 2
        # As without the cache, a lone surrogate is the lexer's to refuse.
        status, body, _ = app.handle_submit(
            {"source": "int main() { return 0; } \ud800", "name": "s"})
        assert status == 400 and "source does not compile" in body["error"]

    def test_entry_bound_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(frontend_cache, "MAX_ENTRIES", 2)
        cache = FrontEndCache(registry=MetricsRegistry())
        sources = [f"int main() {{ return {k}; }}" for k in range(3)]
        cache.fingerprint(sources[0], "m")
        cache.fingerprint(sources[1], "m")
        assert cache.fingerprint(sources[0], "m")[1]      # refresh 0
        cache.fingerprint(sources[2], "m")                # evicts 1
        assert len(cache) == 2
        assert cache.fingerprint(sources[0], "m")[1]
        assert cache.fingerprint(sources[2], "m")[1]
        assert not cache.fingerprint(sources[1], "m")[1]

    def test_byte_bound_evicts_least_recently_used(self, monkeypatch):
        cache = FrontEndCache(registry=MetricsRegistry())
        sources = [f"int main() {{ return {k}; }}" for k in range(3)]
        cache.fingerprint(sources[0], "m")
        one = cache.registry.gauge("service.frontend.bytes").value
        assert one > 0
        # Room for two snapshots of this size, not three.
        monkeypatch.setattr(frontend_cache, "MAX_SNAPSHOT_BYTES",
                            2 * one + one // 2)
        cache.fingerprint(sources[1], "m")
        cache.module(sources[0], "m")                     # a use of 0
        cache.fingerprint(sources[2], "m")                # evicts 1
        assert len(cache) == 2
        assert cache.registry.gauge("service.frontend.bytes").value \
            <= 2 * one + one // 2
        assert cache.fingerprint(sources[0], "m")[1]
        assert not cache.fingerprint(sources[1], "m")[1]

    def test_modules_handed_out_are_independent(self):
        from repro.profiling.serialize import module_fingerprint

        cache = FrontEndCache(registry=MetricsRegistry())
        reference = fingerprint_source(SRC, "p")
        first, _ = cache.module(SRC, "p")       # the compiled module itself
        second, _ = cache.module(SRC, "p")      # unpickled
        assert first is not second
        for module in (first, second):
            main = module.function_named("main")
            main.blocks[0].instructions.pop(0)
            assert module_fingerprint(module) != reference
        third, fingerprint = cache.module(SRC, "p")
        assert module_fingerprint(third) == fingerprint == reference
        assert cache.registry.counter("service.frontend.misses").value == 1

    def test_eight_threads_two_sources(self, app):
        other = SRC.replace("r < 5", "r < 7")
        results = [None] * 8
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submit(k):
                results[k] = app.handle_submit(
                    {"source": SRC if k % 2 else other, "name": "p",
                     "args": [16], "workers": 1 + k // 2})
            threads = [threading.Thread(target=submit, args=(k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None and r[0] in (200, 202) for r in results)
        assert len(app.frontend) == 2
        prints = [r[1]["job"]["fingerprint"] for r in results]
        assert set(prints[0::2]) == {fingerprint_source(other, "p")}
        assert set(prints[1::2]) == {fingerprint_source(SRC, "p")}
        r = app.registry
        assert r.counter("service.frontend.hits").value \
            + r.counter("service.frontend.misses").value == 8
        # The byte gauge counts each source once however many threads
        # compiled it.
        assert r.gauge("service.frontend.bytes").value == sum(
            len(snapshot) for _, snapshot in app.frontend._entries.values())
        client = _client(app)
        for _, body, _ in results:
            assert client.wait(body["job"]["id"])["state"] == "done"

    @pytest.mark.parametrize("error", [RecursionError, pickle.PicklingError])
    def test_snapshot_failure_falls_back_to_recompiling(self, app, error,
                                                        monkeypatch):
        calls = _counting_compiles(monkeypatch)

        def too_deep(*args, **kwargs):
            raise error("hostile module")

        monkeypatch.setattr(frontend_cache.pickle, "dumps", too_deep)
        client = _client(app)
        job = client.submit({"source": SRC, "name": "deep", "args": [16],
                             "workers": 2})
        # The entry keeps the fingerprint alone ...
        assert app.registry.gauge("service.frontend.bytes").value == 0
        assert len(app.frontend) == 1
        job = client.wait(job["id"])
        # ... so the cold path compiled again, and the job is fine.
        assert job["state"] == "done" and job["result"]["output_matches"]
        assert calls == ["deep", "deep"]
        again = client.submit({"source": SRC, "name": "deep", "args": [16],
                               "workers": 2})
        assert again["cache_hit"] and calls == ["deep", "deep"]


class TestBoundedCaches:
    """The resident and result caches are LRU by last use, with module
    constants for bounds (docs/SERVICE.md)."""

    def _spec(self, **over):
        payload = {"source": SRC, "name": "t", "args": [16]}
        payload.update(over)
        return parse_submit(payload)

    def _finish(self, store, spec):
        store.submit(spec, "fp")
        [claimed] = store.take_queued()
        store.finish(claimed, STATE_DONE, result={"output_matches": True})
        return claimed

    def test_constants_are_no_smaller_than_promised(self):
        assert scheduler.RESIDENT_MAX >= 64
        assert jobstore.RESULT_CACHE_MAX >= 1024

    def test_result_cache_refreshes_on_hit_and_evicts_oldest(
            self, monkeypatch):
        monkeypatch.setattr(jobstore, "RESULT_CACHE_MAX", 2)
        store = JobStore(registry=MetricsRegistry())
        self._finish(store, self._spec(workers=1))
        self._finish(store, self._spec(workers=2))
        assert store.submit(self._spec(workers=1), "fp").cache_hit  # refresh
        self._finish(store, self._spec(workers=3))       # evicts workers=2
        assert store.fingerprint_payload()["cache_entries"] == 2
        assert store.submit(self._spec(workers=1), "fp").cache_hit
        assert store.submit(self._spec(workers=3), "fp").cache_hit
        again = store.submit(self._spec(workers=2), "fp")
        assert not again.cache_hit and again.state == STATE_QUEUED

    def test_resident_eviction_order_and_the_re_cold_path(self, app,
                                                          monkeypatch):
        monkeypatch.setattr(scheduler, "RESIDENT_MAX", 2)
        client = _client(app)
        sources = {name: SRC.replace("r < 5", f"r < {5 + k}")
                   for k, name in enumerate("abc")}

        def run(name, **knobs):
            job = client.submit({"source": sources[name], "name": name,
                                 "args": [16], **knobs})
            job = client.wait(job["id"])
            assert job["state"] == "done", job
            return job

        a = run("a", workers=1)
        b = run("b", workers=1)
        assert not a["warm"] and not b["warm"]
        assert run("a", workers=2)["warm"]               # a use of a
        c = run("c", workers=1)                          # evicts b, not a
        stats = client.fingerprints()["fingerprints"]
        assert stats[a["fingerprint"]]["resident"]
        assert stats[c["fingerprint"]]["resident"]
        assert not stats[b["fingerprint"]]["resident"]
        assert run("a", workers=3)["warm"]
        # The evicted program's next job is cold again, and the same job.
        misses = app.registry.counter("service.frontend.misses").value
        again = run("b", workers=2)
        assert not again["warm"] and not again["cache_hit"]
        assert again["result"]["output"] == b["result"]["output"]
        assert again["result"]["table1"]["sequential_cycles"] \
            == b["result"]["table1"]["sequential_cycles"]
        assert app.registry.counter("service.frontend.misses").value \
            == misses
        stats = client.fingerprints()["fingerprints"]
        assert stats[b["fingerprint"]]["resident"]
        assert stats[b["fingerprint"]]["cold_prepares"] == 2
        assert not stats[c["fingerprint"]]["resident"]   # c was oldest

    def test_fingerprint_stays_resident_while_any_program_is(
            self, app, monkeypatch):
        monkeypatch.setattr(scheduler, "RESIDENT_MAX", 2)
        client = _client(app)

        def run(args):
            job = client.submit({"source": SRC, "name": "p", "args": args})
            return client.wait(job["id"])

        first = run([8])
        run([12])
        run([16])                       # evicts the [8] program
        stats = client.fingerprints()["fingerprints"][first["fingerprint"]]
        assert stats["resident"] and stats["cold_prepares"] == 3


class TestClientWait:
    def test_pause_starts_at_10ms_and_doubles_up_to_poll_s(self,
                                                           monkeypatch):
        from repro.service import client as client_module

        pauses = []
        monkeypatch.setattr(client_module.time, "sleep", pauses.append)
        states = iter(["queued"] * 3 + ["running"] * 4 + ["done"])
        client = ServiceClient("http://127.0.0.1:1")
        monkeypatch.setattr(client, "job",
                            lambda job_id: {"state": next(states)})
        assert client.wait("j1", poll_s=0.2)["state"] == "done"
        assert pauses == pytest.approx(
            [0.01, 0.02, 0.04, 0.08, 0.16, 0.2, 0.2])
        # poll_s is the ceiling, also when it is below the first pause.
        pauses.clear()
        states = iter(["running", "running", "done"])
        client.wait("j1", poll_s=0.005)
        assert pauses == [0.005, 0.005]

    def test_a_job_done_before_the_second_poll_costs_one_short_pause(
            self, monkeypatch):
        from repro.service import client as client_module

        pauses = []
        monkeypatch.setattr(client_module.time, "sleep", pauses.append)
        states = iter(["running", "done"])
        client = ServiceClient("http://127.0.0.1:1")
        monkeypatch.setattr(client, "job",
                            lambda job_id: {"state": next(states)})
        client.wait("j1")
        assert pauses == [0.01]


class TestCompileOnceGenerateOnce:
    """Service end to end: a second cold job of a known program (same
    plan, unseen inputs) compiles nothing and generates nothing."""

    @pytest.mark.parametrize("workload,size", [("enc_md5", (4, 48)),
                                               ("swaptions", (4, 6))])
    def test_second_cold_job_with_a_new_guest_seed(self, app, workload,
                                                   size):
        client = _client(app)

        def cold(seed):
            args = [*size, seed]
            job = client.submit({"workload": workload, "args": args,
                                 "train_args": args, "workers": 2,
                                 "backend": "simulated"})
            job = client.wait(job["id"])
            assert job["state"] == "done" and job["result"]["output_matches"]
            assert not job["warm"] and not job["cache_hit"]
            metrics = client.metrics()["metrics"]
            return (metrics["service.frontend.misses"]["value"],
                    metrics["codegen.generations"]["value"])

        misses, generations = cold(1 << 20)
        assert misses == 1 and generations > 0
        assert cold((1 << 20) + 1) == (misses, generations)
        assert app.registry.counter("service.prepare.cold").value == 2

    def test_generations_gauge_is_set_for_failed_jobs_too(self, app):
        from repro.interp import codegen

        client = _client(app)
        job = client.submit({"source": BAD_SRC, "name": "bad",
                             "args": [24]})
        assert client.wait(job["id"])["state"] == "failed"
        assert app.registry.gauge("codegen.generations").value \
            == codegen.generations


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        # Unstarted app: the scheduler never drains, so the queue fills.
        app = ServiceApp(port=0, queue_depth=1,
                         registry=MetricsRegistry(), tracer=Tracer(),
                         spool_dir=str(tmp_path / "spool"))
        status, body, headers = app.handle_submit(
            {"source": SRC, "name": "q", "args": [16]})
        assert status == 202
        status, body, headers = app.handle_submit(
            {"source": SRC, "name": "q", "args": [16], "workers": 9})
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "queue is full" in body["error"]

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "7")
        assert resolve_queue_depth(None) == 7
        assert resolve_queue_depth(3) == 3
        monkeypatch.setenv(SERVE_QUEUE_ENV, "zero")
        with pytest.raises(ValueError, match="integer"):
            resolve_queue_depth(None)
        monkeypatch.setenv(SERVE_PORT_ENV, "18222")
        assert resolve_serve_port(None) == 18222
        assert resolve_serve_port(1234) == 1234
        monkeypatch.setenv(SERVE_PORT_ENV, "eighty")
        with pytest.raises(ValueError, match="integer"):
            resolve_serve_port(None)
        monkeypatch.delenv(SERVE_PORT_ENV)
        assert resolve_serve_port(None) == 8517


class TestConcurrentPolling:
    def test_no_torn_envelopes_and_clean_shutdown(self, tmp_path):
        """Hammer /metrics, /metrics.prom and /jobs/<id> from many
        threads while jobs mutate the registry; every response must be a
        complete, parseable envelope, and shutdown must leave no service
        threads behind."""
        registry = MetricsRegistry()
        app = ServiceApp(port=0, registry=registry, tracer=Tracer(),
                         spool_dir=str(tmp_path / "spool"))
        errors = []
        stop = threading.Event()

        def hammer(path, check):
            while not stop.is_set():
                try:
                    with urllib.request.urlopen(app.url + path,
                                                timeout=5) as resp:
                        check(resp.read())
                except Exception as e:  # noqa: BLE001 - collected below
                    errors.append(f"{path}: {e!r}")
                    return

        def check_metrics(raw):
            data = json.loads(raw)
            assert set(data) >= {"status_format", "generated_unix",
                                 "run", "metrics"}, "torn /metrics"

        def check_job(raw):
            data = json.loads(raw)
            job = data["job"]
            assert set(job) >= {"id", "state", "knobs", "result"}, \
                "torn job payload"

        def check_prom(raw):
            text = raw.decode()
            for line in text.splitlines():
                assert line.startswith("#") or " " in line, "torn prom"

        with app:
            client = _client(app)
            first = client.submit({"source": SRC, "name": "c",
                                   "args": [24], "workers": 2})
            threads = [
                threading.Thread(target=hammer, args=("/metrics",
                                                      check_metrics)),
                threading.Thread(target=hammer, args=("/metrics",
                                                      check_metrics)),
                threading.Thread(target=hammer, args=("/metrics.prom",
                                                      check_prom)),
                threading.Thread(target=hammer,
                                 args=(f"/jobs/{first['id']}", check_job)),
                threading.Thread(target=hammer,
                                 args=(f"/jobs/{first['id']}", check_job)),
            ]
            for t in threads:
                t.start()
            # Mutate the registry under the pollers: several jobs, some
            # warm, one cache hit.
            for workers in (3, 4, 2):
                client.submit({"source": SRC, "name": "c", "args": [24],
                               "workers": workers})
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                counts = app.store.counts()
                if counts["queued"] == counts["running"] == 0:
                    break
                time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join(timeout=10)
            assert errors == []
        # Clean shutdown: no service/scheduler threads left.
        for _ in range(100):
            leaked = [t.name for t in threading.enumerate()
                      if t.name.startswith("repro-serve")
                      or t.name.startswith("repro-service")]
            if not leaked:
                break
            time.sleep(0.05)
        assert leaked == []
        assert not app.scheduler.alive


class TestServiceMetricsSchema:
    def _served_payloads(self, app, client):
        j = client.submit({"source": SRC, "name": "m", "args": [24],
                           "workers": 2})
        client.wait(j["id"])
        metrics = json.loads(
            urllib.request.urlopen(app.url + "/metrics",
                                   timeout=5).read())
        prom = urllib.request.urlopen(app.url + "/metrics.prom",
                                      timeout=5).read().decode()
        job = json.loads(
            urllib.request.urlopen(app.url + f"/jobs/{j['id']}",
                                   timeout=5).read())
        return metrics, prom, job

    def test_live_payloads_validate(self, app, tmp_path):
        metrics, prom, job = self._served_payloads(app, _client(app))
        names = set(metrics["metrics"])
        assert "service.jobs.submitted" in names
        assert "service.queue.depth" in names
        assert "service.job.latency_us" in names
        assert any(n.startswith("job.j1.") for n in names)

        mpath = tmp_path / "metrics.json"
        mpath.write_text(json.dumps(metrics))
        report = schema.validate_metrics(str(mpath))
        assert report["errors"] == []

        ppath = tmp_path / "metrics.prom"
        ppath.write_text(prom)
        report = schema.validate_prom(str(ppath))
        assert report["errors"] == []
        assert 'job="j1"' in prom

        jpath = tmp_path / "job.json"
        jpath.write_text(json.dumps(job))
        report = schema.validate_job(str(jpath))
        assert report["errors"] == []

    def test_job_schema_rejects_bad_payloads(self, tmp_path):
        bad = {"service_format": 1, "generated_unix": 1.0,
               "job": {"id": "job-1", "state": "sideways",
                       "args": ["x"], "train_args": [], "knobs": {},
                       "cache_hit": False, "warm": False,
                       "fingerprint": ""}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        report = schema.validate_job(str(path))
        joined = "\n".join(report["errors"])
        assert "does not match j<N>" in joined
        assert "unknown job state" in joined
        assert "fingerprint" in joined

    def test_metrics_schema_flags_bad_job_names(self, tmp_path):
        payload = {"status_format": 1, "generated_unix": 1.0, "run": {},
                   "metrics": {
                       "job.banana.latency_us":
                           {"type": "gauge", "value": 1},
                       "job.j3.latency_us":
                           {"type": "gauge", "value": 1},
                   }}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        report = schema.validate_metrics(str(path))
        joined = "\n".join(report["errors"])
        assert "banana" in joined
        assert "j3" not in joined

    def test_sort_key_orders_job_ids_numerically(self):
        names = ["job.j10.latency_us", "job.j2.latency_us",
                 "service.batches", "worker.10.busy", "worker.2.busy"]
        ordered = sorted(names, key=metric_sort_key)
        assert ordered.index("job.j2.latency_us") \
            < ordered.index("job.j10.latency_us")
        assert ordered.index("worker.2.busy") \
            < ordered.index("worker.10.busy")

    def test_split_labeled_metric(self):
        assert split_labeled_metric("worker.3.busy") == \
            ("busy", ("worker", "3"))
        assert split_labeled_metric("job.j7.latency_us") == \
            ("latency_us", ("job", "j7"))
        assert split_labeled_metric("service.batches") == \
            ("service.batches", None)

    def test_registry_remove(self):
        r = MetricsRegistry()
        r.counter("job.j1.a").inc()
        r.gauge("job.j1.b").set(2)
        r.counter("job.j10.a").inc()
        assert r.remove("job.j1.") == 2
        assert set(r.snapshot()) == {"job.j10.a"}

    def test_prometheus_job_label_folding(self):
        r = MetricsRegistry()
        r.gauge("job.j1.latency_us").set(10)
        r.gauge("job.j2.latency_us").set(20)
        text = render_prometheus(r.snapshot())
        assert 'repro_latency_us{job="j1"} 10' in text
        assert 'repro_latency_us{job="j2"} 20' in text
        assert text.count("# TYPE repro_latency_us gauge") == 1


class TestServiceCLI:
    def test_workloads_json(self, capsys):
        rc = main(["workloads", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["service_format"] == 1
        by_name = {w["name"]: w for w in data["workloads"]}
        assert by_name["dijkstra"]["args_schema"]["arity"] == 3
        assert by_name["dijkstra"]["train_args"] == [24, 16, 7]
        assert "description" in by_name["enc_md5"]

    def test_workloads_json_matches_endpoint(self):
        payload = workloads_payload()
        assert [w["name"] for w in payload["workloads"]] == \
            ["alvinn", "dijkstra", "blackscholes", "swaptions", "enc_md5"]

    def test_submit_and_jobs_against_live_server(self, app, tmp_path,
                                                 capsys):
        src = tmp_path / "prog.c"
        src.write_text(SRC)
        rc = main(["submit", str(src), "--args", "24", "--workers", "2",
                   "--url", app.url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out and "speedup=" in out

        rc = main(["jobs", "--url", app.url])
        out = capsys.readouterr().out
        assert rc == 0
        assert "j1" in out and "done" in out

        rc = main(["jobs", "j1", "--json", "--url", app.url])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["state"] == "done"

    def test_submit_unknown_workload_is_exit_2(self, capsys):
        rc = main(["submit", "not-a-workload", "--url",
                   "http://127.0.0.1:1"])
        assert rc == 2
        assert "neither a workload" in capsys.readouterr().err

    def test_submit_unreachable_server_is_exit_2(self, capsys):
        rc = main(["submit", "dijkstra", "--small", "--url",
                   "http://127.0.0.1:9", "--timeout", "2"])
        assert rc == 2
        assert "repro serve" in capsys.readouterr().err

    def test_jobs_unreachable_server_is_exit_2(self, capsys):
        rc = main(["jobs", "--url", "http://127.0.0.1:9", "--timeout",
                   "2"])
        assert rc == 2


class TestObservabilityPlane:
    """PR 10: the job lifecycle observability plane — span-id'd job
    traces, labeled latency histograms, live backpressure gauges, and
    the metrics history ring (docs/OBSERVABILITY.md)."""

    def _spec(self, **over):
        payload = {"source": SRC, "name": "t", "args": [16]}
        payload.update(over)
        return parse_submit(payload)

    # -- backpressure gauges ----------------------------------------------

    def test_queue_depth_and_retry_after_gauges(self):
        store = JobStore(queue_depth=4, registry=MetricsRegistry())
        depth = store.registry.gauge("service.queue.depth")
        retry = store.registry.gauge("service.retry_after_s")
        store.submit(self._spec(), "fp")
        store.submit(self._spec(workers=2), "fp")
        assert depth.value == 2
        assert retry.value >= 1.0
        claimed = store.take_queued()
        assert depth.value == 0  # the claim empties the queue
        for job in claimed:
            store.finish(job, STATE_DONE, result={"output_matches": True})
        assert depth.value == 0
        assert retry.value >= 1.0

    # -- labeled latency histograms ---------------------------------------

    def test_finish_observes_outcome_and_tier_labels(self):
        from repro.obs.metrics import labeled

        registry = MetricsRegistry()
        store = JobStore(registry=registry)
        store.submit(self._spec(), "fp")
        [job] = store.take_queued()
        store.finish(job, STATE_DONE, result={"output_matches": True})
        snap = registry.snapshot()
        name = labeled("service.job.total_us", outcome="done", tier="cold")
        assert snap[name]["count"] == 1
        wait = labeled("service.job.queue_wait_us", outcome="done",
                       tier="cold")
        assert snap[wait]["count"] == 1
        # A cache hit of the finished job lands in the cache_hit tier
        # with the submit-side validation time as its total latency.
        store.submit(self._spec(), "fp", validate_s=0.25)
        hit = labeled("service.job.total_us", outcome="done",
                      tier="cache_hit")
        assert registry.snapshot()[hit]["count"] == 1
        assert registry.snapshot()[hit]["p50"] == pytest.approx(0.25e6)

    def test_labeled_histograms_render_and_lint(self, tmp_path):
        from repro.obs.metrics import labeled

        registry = MetricsRegistry()
        store = JobStore(registry=registry)
        store.submit(self._spec(), "fp")
        [job] = store.take_queued()
        store.finish(job, STATE_DONE, result={"output_matches": True})
        text = render_prometheus(registry.snapshot())
        assert ('repro_service_job_total_us_bucket{outcome="done",'
                'tier="cold",le="+Inf"} 1') in text
        p = tmp_path / "m.prom"
        p.write_text(text)
        assert schema.validate_prom(str(p))["errors"] == []

    # -- the traced-job span chain ----------------------------------------

    def _drain_traced(self, tmp_path, specs):
        """Submit the given specs as one claim set and drain it through
        a real scheduler wired to the global TRACER (the production
        configuration); returns the finished jobs."""
        from repro.service.scheduler import Scheduler

        registry = MetricsRegistry()
        store = JobStore(registry=registry)
        sched = Scheduler(store, spool_dir=str(tmp_path / "spool"),
                          registry=registry)
        sched.spool_dir.mkdir(parents=True, exist_ok=True)
        jobs = [store.submit(spec, "fp", validate_s=0.01)
                for spec in specs]
        sched.drain(store.take_queued())
        return jobs

    @staticmethod
    def _events(job):
        with open(job.trace_path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    @staticmethod
    def _chain(events):
        """The job-level causal chain: service spans plus the epoch
        loop, in recorded order, reduced to structural tuples."""
        keep = ("job", "job.submit", "job.queue_wait", "job.prepare",
                "job.execute", "job.commit", "executor.invocation",
                "executor.epoch", "executor.commit")
        return [(ev["name"], ev["attrs"].get("epoch_start"),
                 ev["attrs"].get("epoch_end"), ev["attrs"].get("outcome"))
                for ev in events
                if ev.get("kind") == "span" and ev.get("pid") == 1
                and ev["name"] in keep]

    def test_span_chain_and_batch_propagation(self, tmp_path):
        spec = {"source": SRC, "name": "p", "args": [24], "workers": 2,
                "trace": True}
        j1, j2 = self._drain_traced(
            tmp_path, [self._spec(**spec), self._spec(**spec)])
        assert j1.state == "done" and j2.state == "done"
        assert not j1.warm and j2.warm  # one batch, shared program
        root_ids = []
        for position, job in enumerate((j1, j2)):
            events = self._events(job)
            names = [ev["name"] for ev in events if ev.get("kind") == "span"]
            for expected in ("job", "job.submit", "job.queue_wait",
                             "job.prepare", "job.execute", "job.commit",
                             "executor.epoch", "executor.commit",
                             "pipeline.execute"):
                assert expected in names, (job.id, expected)
            (root,) = [ev for ev in events if ev.get("name") == "job"
                       and ev.get("kind") == "span"]
            assert root["attrs"]["job"] == job.id
            assert root["attrs"]["state"] == "done"
            root_ids.append(root["attrs"]["span_id"])
            # Every non-meta event in the artifact carries the ambient
            # job + root-span context, including worker-shipped events.
            for ev in events:
                if ev.get("kind") == "meta":
                    continue
                assert ev["attrs"]["job"] == job.id, ev
                assert ev["attrs"]["job_span"] == root["attrs"]["span_id"]
            (batch_ev,) = [ev for ev in events
                           if ev.get("name") == "job.batch"]
            assert batch_ev["attrs"]["batch"] == j1.batch
            assert batch_ev["attrs"]["batch_position"] == position
        # Distinct root spans per job, even within one batch.
        assert root_ids[0] != root_ids[1]
        # The artifacts themselves are schema-clean.
        report = schema.validate_jsonl(str(j2.trace_path))
        assert report["errors"] == []
        # Tracer left disarmed and context-free between jobs.
        assert not TRACER.enabled and TRACER.context == {}

    def test_trace_artifact_is_written_before_the_job_turns_terminal(
            self, tmp_path, monkeypatch):
        """A client that polls fast sees ``done`` and fetches the trace
        at once: the artifact must already be there."""
        states = []
        real = TRACER.write_jsonl

        def spying(path):
            states.extend(job.state for job in jobs)
            return real(path)

        monkeypatch.setattr(TRACER, "write_jsonl", spying)
        jobs = []
        spec = {"source": SRC, "name": "p", "args": [16], "workers": 2,
                "trace": True}
        bad = {"source": BAD_SRC, "name": "bad", "args": [24],
               "trace": True}
        from repro.service.scheduler import Scheduler

        registry = MetricsRegistry()
        store = JobStore(registry=registry)
        sched = Scheduler(store, spool_dir=str(tmp_path / "spool"),
                          registry=registry)
        sched.spool_dir.mkdir(parents=True)
        for payload in (spec, bad):
            jobs[:] = [store.submit(parse_submit(payload), "fp")]
            sched.drain(store.take_queued())
            assert jobs[0].trace_path is not None
        assert states == ["running", "running"]
        assert jobs[0].state == "failed"
        (root,) = [ev for ev in self._events(jobs[0])
                   if ev.get("name") == "job" and ev.get("kind") == "span"]
        assert root["attrs"]["state"] == "failed"

    def test_submit_span_says_whether_the_front_end_cache_hit(self,
                                                              tmp_path):
        # Production wiring (global TRACER), as in the round-trip test.
        with ServiceApp(port=0, registry=MetricsRegistry(),
                        spool_dir=str(tmp_path / "spool")) as app:
            client = _client(app)
            seen = []
            for workers in (2, 3):
                job = client.submit({"source": SRC, "name": "p",
                                     "args": [16], "workers": workers,
                                     "trace": True})
                job = client.wait(job["id"])
                assert job["state"] == "done"
                text = client.trace(job["id"])
                (submit,) = [ev for ev in map(json.loads, text.splitlines())
                             if ev.get("name") == "job.submit"]
                seen.append(submit["attrs"]["frontend"])
                path = tmp_path / f"{job['id']}.jsonl"
                path.write_text(text)
                assert schema.validate_jsonl(str(path))["errors"] == []
                # The cold job no longer compiles: it thaws the snapshot.
                names = {ev.get("name")
                         for ev in map(json.loads, text.splitlines())}
                assert "pipeline.compile" not in names
                assert ("pipeline.prepare" in names) == (workers == 2)
            assert seen == ["miss", "hit"]

    def test_span_chain_is_identical_across_backends(self, tmp_path):
        base = {"source": SRC, "name": "p", "args": [24], "workers": 2,
                "trace": True}
        sim, pool = self._drain_traced(
            tmp_path, [self._spec(**base),
                       self._spec(backend="pool", **base)])
        assert sim.state == "done" and pool.state == "done"
        sim_chain = self._chain(self._events(sim))
        pool_chain = self._chain(self._events(pool))
        assert sim_chain == pool_chain
        assert ("job.execute", None, None, None) in sim_chain
        assert any(name == "executor.epoch" and outcome == "committed"
                   for name, _, _, outcome in sim_chain)

    def test_tracer_rearms_cleanly_after_failed_traced_run(self, app):
        client = _client(app)
        job = client.submit({"source": BAD_SRC, "name": "bad",
                             "args": [24], "trace": True})
        job = client.wait(job["id"])
        assert job["state"] == "failed"
        tracer = app.scheduler.tracer
        assert not tracer.enabled
        assert tracer.context == {}
        # The next traced job must still produce a clean artifact.
        ok = client.submit({"source": SRC, "name": "ok", "args": [16],
                            "workers": 2, "trace": True})
        ok = client.wait(ok["id"])
        assert ok["state"] == "done" and ok["has_trace"]
        assert not tracer.enabled and tracer.context == {}

    def test_concurrent_trace_fetch_vs_eviction(self, tmp_path):
        """GET /jobs/<id>/trace raced against retention eviction must
        yield complete artifacts or clean 404s — never torn bodies."""
        with ServiceApp(port=0, registry=MetricsRegistry(),
                        tracer=Tracer(), retain=1,
                        spool_dir=str(tmp_path / "spool")) as app:
            client = _client(app)
            first = client.submit({"source": SRC, "name": "p",
                                   "args": [8], "workers": 2,
                                   "trace": True})
            first = client.wait(first["id"])
            assert first["has_trace"]
            stop = threading.Event()
            outcomes = []
            failures = []

            def hammer():
                poll = ServiceClient(app.url, timeout=30.0)
                while not stop.is_set():
                    try:
                        text = poll.trace(first["id"])
                        lines = text.splitlines()
                        if not lines or not all(
                                json.loads(l) for l in lines if l):
                            failures.append("torn artifact")
                        outcomes.append(200)
                    except ServiceError as e:
                        if e.status != 404:
                            failures.append(f"HTTP {e.status}")
                        outcomes.append(404)
                    except Exception as e:  # noqa: BLE001
                        failures.append(repr(e))

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                # retain=1: each finished job evicts its predecessor.
                for k in (1, 2):
                    job = client.submit({"source": SRC, "name": "p",
                                         "args": [8], "workers": 2 + k,
                                         "trace": True})
                    client.wait(job["id"])
            finally:
                stop.set()
                thread.join(10.0)
            assert failures == []
            assert 404 in outcomes  # the eviction was actually observed

    # -- history ring through the service ---------------------------------

    def test_serve_with_history_ring_feeds_the_dash(self, tmp_path):
        from repro.obs.dash import render_dash_html
        from repro.obs.history import read_history

        ring = tmp_path / "ring"
        app = ServiceApp(port=0, registry=MetricsRegistry(),
                         tracer=Tracer(), spool_dir=str(tmp_path / "spool"),
                         history_dir=str(ring))
        with app:
            assert app.history is not None and app.history.alive
            client = _client(app)
            job = client.submit({"source": SRC, "name": "p", "args": [8],
                                 "workers": 2})
            client.wait(job["id"])
        assert not app.history.alive  # stop() joined the sampler
        records = read_history(str(ring))
        assert records  # stop() flushed at least the final snapshot
        last = records[-1]["metrics"]
        assert last["service.jobs.submitted"]["value"] == 1
        assert last["service.jobs.completed"]["value"] == 1
        assert not any(n.startswith("job.") for n in last)
        page = render_dash_html(records, source=str(ring))
        assert "jobs completed /s" in page
        assert "service.jobs.completed" in page
