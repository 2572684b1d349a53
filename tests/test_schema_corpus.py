"""Mutation corpus for the seven artifact formats ``repro.obs.schema``
checks.

Every original comes from the producer that writes it in a real run:
``Tracer.write_jsonl``/``write_chrome``, ``forensics.recorder.write_dump``,
``explain.to_json``, ``StatusServer.metrics_payload``,
``render_prometheus`` and a served ``done`` job of a misspeculating run.
Each must validate clean.  From each, one mutant per declared field drops
the field (when it is required) and one or two give it a value of the
wrong type (a bool where a number is wanted among them); every mutant
must be rejected by an error that names the field.
"""

import copy
import json
import re

import pytest

from repro import obs
from repro.bench.pipeline import prepare
from repro.forensics.explain import explain_snapshot, to_json
from repro.forensics.recorder import write_dump
from repro.obs import schema
from repro.obs.metrics import METRICS, MetricsRegistry, render_prometheus
from repro.obs.server import StatusServer
from repro.obs.trace import TRACER, Tracer
from repro.parallel.backend import make_executor
from repro.service.app import ServiceApp
from repro.service.client import ServiceClient

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

#: Wrong-typed values per declared rule (``?``: null is also valid).
WRONG = {
    "int": ["x", True], "num": ["x", True], "str": [7], "bool": [1],
    "dict": [[]], "list": [{}], "int?": ["z", True], "str?": [7],
}

#: Bool mutants the linter accepted before the field tables.
BOOL_AS_INT = {("flight", "misspec", "iteration"),
               ("chrome", "X", "ts"), ("chrome", "X", "dur"),
               ("chrome", "i", "ts")}


def _first(items, pred):
    return next(item for item in items if pred(item))


def _meta_event(events):
    return _first(events, lambda e: e["kind"] == "meta")


def _span(events):
    return _first(events, lambda e: e["kind"] == "span")


def _instant(events):
    return _first(events, lambda e: e["kind"] == "instant")


def _threaded(events):
    return _first(events, lambda e: "thread" in e)


def _chrome_ph(ph):
    return lambda doc: _first(doc["traceEvents"], lambda e: e["ph"] == ph)


def _flight_kind(kind):
    return lambda recs: _first(recs, lambda r: r["kind"] == kind)


def _flight_event(event):
    return lambda recs: _first(
        recs, lambda r: r["kind"] == "event" and r["data"]["event"] == event)


def _flight_event_data(event):
    return lambda recs: _flight_event(event)(recs)["data"]


def _metric_entry(mtype):
    return lambda doc: _first(doc["metrics"].values(),
                              lambda m: m["type"] == mtype)


_EVENT_FIELDS = {"kind": "str", "name": "str", "cat": "str", "ts_us": "num",
                 "pid": "int", "tid": "int", "attrs": "dict"}

#: format -> [(selector name, selector, {field: (required, rule)})].
DECLARED = {
    "jsonl": [
        (name, sel, {**{f: (True, r) for f, r in _EVENT_FIELDS.items()},
                     **extra})
        for name, sel, extra in [
            ("meta", _meta_event, {}),
            ("span", _span, {"dur_us": (True, "num")}),
            ("instant", _instant, {}),
            ("threaded", _threaded, {"thread": (False, "int")}),
        ]
    ],
    "chrome": [
        ("envelope", lambda doc: doc, {"traceEvents": (True, "list")}),
        ("X", _chrome_ph("X"), {"ph": (True, "str"), "ts": (True, "num"),
                                "dur": (True, "num")}),
        ("i", _chrome_ph("i"), {"ph": (True, "str"), "ts": (True, "num")}),
        ("M", _chrome_ph("M"), {"ph": (True, "str")}),
    ],
    "flight": [
        ("meta", _flight_kind("meta"),
         {"kind": (True, "str"), "flight_format": (True, "int"),
          "crash": (True, "bool")}),
        ("heap_map", _flight_kind("heap_map"),
         {"kind": (True, "str"), "objects": (True, "list")}),
        ("heap_map object",
         lambda recs: _flight_kind("heap_map")(recs)["objects"][0],
         {"base": (True, None), "heap": (True, None)}),
        ("verdicts", _flight_kind("verdicts"),
         {"kind": (True, "str"), "site_heaps": (True, "dict")}),
        ("site_summary", _flight_kind("site_summary"),
         {"kind": (True, "str"), "sites": (True, "dict")}),
        ("event", _flight_event("epoch"),
         {"kind": (True, "str"), "data": (True, "dict")}),
        ("epoch", _flight_event_data("epoch"),
         {"event": (True, "str"), "seq": (True, "int")}),
        ("misspec", _flight_event_data("misspec"),
         {"event": (True, "str"), "seq": (True, "int"),
          "kind": (True, "str"), "iteration": (True, "int")}),
    ],
    "explain": [
        ("envelope", lambda doc: doc,
         {"explain_format": (True, "int"), "meta": (True, "dict"),
          "diagnoses": (True, "list")}),
        ("diagnosis", lambda doc: doc["diagnoses"][0],
         {"kind": (True, "str"), "iteration": (True, "int"),
          "injected": (True, "bool"), "site": (False, "str?"),
          "heap_tag": (False, "int?")}),
    ],
    "metrics": [
        ("envelope", lambda doc: doc,
         {"status_format": (True, "int"), "generated_unix": (True, "num"),
          "run": (True, "dict"), "metrics": (True, "dict")}),
        ("counter", _metric_entry("counter"),
         {"type": (True, "str"), "value": (True, "num")}),
        ("histogram", _metric_entry("histogram"),
         {"type": (True, "str"), "count": (True, "num"),
          "sum": (True, "num")}),
        ("gauge", _metric_entry("gauge"), {"type": (True, "str")}),
    ],
    "job": [
        ("envelope", lambda doc: doc,
         {"service_format": (True, "int"), "generated_unix": (True, "num"),
          "job": (True, "dict")}),
        ("job", lambda doc: doc["job"],
         {"id": (True, "str"), "state": (True, "str"), "args": (True, "list"),
          "train_args": (True, "list"), "knobs": (True, "dict"),
          "cache_hit": (True, "bool"), "warm": (True, "bool"),
          "fingerprint": (True, "str"), "result": (True, "dict")}),
        ("done result", lambda doc: doc["job"]["result"],
         {"table1": (True, "dict"), "table3": (True, "dict"),
          "misspeculations": (True, "int"), "recoveries": (True, "int"),
          "squashed_iterations": (True, "int"),
          "checkpoints": (True, "int"), "output_matches": (True, "bool"),
          "forensics": (True, "dict")}),
    ],
}

VALIDATORS = {
    "jsonl": schema.validate_jsonl, "chrome": schema.validate_chrome,
    "flight": schema.validate_flight, "explain": schema.validate_explain,
    "metrics": schema.validate_metrics, "prom": schema.validate_prom,
    "job": schema.validate_job,
}

#: Formats whose file is one JSON record a line.
JSONL_FORMATS = {"jsonl", "flight"}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """format -> original artifact (JSON value, record list, or text)."""
    tmp = tmp_path_factory.mktemp("originals")
    TRACER.reset()
    METRICS.reset()
    obs.enable()
    try:
        program = prepare(SRC, "corpus", args=(24,), use_cache=False)
        executor = make_executor(program.module, program.plan,
                                 workers=4, misspec_period=7,
                                 misspec_burst=14)
        executor.run(program.entry, program.ref_args)
        TRACER.write_jsonl(tmp / "t.jsonl")
        TRACER.write_chrome(tmp / "c.json")
        metrics = StatusServer(port=0).metrics_payload()
        prom = render_prometheus(METRICS.snapshot())
    finally:
        obs.disable()
        TRACER.reset()
        METRICS.reset()
    snap = executor.flight_snapshot()
    write_dump(snap, tmp / "f.jsonl")
    app = ServiceApp(port=0, registry=MetricsRegistry(), tracer=Tracer(),
                     spool_dir=str(tmp / "spool"))
    with pytest.MonkeyPatch.context() as env, app:
        env.setenv("REPRO_CACHE_DIR", str(tmp / "cache"))
        env.setenv("REPRO_ADAPT_DIR", str(tmp / "adapt"))
        client = ServiceClient(app.url, timeout=30.0)
        job = client.submit({"source": SRC, "name": "corpus", "args": [24],
                             "workers": 2, "misspec_period": 7})
        client.wait(job["id"])
        _, job_payload, _ = app.job_payload(job["id"])

    def records(path):
        return [json.loads(line) for line in open(path) if line.strip()]

    return {
        "jsonl": records(tmp / "t.jsonl"),
        "chrome": json.loads((tmp / "c.json").read_text()),
        "flight": records(tmp / "f.jsonl"),
        "explain": to_json(snap, explain_snapshot(snap)),
        "metrics": metrics,
        "prom": prom,
        "job": job_payload,
    }


def _errors(fmt, artifact, tmp_path):
    path = tmp_path / f"artifact.{fmt}"
    if fmt == "prom":
        path.write_text(artifact)
    elif fmt in JSONL_FORMATS:
        path.write_text("".join(json.dumps(r) + "\n" for r in artifact))
    else:
        path.write_text(json.dumps(artifact))
    return VALIDATORS[fmt](str(path))["errors"]


def _mutants():
    """(id, format, selector, field, mutation) for every declared field;
    ``mutation`` is ``"drop"`` or the wrong-typed value."""
    for fmt, entries in DECLARED.items():
        for name, selector, fields in entries:
            for field, (required, rule) in fields.items():
                base = f"{fmt}:{name}.{field}"
                if required:
                    yield base + ":drop", fmt, name, selector, field, "drop"
                for value in WRONG.get(rule, ()):
                    yield (f"{base}:{json.dumps(value)}", fmt, name,
                           selector, field, value)


MUTANTS = list(_mutants())


@pytest.mark.parametrize("fmt", sorted(VALIDATORS))
def test_original_is_accepted(originals, fmt, tmp_path):
    assert _errors(fmt, originals[fmt], tmp_path) == []


@pytest.mark.parametrize("fmt,name,selector,field,mutation",
                         [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_mutant_is_rejected_naming_its_field(originals, fmt, name, selector,
                                              field, mutation, tmp_path):
    artifact = copy.deepcopy(originals[fmt])
    record = selector(artifact)
    assert field in record or mutation != "drop"
    if mutation == "drop":
        del record[field]
    else:
        record[field] = mutation
    errors = _errors(fmt, artifact, tmp_path)
    named = re.compile(rf"\b{re.escape(field)}\b")
    assert any(named.search(e) for e in errors), errors


def test_the_corpus_covers_every_table_field():
    """Each field a table of the schema declares has its mutants here."""
    tables = {
        "jsonl": [schema.EVENT],
        "chrome": [schema.CHROME, schema.CHROME_EVENT],
        "flight": [schema.FLIGHT_RECORD, schema.FLIGHT_EVENT,
                   *schema.FLIGHT_RECORDS.values()],
        "explain": [schema.EXPLAIN, schema.DIAGNOSIS],
        "metrics": [schema.METRICS, schema.METRIC_ENTRY,
                    *schema.METRIC_ENTRIES.values()],
        "job": [schema.JOB_ENVELOPE, schema.JOB, schema.DONE_RESULT],
    }
    for fmt, records in tables.items():
        covered = {field for _, _, fields in DECLARED[fmt] for field in fields}
        for record in records:
            assert set(record.fields) <= covered, (fmt, record.fields)


def test_bool_mutants_cover_the_old_gaps():
    """The bool-for-integer cases the linter let through before the
    field tables are all in the corpus."""
    covered = {(fmt, name, field) for _, fmt, name, _, field, value in MUTANTS
               if value is True}
    assert BOOL_AS_INT <= covered


def _prom_families(text):
    return [line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE ")]


def test_prom_mutants_are_rejected_naming_their_family(originals, tmp_path):
    """The exposition has no JSON fields: each family loses its TYPE
    line, each histogram its ``+Inf`` bucket, and one sample its
    number; the error names the family or the line."""
    text = originals["prom"]
    lines = text.splitlines(keepends=True)
    families = _prom_families(text)
    assert families
    for fam in families:
        typed = [l for l in lines if not l.startswith(f"# TYPE {fam} ")]
        errors = _errors("prom", "".join(typed), tmp_path)
        assert any(fam in e for e in errors), (fam, errors)
        if f"# TYPE {fam} histogram\n" in lines:
            inf = [l for l in lines
                   if not (l.startswith(f"{fam}_bucket")
                           and 'le="+Inf"' in l)]
            errors = _errors("prom", "".join(inf), tmp_path)
            assert any(fam in e for e in errors), (fam, errors)
    for lineno, line in enumerate(lines, 1):
        if not line.startswith("#"):
            broken = list(lines)
            broken[lineno - 1] = line.rsplit(" ", 1)[0] + " x\n"
            errors = _errors("prom", "".join(broken), tmp_path)
            assert any(e.startswith(f"line {lineno}:") for e in errors)
            break


def test_flight_rejects_a_bool_misspec_iteration(originals, tmp_path):
    records = copy.deepcopy(originals["flight"])
    _flight_event_data("misspec")(records)["iteration"] = True
    assert any("iteration" in e for e in _errors("flight", records, tmp_path))


def test_chrome_rejects_bool_ts_and_dur(originals, tmp_path):
    for field in ("ts", "dur"):
        doc = copy.deepcopy(originals["chrome"])
        _chrome_ph("X")(doc)[field] = True
        assert any(re.search(rf"\b{field}\b", e)
                   for e in _errors("chrome", doc, tmp_path)), field
