"""Validators for the artifacts the observability layer emits, one flag
per format (:data:`FORMATS`).  Each JSON object is a declared
:class:`Record` held by one checker, :func:`check`; the Prometheus
exposition is a line grammar, linted procedurally.  CI runs, e.g.::

    PYTHONPATH=src python -m repro.obs.schema --flight out/dijkstra.simulated.flight.jsonl
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Rule(NamedTuple):
    """A field's type: ``ok(value)`` holds for what ``noun`` names.  A
    rule ``of`` a record also holds the object, or each object of the
    list, to that record."""
    noun: str
    ok: Callable[[object], bool]
    record: Optional["Record"] = None

    def of(self, record: "Record") -> "Rule":
        return self._replace(record=record)

    def nullable(self) -> "Rule":
        return Rule(f"{self.noun} or null", lambda v: v is None or self.ok(v))


INT = Rule("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NUM = Rule("number", lambda v: INT.ok(v) or isinstance(v, float))
STR = Rule("string", lambda v: isinstance(v, str))
BOOL = Rule("boolean", lambda v: isinstance(v, bool))
DICT = Rule("object", lambda v: isinstance(v, dict))
LIST = Rule("list", lambda v: isinstance(v, list))


class Record(NamedTuple):
    """A declared JSON object.  ``fields``: field -> (required,
    :class:`Rule`).  ``checks``: (test, message) pairs; where ``test(obj)``
    holds, ``message`` formatted with the object's fields is an error.
    ``by``: (field, {value: Record}); the object is also held to the
    record its field's value names.  A ``closed`` record admits no field
    outside its table."""
    fields: Dict[str, Tuple[bool, Rule]]
    checks: Tuple[Tuple[Callable[[dict], bool], str], ...] = ()
    by: Tuple[str, Dict[str, "Record"]] = ("", {})
    closed: bool = False


def check(obj: object, record: Record, where: str = "") -> List[str]:
    """The errors of one parsed object against its declaration, each
    prefixed with ``where``."""
    if not isinstance(obj, dict):
        return [f"{where}not a JSON object"]
    errors: List[str] = []
    for field, (required, rule) in record.fields.items():
        value = obj.get(field)
        if field not in obj:
            errors += [f"{where}missing field {field!r}"] if required else []
        elif not rule.ok(value):
            errors.append(f"{where}field {field!r} has type "
                          f"{type(value).__name__}, expected {rule.noun}")
        elif rule.record and isinstance(value, list):
            for i, item in enumerate(value):
                errors += check(item, rule.record, f"{where}{field}[{i}]: ")
                if _full(errors):
                    break
        elif rule.record:
            errors += check(value, rule.record, f"{where}{field}: ")
    if record.closed:
        errors += [f"{where}unexpected field {f!r}"
                   for f in obj if f not in record.fields]
    key, variants = record.by
    if STR.ok(obj.get(key)) and obj[key] in variants:
        errors += check(obj, variants[obj[key]], f"{where}{obj[key]}: ")
    return errors + [where + message.format_map(obj)
                     for test, message in record.checks if test(obj)]


def _full(errors: List[str], max_errors: int = 20) -> bool:
    """True, with the stop marker appended, once ``errors`` is capped."""
    if len(errors) >= max_errors:
        errors.append("(stopping after too many errors)")
        return True
    return False


def _lines(path: str) -> Iterator[Tuple[int, str]]:
    with open(path) as fh:
        yield from ((n, line.rstrip("\n"))
                    for n, line in enumerate(fh, 1) if line.strip())


def _check_jsonl(path: str, record: Record, max_errors: int, empty: str,
                 meta: str, meta_first: bool = False
                 ) -> Tuple[int, Dict[str, int], List[str]]:
    """Check a file of one ``record`` a line holding one ``meta`` record
    (the first, if ``meta_first``); returns (records, kind counts,
    errors)."""
    errors: List[str] = []
    kinds: Counter = Counter()
    count = 0
    for lineno, line in _lines(path):
        try:
            rec = json.loads(line)
        except ValueError as e:
            errors.append(f"line {lineno}: invalid JSON ({e})")
        else:
            count += 1
            if DICT.ok(rec):
                kinds[str(rec.get("kind"))] += 1
                if meta_first and count == 1 and rec.get("kind") != "meta":
                    errors.append(f"line {lineno}: first record must be the "
                                  f"meta header")
            errors += check(rec, record, f"line {lineno}: ")
        if _full(errors, max_errors):
            break
    if count == 0 or kinds["meta"] != 1:
        errors.append(empty if count == 0 else
                      f"expected exactly one {meta}, got {kinds['meta']}")
    return count, dict(kinds), errors


def _load_json(path: str, record: Record, count_field: str
               ) -> Tuple[dict, int, List[str]]:
    """The JSON object at ``path`` (``{}`` if there is none), the length
    of its ``count_field`` list, and its errors against ``record``."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:
            return {}, 0, [f"invalid JSON ({e})"]
    obj = data if isinstance(data, dict) else {}
    items = obj.get(count_field)
    return obj, len(items) if LIST.ok(items) else 0, check(data, record)


KINDS = {"meta", "span", "instant"}
CHROME_PHASES = {"X", "i", "M", "B", "E"}

EVENT = Record(
    {"kind": (True, STR), "name": (True, STR), "cat": (True, STR),
     "ts_us": (True, NUM), "pid": (True, INT), "tid": (True, INT),
     "attrs": (True, DICT), "dur_us": (False, NUM), "thread": (False, INT)},
    ((lambda e: STR.ok(e.get("kind")) and e["kind"] not in KINDS,
      "unknown kind {kind!r}"),
     (lambda e: e.get("kind") == "span" and "dur_us" not in e,
      "span missing dur_us"),
     (lambda e: NUM.ok(e.get("ts_us")) and e["ts_us"] < 0,
      "negative ts_us {ts_us}"),
     (lambda e: NUM.ok(e.get("dur_us")) and e["dur_us"] < 0,
      "negative dur_us {dur_us}")),
    closed=True)

CHROME_EVENT = Record(
    {"ph": (True, STR), "ts": (False, NUM), "dur": (False, NUM)},
    ((lambda e: STR.ok(e.get("ph")) and e["ph"] not in CHROME_PHASES,
      "bad ph {ph!r}"),
     (lambda e: e.get("ph") == "X" and "dur" not in e,
      "complete event missing dur"),
     (lambda e: e.get("ph") != "M" and "ts" not in e, "missing ts")))
CHROME = Record({"traceEvents": (True, LIST.of(CHROME_EVENT))},
                ((lambda d: d.get("traceEvents") == [],
                  "trace contains no events"),))


def validate_jsonl(path: str,
                   max_errors: int = 20) -> Dict[str, object]:
    """Validate a JSONL trace file: ``{"events", "kinds", "errors"}``."""
    events, kinds, errors = _check_jsonl(
        path, EVENT, max_errors, "trace contains no events", "meta header")
    return {"events": events, "kinds": kinds, "errors": errors}


def validate_chrome(path: str) -> Dict[str, object]:
    """Validate a Chrome ``trace_event`` export: ``{"events", "errors"}``."""
    _, events, errors = _load_json(path, CHROME, "traceEvents")
    return {"events": events, "errors": errors}


#: Event types the flight recorder emits.
FLIGHT_EVENTS = {"invocation", "epoch", "misspec", "decision"}

FLIGHT_EVENT = Record(
    {"event": (True, STR), "seq": (True, INT), "kind": (False, STR),
     "iteration": (False, INT)},
    ((lambda d: STR.ok(d.get("event")) and d["event"] not in FLIGHT_EVENTS,
      "unknown event type {event!r}"),
     (lambda d: INT.ok(d.get("seq")) and d["seq"] < 0, "negative seq {seq}"),
     (lambda d: d.get("event") == "misspec" and "kind" not in d,
      "misspec event missing kind"),
     (lambda d: d.get("event") == "misspec" and "iteration" not in d,
      "misspec event missing iteration")))

#: Record kind -> its declaration, for the lines of a flight dump.
FLIGHT_RECORDS = {
    "meta": Record({"flight_format": (True, INT), "crash": (True, BOOL)}),
    "heap_map": Record({"objects": (True, LIST)}, (
        (lambda r: LIST.ok(r.get("objects")) and not all(
            DICT.ok(o) and "base" in o and "heap" in o
            for o in r["objects"]), "an object is missing base/heap"),)),
    "verdicts": Record({"site_heaps": (True, DICT)}),
    "site_summary": Record({"sites": (True, DICT)}),
    "event": Record({"data": (True, DICT.of(FLIGHT_EVENT))}),
}
FLIGHT_RECORD = Record(
    {"kind": (True, STR)},
    ((lambda r: STR.ok(r.get("kind")) and r["kind"] not in FLIGHT_RECORDS,
      "unknown record kind {kind!r}"),), by=("kind", FLIGHT_RECORDS))


def validate_flight(path: str, max_errors: int = 20) -> Dict[str, object]:
    """Validate a flight dump: ``{"records", "kinds", "errors"}``."""
    records, kinds, errors = _check_jsonl(
        path, FLIGHT_RECORD, max_errors, "flight dump contains no records",
        "meta record", meta_first=True)
    return {"records": records, "kinds": kinds, "errors": errors}


DIAGNOSIS = Record({"kind": (True, STR), "iteration": (True, INT),
                    "injected": (True, BOOL), "site": (False, STR.nullable()),
                    "heap_tag": (False, INT.nullable())})
EXPLAIN = Record({"explain_format": (True, INT), "meta": (True, DICT),
                  "diagnoses": (True, LIST.of(DIAGNOSIS))})


def validate_explain(path: str) -> Dict[str, object]:
    """Validate ``explain --json`` output: ``{"diagnoses", "errors"}``."""
    _, diagnoses, errors = _load_json(path, EXPLAIN, "diagnoses")
    return {"diagnoses": diagnoses, "errors": errors}


#: Service job ids as they appear in ``job.<id>.<metric>`` names and in
#: job payloads (sequential: ``j1``, ``j2``, ...).
_JOB_ID = re.compile(r"^j\d+$")

#: Name prefixes the exporters fold into labels: prefix -> (label test,
#: what a label must be, the name's shape).
_NAME_PREFIXES = {"worker": (str.isdigit, "an integer", "worker.<N>.<metric>"),
                  "job": (_JOB_ID.match, "a job id", "job.j<N>.<metric>")}
_PREFIXED = re.compile(r"^(worker|job)\.([^.]*)(\.?)")

#: Brace-labeled registry names (``base{k="v",...}`` — see
#: :func:`repro.obs.metrics.labeled`).
_METRIC_LABELED = re.compile(
    r'^[^{}]+\{[a-zA-Z_][a-zA-Z0-9_]*="[^"{}\\]*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"{}\\]*")*\}$')

METRICS = Record({"status_format": (True, INT), "generated_unix": (True, NUM),
                  "run": (True, DICT), "metrics": (True, DICT)})

#: Metric type -> its snapshot entry (a never-set gauge reports null).
METRIC_ENTRIES = {"counter": Record({"value": (True, NUM)}),
                  "gauge": Record({}),
                  "histogram": Record({"count": (True, NUM),
                                       "sum": (True, NUM)})}
METRIC_ENTRY = Record(
    {"type": (True, STR)},
    ((lambda m: STR.ok(m.get("type")) and m["type"] not in METRIC_ENTRIES,
      "unknown type {type!r}"),), by=("type", METRIC_ENTRIES))


def _metric_name_errors(name: str) -> Iterator[str]:
    m = _PREFIXED.match(name)
    if m:
        ok, label_kind, shape = _NAME_PREFIXES[m[1]]
        if not (m[2] and m[3]):
            yield f"{m[1]}-prefixed name has no metric suffix " \
                  f"(expected {shape})"
        elif not ok(m[2]):
            yield f"{m[1]} label {m[2]!r} is not {label_kind} " \
                  f"(expected {shape})"
    if ("{" in name or "}" in name) and not _METRIC_LABELED.match(name):
        yield 'malformed labeled metric name (expected base{k="v",...})'


def validate_metrics(path: str) -> Dict[str, object]:
    """Validate a ``/metrics`` payload — the envelope, each entry's
    per-type fields and the name shapes the exporters fold into labels:
    ``{"metrics", "errors"}``."""
    data, _, errors = _load_json(path, METRICS, "metrics")
    metrics = data["metrics"] if DICT.ok(data.get("metrics")) else {}
    for name in sorted(metrics):
        where = f"metrics[{name!r}]: "
        errors += check(metrics[name], METRIC_ENTRY, where)
        errors += [where + e for e in _metric_name_errors(name)]
        if _full(errors):
            break
    return {"metrics": len(metrics), "errors": errors}


def _jobstore():
    from ..service import jobstore  # the service package is heavy to import
    return jobstore


JOB = Record(
    {"id": (True, STR), "state": (True, STR), "args": (True, LIST),
     "train_args": (True, LIST), "knobs": (True, DICT),
     "cache_hit": (True, BOOL), "warm": (True, BOOL),
     "fingerprint": (True, STR), "result": (False, DICT.nullable())},
    ((lambda j: STR.ok(j.get("id")) and not _JOB_ID.match(j["id"]),
      "job id {id!r} does not match j<N>"),
     (lambda j: STR.ok(j.get("state"))
      and j["state"] not in _jobstore().JOB_STATES,
      "unknown job state {state!r}"),
     (lambda j: LIST.ok(j.get("args")) and not all(map(INT.ok, j["args"])),
      "job args is not a list of integers"),
     (lambda j: LIST.ok(j.get("train_args"))
      and not all(map(INT.ok, j["train_args"])),
      "job train_args is not a list of integers"),
     (lambda j: j.get("fingerprint") == "", "job has an empty fingerprint")))
JOB_ENVELOPE = Record({"service_format": (True, INT),
                       "generated_unix": (True, NUM),
                       "job": (True, DICT.of(JOB))})
DONE_RESULT = Record(
    {"table1": (True, DICT), "table3": (True, DICT),
     "misspeculations": (True, INT), "recoveries": (True, INT),
     "squashed_iterations": (True, INT), "checkpoints": (True, INT),
     "output_matches": (True, BOOL), "forensics": (False, DICT)},
    ((lambda r: r.get("output_matches") is not True,
      "must have output_matches: true"),
     (lambda r: INT.ok(r.get("misspeculations")) and r["misspeculations"] > 0
      and "forensics" not in r,
      "misspeculations without a forensics summary")))


def validate_job(path: str) -> Dict[str, object]:
    """Validate a ``repro serve`` ``GET /jobs/<id>`` payload, a ``done``
    job's result included: ``{"jobs", "errors"}``."""
    data, _, errors = _load_json(path, JOB_ENVELOPE, "job")
    job = data.get("job")
    if DICT.ok(job) and job.get("state") == _jobstore().STATE_DONE:
        errors += check(job.get("result"), DONE_RESULT, "done result: ")
    return {"jobs": int(DICT.ok(job)), "errors": errors}


#: Prometheus text exposition 0.0.4 line grammar (the subset we emit).
_PROM_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
                          r"(?:\{(?P<labels>[^{}]*)\})? (?P<value>\S+)$")
_PROM_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"$')
_PROM_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def _check_bucket_series(fam: str, label_key, series, count,
                         errors: List[str]) -> None:
    """Lint one histogram's buckets for one label set: ``le`` ascending to
    ``+Inf``, counts cumulative, the ``+Inf`` bucket equal to ``_count``."""
    ctx = fam + ("{" + ",".join(f'{k}="{v}"' for k, v in label_key) + "}"
                 if label_key else "")
    prev_le = prev_n = float("-inf")
    for le_txt, n in series:
        try:
            le = float(le_txt)  # "+Inf" parses to inf
        except ValueError:
            errors.append(f"{ctx}: unparseable le {le_txt!r}")
            return
        if le <= prev_le:
            errors.append(f"{ctx}: le ladder not strictly ascending "
                          f"at le={le_txt}")
            return
        if n < prev_n:
            errors.append(f"{ctx}: bucket counts not cumulative at "
                          f"le={le_txt} ({n} < {prev_n})")
            return
        prev_le, prev_n = le, n
    if series[-1][0] != "+Inf":
        errors.append(f"{ctx}: bucket series missing +Inf bucket")
    elif count is not None and series[-1][1] != count:
        errors.append(f"{ctx}: +Inf bucket {series[-1][1]} != _count "
                      f"{count}")


def _comment_error(parts: List[str], families: Dict[str, str]
                   ) -> Optional[str]:
    """Declare the family of a ``# TYPE`` comment; the comment's error."""
    if parts[1:2] != ["TYPE"]:
        return (f"unknown comment form {parts[1]!r}" if len(parts) >= 2
                and parts[1] not in ("HELP", "EOF") else None)
    if len(parts) != 4:
        return "malformed TYPE comment"
    if not _PROM_METRIC_NAME.match(parts[2]):
        return f"bad family name {parts[2]!r}"
    if parts[3] not in _PROM_TYPES:
        return f"unknown family type {parts[3]!r}"
    if parts[2] in families:
        return f"duplicate TYPE for {parts[2]!r}"
    families[parts[2]] = parts[3]
    return None


def validate_prom(path: str, max_errors: int = 20) -> Dict[str, object]:
    """Line-lint a ``/metrics.prom`` exposition (grammar, TYPE families,
    histogram buckets): ``{"samples", "families", "errors"}``."""
    errors: List[str] = []
    families: Dict[str, str] = {}
    samples = 0
    # (family, label set minus le) -> [(le, value), ...] and -> _count.
    bucket_series: Dict[tuple, List[tuple]] = {}
    bucket_counts: Dict[tuple, float] = {}
    for lineno, line in _lines(path):
        where = f"line {lineno}: "
        if line.startswith("#"):
            error = _comment_error(line.split(), families)
            if error:
                errors.append(where + error)
            continue
        m = _PROM_SAMPLE.match(line)
        if not m:
            errors.append(f"{where}unparseable sample line {line!r}")
            continue
        samples += 1
        name = m.group("name")
        base, suffix = next(
            ((name[:-len(s)], s) for s in ("_count", "_sum", "_bucket")
             if name.endswith(s) and name[:-len(s)] in families), (name, ""))
        if base not in families:
            errors.append(f"{where}sample {name!r} has no preceding "
                          f"TYPE declaration")
        raw = m.group("labels").split(",") if m.group("labels") else []
        bad = next((pair for pair in raw if not _PROM_LABEL.match(pair)), None)
        if bad is not None:
            errors.append(f"{where}bad label pair {bad!r}")
        labels = {k: v.strip('"')
                  for k, _, v in (pair.partition("=") for pair in raw)}
        try:
            value = float(m.group("value"))
        except ValueError:
            errors.append(f"{where}non-numeric value {m.group('value')!r}")
            value = None
        if families.get(base) == "histogram" and value is not None \
                and bad is None:
            le = labels.pop("le", None)
            key = (base, tuple(sorted(labels.items())))
            if suffix == "_bucket" and le is None:
                errors.append(f"{where}histogram _bucket sample missing "
                              f"le label")
            elif suffix == "_bucket":
                bucket_series.setdefault(key, []).append((le, value))
            elif suffix == "_count":
                bucket_counts[key] = value
        if _full(errors, max_errors):
            break
    if len(errors) < max_errors:
        for key, series in bucket_series.items():
            _check_bucket_series(*key, series, bucket_counts.get(key), errors)
            if _full(errors, max_errors):
                break
        errors += [f"{fam}: histogram family has no _bucket samples"
                   for fam, ftype in families.items() if ftype == "histogram"
                   and not any(k[0] == fam for k in bucket_series)]
    if samples == 0:
        errors.append("exposition contains no samples")
    return {"samples": samples, "families": families, "errors": errors}


#: Flag -> (validator, the report key of its record count, the artifact);
#: no flag validates a JSONL trace.
FORMATS = {
    None: (validate_jsonl, "events", "JSONL trace (no flag)"),
    "chrome": (validate_chrome, "events", "Chrome trace_event JSON"),
    "flight": (validate_flight, "records", "flight-recorder JSONL dump"),
    "explain": (validate_explain, "diagnoses", "'repro explain --json' JSON"),
    "metrics": (validate_metrics, "metrics", "status endpoint /metrics JSON"),
    "prom": (validate_prom, "samples", "Prometheus text (/metrics.prom)"),
    "job": (validate_job, "jobs", "'repro serve' GET /jobs/<id> payload"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.schema",
        description="validate a repro observability artifact: "
                    + ", ".join(what for _, _, what in FORMATS.values()))
    parser.add_argument("path", help="file to validate")
    mode = parser.add_mutually_exclusive_group()
    for flag, (_, _, what) in FORMATS.items():
        if flag is not None:
            mode.add_argument(f"--{flag}", dest="format", action="store_const",
                              const=flag, help=f"validate as {what}")
    args = parser.parse_args(argv)
    validator, count_key, _ = FORMATS[args.format]
    report = validator(args.path)
    for err in report["errors"]:
        print(f"error: {err}", file=sys.stderr)
    count, failed = report[count_key], len(report["errors"])
    print(f"FAIL: {args.path}: {failed} error(s) in {count} record(s)"
          if failed else f"ok: {args.path}: {count} record(s) valid")
    return int(bool(failed))


if __name__ == "__main__":
    sys.exit(main())
