"""The one telemetry file format: Chrome/Perfetto ``trace_event`` JSON.

The exporter emits the JSON object format — ``{"traceEvents": [...]}`` —
with complete (``"X"``) spans and one final ``"C"`` counter sample per
merged counter, timestamps rebased to the earliest event and expressed in
microseconds as the format requires.  The output loads directly in
``chrome://tracing`` and https://ui.perfetto.dev.

:func:`report_from_trace` is the one reader: ``repro-trace`` and
``repro-report --telemetry`` both rebuild a
:class:`~repro.obs.telemetry.TelemetryReport` through it.
:func:`validate_trace_events` is the schema check they run first: it
returns a list of problems (empty == valid) instead of raising, so callers
can render all of them.
"""

from __future__ import annotations

import json
from pathlib import Path

from .telemetry import TelemetryReport

#: Phases accepted by the trace_event validator (the subset we emit plus the
#: begin/end/metadata phases other tools commonly produce).
VALID_PHASES = {"X", "B", "E", "i", "I", "C", "M"}


def _rebase_us(ts: float, epoch: float) -> float:
    return round(1e6 * (ts - epoch), 3)


def to_trace_events(report: TelemetryReport) -> dict:
    """The report as a Chrome ``trace_event`` JSON-object payload."""
    epoch = min((event["ts"] for event in report.events), default=0.0)
    last_us = 0.0
    trace_events: list[dict] = []
    pids = sorted({event["pid"] for event in report.events}) or [0]
    for pid in pids:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": pid,
                "args": {"name": f"{report.engine} worker {pid}"},
            }
        )
    for event in report.events:
        ts_us = _rebase_us(event["ts"], epoch)
        entry = {
            "name": event["name"],
            "cat": event["cat"] or report.engine,
            "ph": event["ph"],
            "ts": ts_us,
            "pid": event["pid"],
            "tid": event["pid"],
        }
        entry["dur"] = round(1e6 * event["dur"], 3)
        last_us = max(last_us, ts_us + entry["dur"])
        if event["args"]:
            entry["args"] = dict(event["args"])
        trace_events.append(entry)
    for name in sorted(report.counters):
        trace_events.append(
            {
                "name": name,
                "ph": "C",
                "ts": last_us,
                "pid": pids[0],
                "tid": pids[0],
                "args": {name: report.counters[name]},
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"repro": report.summary()},
    }


def write_trace_json(path: "str | Path", report: TelemetryReport) -> Path:
    """Write the Chrome ``trace_event`` JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_trace_events(report), indent=1), encoding="utf-8")
    return path


# -- re-import -------------------------------------------------------------------------
def report_from_trace(payload: object) -> TelemetryReport:
    """Rebuild a :class:`TelemetryReport` from an exported trace payload.

    The inverse of :func:`to_trace_events`, up to what the format keeps:
    event timestamps come back rebased (relative seconds), and the headline
    numbers come from the ``metadata.repro`` summary block when present,
    the per-scenario latencies as the percentiles and worker utilization
    recorded there, so the rebuilt report's summary is the exported one.
    Complete (``X``) spans become events and the last ``C`` sample of each
    counter its value; every other phase, and any span or sample whose
    numbers are not numbers, is skipped.  This is what lets ``repro-trace`` and
    ``repro-report`` read a trace *file* long after the campaign process is
    gone.
    """
    events: list = []
    metadata: dict = {}
    if isinstance(payload, dict):
        events = payload.get("traceEvents") or []
        meta = payload.get("metadata")
        if isinstance(meta, dict) and isinstance(meta.get("repro"), dict):
            metadata = meta["repro"]
    elif isinstance(payload, list):
        events = payload
    counters: dict[str, float] = {}
    normalized: list[dict] = []
    for event in events:
        if not isinstance(event, dict):
            continue
        phase = event.get("ph")
        args = event.get("args") if isinstance(event.get("args"), dict) else None
        if phase == "C":
            for name, value in (args or {}).items():
                if isinstance(value, (int, float)):
                    counters[name] = float(value)
            continue
        ts, dur = event.get("ts"), event.get("dur")
        if phase != "X" or not (
            isinstance(ts, (int, float)) and isinstance(dur, (int, float))
        ):
            continue
        normalized.append(
            {
                "ph": phase,
                "name": str(event.get("name", "")),
                "cat": str(event.get("cat", "")),
                "ts": float(ts) / 1e6,
                "dur": float(dur) / 1e6,
                "args": args,
                "pid": int(event["pid"]) if isinstance(event.get("pid"), int) else 0,
            }
        )
    normalized.sort(key=lambda event: event["ts"])
    latency = metadata.get("latency_seconds")
    utilization = metadata.get("worker_utilization")
    return TelemetryReport(
        engine=str(metadata.get("engine", "trace")),
        scenarios=int(metadata.get("scenarios", 0)),
        executed=int(metadata.get("executed", 0)),
        loaded=int(metadata.get("loaded", 0)),
        wall=float(metadata.get("wall_seconds", 0.0)),
        workers=int(metadata.get("workers", 1)),
        counters=counters,
        events=normalized,
        dropped=int(metadata.get("dropped_events", 0)),
        exported_latency={
            name: float(seconds)
            for name, seconds in (latency.items() if isinstance(latency, dict) else ())
            if isinstance(seconds, (int, float))
        },
        exported_utilization=(
            float(utilization) if isinstance(utilization, (int, float)) else None
        ),
    )


# -- validation ------------------------------------------------------------------------
def validate_trace_events(payload: object) -> list[str]:
    """Check a parsed JSON payload against the ``trace_event`` object format.

    Returns human-readable problems; an empty list means the payload is a
    valid Chrome trace.  Both the JSON-object form (``{"traceEvents": []}``)
    and the bare JSON-array form are accepted, mirroring what Chrome loads.
    """
    problems: list[str] = []
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object has no 'traceEvents' array"]
    elif isinstance(payload, list):
        events = payload
    else:
        return ["payload is neither a trace object nor an event array"]
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing/empty 'name'")
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            problems.append(f"{where}: invalid phase {phase!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number, got {ts!r}")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                problems.append(f"{where}: '{key}' must be an integer")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs non-negative 'dur'")
        if phase == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: counter event needs an 'args' object")
        if "args" in event and event["args"] is not None and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems
