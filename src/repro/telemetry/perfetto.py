"""Chrome/Perfetto ``trace_event`` JSON export.

Produces the JSON object format of the Trace Event spec (the format
both ``chrome://tracing`` and https://ui.perfetto.dev load):

* one *process* per rank (``pid = rank + 1``; ``pid 0`` is the cluster
  itself, holding spans with no rank, e.g. the driver's
  ``inic-exchange`` card spans),
* one *thread* per span name inside each process, so each phase renders
  as its own track,
* ``"X"`` (complete) events for spans, with microsecond ``ts``/``dur``,
* ``"C"`` (counter) events sampling every registry instrument at the
  end of the run,
* ``"M"`` metadata events naming processes and threads.

Everything is emitted in a deterministic order and serialized with
sorted keys, so the exported file is byte-identical for identical runs
regardless of ``--jobs N`` or host.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..sim.trace import TraceRecorder, merge_intervals
from .registry import MetricsRegistry

__all__ = [
    "to_trace_events",
    "export_trace",
    "validate_trace",
    "phase_totals_from_trace",
]

_US = 1e6  # trace_event timestamps are microseconds


def _pid(span) -> int:
    rank = span.meta.get("rank")
    return int(rank) + 1 if isinstance(rank, int) else 0


def to_trace_events(
    trace: TraceRecorder,
    registry: Optional[MetricsRegistry] = None,
    now: Optional[float] = None,
) -> dict[str, Any]:
    """The run as a ``trace_event`` JSON object (not yet serialized)."""
    end = trace.sim.now if now is None else now
    events: list[dict[str, Any]] = []

    # Stable thread ids: span names in first-appearance order.
    tids: dict[str, int] = {}
    pids: dict[int, None] = {}
    for span in trace.spans:
        tids.setdefault(span.name, len(tids) + 1)
        pids.setdefault(_pid(span), None)

    for pid in sorted(pids):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": "cluster" if pid == 0 else f"node{pid - 1}"},
            }
        )
        for name, tid in tids.items():
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": name},
                }
            )

    for span in trace.spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": "phase",
                "pid": _pid(span),
                "tid": tids[span.name],
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "args": {k: v for k, v in sorted(span.meta.items())},
            }
        )

    if registry is not None:
        for inst in registry.instruments():
            events.append(
                {
                    "ph": "C",
                    "name": inst.name,
                    "cat": inst.kind,
                    "pid": 0,
                    "tid": 0,
                    "ts": end * _US,
                    "args": {"value": float(inst.value())},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "simulated_seconds": end,
            "spans": len(trace.spans),
            "instruments": 0 if registry is None else len(registry),
        },
    }


def export_trace(
    path: str,
    trace: TraceRecorder,
    registry: Optional[MetricsRegistry] = None,
    now: Optional[float] = None,
) -> str:
    """Serialize :func:`to_trace_events` to ``path``; returns ``path``.

    Serialization is canonical (sorted keys, fixed separators) so the
    file bytes depend only on the simulated run.
    """
    doc = to_trace_events(trace, registry, now)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def validate_trace(doc: Any) -> list[str]:
    """Validate ``doc`` against the trace_event schema we emit.

    Returns a list of problems (empty = valid).  Intentionally strict
    about the fields Perfetto needs: phase, name, pid/tid ints,
    microsecond ``ts``, ``dur`` on complete events, ``args`` dicts on
    metadata/counter events.
    """
    problems: list[str] = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level must be an object with a traceEvents array"]
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["traceEvents must be a non-empty array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M", "C", "B", "E", "i"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing event name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if not isinstance(ev.get("ts"), (int, float)) or ev.get("ts", -1) < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                problems.append(f"{where}: X event needs non-negative dur")
        if ph in ("M", "C"):
            args = ev.get("args")
            if not isinstance(args, dict):
                problems.append(f"{where}: {ph} event needs an args object")
            elif ph == "M" and "name" not in args:
                problems.append(f"{where}: metadata event needs args.name")
            elif ph == "C" and not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: counter args must be numbers")
    return problems


def phase_totals_from_trace(doc: dict[str, Any]) -> dict[str, float]:
    """Per-phase wall seconds (interval union) re-derived from the
    exported JSON — what a consumer of the trace file would compute,
    compared against the run's own breakdown by the telemetry tests."""
    intervals: dict[str, list[tuple[float, float]]] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X" or ev.get("cat") != "phase":
            continue
        start = ev["ts"] / _US
        intervals.setdefault(ev["name"], []).append(
            (start, start + ev["dur"] / _US)
        )
    return {
        name: sum(e - s for s, e in merge_intervals(ivs))
        for name, ivs in intervals.items()
    }
