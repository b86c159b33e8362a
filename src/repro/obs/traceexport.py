"""Chrome trace-event export for request traces.

Converts a :class:`~repro.obs.trace.RequestTrace` (or a bare
:class:`~repro.obs.trace.Span` tree) into the Chrome trace-event JSON
format — the ``{"traceEvents": [...]}`` object that ``chrome://tracing``
and Perfetto (https://ui.perfetto.dev) load directly.  Each span becomes
one complete ("ph": "X") event with microsecond ``ts``/``dur``, all on
one track, so nesting renders as the request's flame graph.

:func:`validate_chrome_trace` is the structural validator the tests and
the CI smoke step hold exported files to — a cheap schema check, not a
full re-implementation of the viewer's parser.

:class:`TraceRing` is the bounded ring of recently captured slow
requests behind ``sys_stat_traces``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional, Union

from .trace import RequestTrace, Span

_DEFAULT_PID = 1


def chrome_trace_events(
    trace: Union[RequestTrace, Span],
    process_name: str = "repro",
) -> Dict[str, Any]:
    """Render a span tree as a Chrome trace-event JSON object."""
    if isinstance(trace, RequestTrace):
        root, trace_id, sql = trace.root, trace.trace_id, trace.sql
    else:
        root, trace_id, sql = trace, "", ""
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _DEFAULT_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]

    def emit(span: Span) -> None:
        args: Dict[str, Any] = {}
        if span.counters:
            args.update(span.counters)
        if span.attrs:
            args.update(span.attrs)
        if span is root:
            if trace_id:
                args["trace_id"] = trace_id
            if sql:
                args["sql"] = sql
        event: Dict[str, Any] = {
            "ph": "X",
            "pid": _DEFAULT_PID,
            "tid": 1,
            "name": span.name,
            "ts": round(span.start_ms * 1000.0, 3),
            "dur": round(max(span.duration_ms, 0.0) * 1000.0, 3),
        }
        if args:
            event["args"] = args
        events.append(event)
        for child in span.children:
            emit(child)

    if root is not None:
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structurally validate a Chrome trace-event object.

    Returns a list of problems (empty means valid).  Checks the shape
    Perfetto's legacy-JSON importer requires: a ``traceEvents`` list of
    dicts, every event with a string ``name``, a known phase, integer
    ``pid``/``tid``, and — for complete events — non-negative numeric
    ``ts`` and ``dur``.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["top-level value is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "M", "i", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} is not an int")
        if ph == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(f"{where}: {key} is not a number")
                elif value < 0:
                    problems.append(f"{where}: {key} is negative")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args is not an object")
    return problems


def export_chrome_trace(
    trace: Union[RequestTrace, Span],
    path: Optional[str] = None,
) -> str:
    """Render to JSON text; optionally write the file Perfetto opens."""
    text = json.dumps(chrome_trace_events(trace), indent=1)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


class TraceRing:
    """Bounded, thread-safe ring of recently captured request traces."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.captured = 0

    def record(self, trace: RequestTrace) -> None:
        with self._lock:
            self._ring.append(trace)
            self.captured += 1

    def entries(self) -> List[RequestTrace]:
        with self._lock:
            return list(self._ring)

    def last(self) -> Optional[RequestTrace]:
        with self._lock:
            return self._ring[-1] if self._ring else None

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
