"""Lightweight span trees for tracing the planner and query lifecycle.

A :class:`Tracer` records a tree of named :class:`Span`\\ s — one per
pipeline phase (parse → view expansion → decorrelation → rewrite → join
enumeration → costing → execute) — each with a start offset, a duration,
and a free-form counter map (plans considered, rewrites fired, ...).

Spans nest by dynamic scope::

    tracer = Tracer()
    with tracer.span("query"):
        with tracer.span("plan") as sp:
            sp.add("plans_considered", 42)
    root = tracer.root            # the finished tree
    text = root.to_json()         # round-trips via Span.from_json

Every child's interval lies inside its parent's, measured with the same
clock, so the sum of child durations never exceeds the parent duration.
A disabled tracer costs one attribute check per ``span()`` call and
records nothing.

Request-scoped tracing adds identity on top of the tree shape: every
span carries a ``span_id``/``parent_id`` pair and the tracer carries a
``trace_id`` shared by every span it opens.  A trace's owner (the server
per request, ``Database._run_statement`` otherwise) installs its tracer
on the thread with :func:`activate_tracer`; every layer below it opens
spans with :func:`trace_span` — the only route a tracer travels.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed phase: offset + duration (ms), counters, children."""

    __slots__ = (
        "name",
        "start_ms",
        "duration_ms",
        "counters",
        "children",
        "span_id",
        "parent_id",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        start_ms: float = 0.0,
        span_id: int = 0,
        parent_id: int = 0,
    ):
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Optional[Dict[str, str]] = None

    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate a counter on this span."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_attr(self, name: str, value: str) -> None:
        """Attach a string attribute (lock name, table...)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[name] = str(value)

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first span named *name*."""
        if self.name == name:
            return self
        for child in self.children:
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span named *name*, in walk order."""
        return [s for s in self.walk() if s.name == name]

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def child_time_ms(self) -> float:
        return sum(c.duration_ms for c in self.children)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
        }
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            data["name"],
            data.get("start_ms", 0.0),
            span_id=data.get("span_id", 0),
            parent_id=data.get("parent_id", 0),
        )
        span.duration_ms = data.get("duration_ms", 0.0)
        span.counters = dict(data.get("counters", {}))
        attrs = data.get("attrs")
        span.attrs = dict(attrs) if attrs else None
        span.children = [cls.from_dict(c) for c in data.get("children", [])]
        return span

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Span":
        return cls.from_dict(json.loads(text))

    def pretty(self, indent: int = 0) -> str:
        attrs = (
            " [" + " ".join(f"{k}={v}" for k, v in self.attrs.items()) + "]"
            if self.attrs
            else ""
        )
        counters = (
            "  " + " ".join(f"{k}={v:g}" for k, v in self.counters.items())
            if self.counters
            else ""
        )
        lines = [
            "  " * indent
            + f"{self.name}: {self.duration_ms:.3f} ms{attrs}{counters}"
        ]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"{len(self.children)} children)"
        )


class _NullSpan:
    """Shared sink for disabled tracers: accepts counters, keeps nothing;
    its own context manager, so an idle :func:`trace_span` returns it."""

    __slots__ = ()

    def add(self, name: str, value: float = 1.0) -> None:
        pass

    def set_attr(self, name: str, value: str) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


def new_trace_id() -> str:
    """A 16-hex-digit request trace id."""
    return uuid.uuid4().hex[:16]


class Tracer:
    """Builds one span tree per traced activity.

    The first ``span()`` entered becomes the root; later spans nest under
    whichever span is currently open.  ``root`` stays valid (and keeps
    being filled in) until the outermost span exits.

    *trace_id* names the request this tree belongs to (generated when
    omitted).
    """

    def __init__(self, enabled: bool = True, trace_id: Optional[str] = None):
        self.enabled = enabled
        self.trace_id = trace_id or (new_trace_id() if enabled else "")
        self.root: Optional[Span] = None
        self._stack: List[Span] = []
        self._next_id = 1
        self._t0 = 0.0

    def _alloc_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def now_ms(self) -> float:
        """Milliseconds since this tracer's zero point."""
        return (time.perf_counter() - self._t0) * 1000.0

    @contextmanager
    def span(self, name: str, merge: bool = False):
        """Open a child span under the innermost open span.

        With ``merge=True``, a closed sibling of the same name (the
        previous child of the current parent) absorbs this interval
        instead of appending a new node: its duration accumulates and a
        ``count`` counter tracks how many intervals were folded in.
        Per-record hot paths (``wal.append`` during a bulk load) use it
        to keep trees bounded.
        """
        if not self.enabled:
            yield NULL_SPAN
            return
        now = time.perf_counter()
        if self.root is None:
            self._t0 = now
        if merge and self._stack:
            siblings = self._stack[-1].children
            if siblings and siblings[-1].name == name:
                prior = siblings[-1]
                t_in = time.perf_counter()
                try:
                    yield prior
                finally:
                    prior.duration_ms += (
                        (time.perf_counter() - t_in) * 1000.0
                    )
                    prior.add("count", 1.0)
                return
        span = Span(name, (now - self._t0) * 1000.0, span_id=self._alloc_id())
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            parent.children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # a second top-level span: keep the tree connected
            span.parent_id = self.root.span_id
            self.root.children.append(span)
        self._stack.append(span)
        try:
            if merge:
                span.add("count", 1.0)
            yield span
        finally:
            self._stack.pop()
            span.duration_ms = (
                (time.perf_counter() - self._t0) * 1000.0 - span.start_ms
            )

    def record_span(
        self,
        name: str,
        duration_ms: float,
        start_ms: Optional[float] = None,
        attrs: Optional[Dict[str, str]] = None,
    ) -> Optional[Span]:
        """Attach a pre-measured interval (e.g. timed before the tracer
        existed, like protocol decode) under the current span."""
        if not self.enabled:
            return None
        now_ms = (time.perf_counter() - self._t0) * 1000.0
        # clamp: an interval measured before the root opened (protocol
        # decode) would otherwise start at a negative offset
        start = now_ms - duration_ms if start_ms is None else start_ms
        span = Span(name, max(0.0, start), span_id=self._alloc_id())
        span.duration_ms = duration_ms
        if attrs:
            for k, v in attrs.items():
                span.set_attr(k, v)
        if self._stack:
            parent = self._stack[-1]
            span.parent_id = parent.span_id
            parent.children.append(span)
        elif self.root is not None:
            span.parent_id = self.root.span_id
            self.root.children.append(span)
        else:
            self.root = span
        return span

    def current(self):
        """The innermost open span (NULL_SPAN when disabled or idle)."""
        if self.enabled and self._stack:
            return self._stack[-1]
        return NULL_SPAN

    def add(self, name: str, value: float = 1.0) -> None:
        """Counter on the innermost open span."""
        self.current().add(name, value)


class RequestTrace:
    """One captured request: identity, statement, and the finished tree."""

    __slots__ = (
        "trace_id",
        "sql",
        "session_id",
        "root",
        "duration_ms",
        "captured_at",
    )

    def __init__(
        self,
        trace_id: str,
        sql: str,
        root: Span,
        session_id: Optional[int] = None,
        captured_at: float = 0.0,
    ):
        self.trace_id = trace_id
        self.sql = sql
        self.session_id = session_id
        self.root = root
        self.duration_ms = root.duration_ms if root is not None else 0.0
        self.captured_at = captured_at or time.time()

    def span_count(self) -> int:
        return sum(1 for _ in self.root.walk()) if self.root else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "sql": self.sql,
            "session_id": self.session_id,
            "duration_ms": self.duration_ms,
            "captured_at": self.captured_at,
            "root": self.root.to_dict() if self.root else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RequestTrace":
        root = data.get("root")
        trace = cls(
            data["trace_id"],
            data.get("sql", ""),
            Span.from_dict(root) if root else Span("request"),
            session_id=data.get("session_id"),
            captured_at=data.get("captured_at", 0.0),
        )
        trace.duration_ms = data.get("duration_ms", trace.duration_ms)
        return trace

    def pretty(self) -> str:
        head = f"trace {self.trace_id}  {self.duration_ms:.3f} ms"
        if self.sql:
            head += f"  {self.sql!r}"
        return head + "\n" + (self.root.pretty(1) if self.root else "")


# -- thread-local active tracer -----------------------------------------------
#
# The tracer is installed for the duration of a request or statement; the
# layers below its owner — planner, envelopes, WalWriter.flush_to,
# TxnManager.lock_table — open spans through trace_span() and pay one
# thread-local read when no trace is active.

_ACTIVE = threading.local()


def active_tracer() -> Optional[Tracer]:
    """The tracer installed on this thread, if any (enabled or not)."""
    return getattr(_ACTIVE, "tracer", None)


@contextmanager
def activate_tracer(tracer: Optional[Tracer]):
    """Install *tracer* as this thread's active tracer for the scope."""
    prev = getattr(_ACTIVE, "tracer", None)
    _ACTIVE.tracer = tracer
    try:
        yield tracer
    finally:
        _ACTIVE.tracer = prev


def trace_span(name: str, merge: bool = False):
    """Open *name* on the thread's active tracer; NULL_SPAN when idle."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, merge=merge)
