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
records nothing.  An enabled one costs about a microsecond a span: a
:class:`Span` is its own context manager, allocates its containers when
the first counter or child arrives, and a trace id is a counter behind
a per-process random prefix.

Request-scoped tracing adds identity on top of the tree shape: every
span carries a ``span_id``/``parent_id`` pair and the tracer carries a
``trace_id`` shared by every span it opens.  A trace's owner (the server
per request, ``Database._run_statement`` otherwise) installs its tracer
on the thread with :func:`activate_tracer`; every layer below it opens
spans with :func:`trace_span` — the only route a tracer travels.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One timed phase: offset + duration (ms), counters, children.
    ``with tracer.span(name)`` enters the span itself: entering stamps its
    start and hangs it under the innermost open span; leaving, normally
    or by an exception, stamps its duration."""

    __slots__ = (
        "name", "start_ms", "duration_ms", "_counters", "_children",
        "span_id", "parent_id", "attrs", "_tracer", "_outer",
    )

    def __init__(
        self, name: str, start_ms: float = 0.0, span_id: int = 0, parent_id: int = 0
    ):
        self.name = name
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self._counters: Optional[Dict[str, float]] = None
        self._children: Optional[List["Span"]] = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Optional[Dict[str, str]] = None
        #: while open: the tracer it is open on and the span that was
        #: innermost before it; both None once it has closed
        self._tracer: Optional["Tracer"] = None
        self._outer: Optional["Span"] = None

    @property
    def counters(self) -> Dict[str, float]:
        if self._counters is None:
            self._counters = {}
        return self._counters

    @property
    def children(self) -> List["Span"]:
        if self._children is None:
            self._children = []
        return self._children

    def __enter__(self) -> "Span":
        tracer = self._tracer
        now = time.perf_counter()
        if tracer.root is None:
            tracer._t0 = now
        self.start_ms = (now - tracer._t0) * 1000.0
        self.span_id = tracer._next_id
        tracer._next_id += 1
        outer = self._outer = tracer._open
        # a second top-level span hangs under the root: one connected tree
        parent = outer or tracer.root
        if parent is None:
            tracer.root = self
        else:
            self.parent_id = parent.span_id
            if parent._children is None:
                parent._children = [self]
            else:
                parent._children.append(self)
        tracer._open = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        tracer._open = self._outer
        self._tracer = self._outer = None
        self.duration_ms = (
            (time.perf_counter() - tracer._t0) * 1000.0 - self.start_ms
        )

    def add(self, name: str, value: float = 1.0) -> None:
        """Accumulate a counter on this span."""
        counters = self._counters
        if counters is None:
            self._counters = {name: 0.0 + value}
        else:
            counters[name] = counters.get(name, 0.0) + value

    def set_attr(self, name: str, value: str) -> None:
        """Attach a string attribute (lock name, table...)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[name] = str(value)

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first span named *name*."""
        if self.name == name:
            return self
        for child in self._children or ():
            hit = child.find(name)
            if hit is not None:
                return hit
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span named *name*, in walk order."""
        return [s for s in self.walk() if s.name == name]

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self._children or ():
            yield from child.walk()

    def child_time_ms(self) -> float:
        return sum(c.duration_ms for c in self._children or ())

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
        if self._counters:
            out["counters"] = dict(self._counters)
        if self._children:
            out["children"] = [c.to_dict() for c in self._children]
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
        span._counters = dict(data.get("counters", {}))
        attrs = data.get("attrs")
        span.attrs = dict(attrs) if attrs else None
        span._children = [cls.from_dict(c) for c in data.get("children", [])]
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
            "  " + " ".join(f"{k}={v:g}" for k, v in self._counters.items())
            if self._counters
            else ""
        )
        lines = [
            "  " * indent
            + f"{self.name}: {self.duration_ms:.3f} ms{attrs}{counters}"
        ]
        for child in self._children or ():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ms:.3f}ms, "
            f"{len(self._children or ())} children)"
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


class _Fold:
    """The scope of a ``merge=True`` interval its closed sibling absorbs."""

    __slots__ = ("span", "t_in")

    def __init__(self, span: Span):
        self.span = span

    def __enter__(self) -> Span:
        self.t_in = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.span.duration_ms += (time.perf_counter() - self.t_in) * 1000.0
        self.span.add("count", 1.0)


_TRACE_IDS = itertools.count()
_TRACE_PREFIX = ""


def _new_trace_prefix() -> None:
    global _TRACE_PREFIX
    _TRACE_PREFIX = os.urandom(4).hex()


_new_trace_prefix()
# a forked child keeps the parent's counter, so it takes its own prefix
os.register_at_fork(after_in_child=_new_trace_prefix)


def new_trace_id() -> str:
    """A 16-hex-digit request trace id: this process's random prefix,
    then a counter (``next`` on it is atomic, so ids never repeat)."""
    return f"{_TRACE_PREFIX}{next(_TRACE_IDS) & 0xFFFFFFFF:08x}"


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
        #: the innermost open span
        self._open: Optional[Span] = None
        self._next_id = 1
        self._t0 = 0.0

    def now_ms(self) -> float:
        """Milliseconds since this tracer's zero point."""
        return (time.perf_counter() - self._t0) * 1000.0

    def span(self, name: str, merge: bool = False):
        """A child span of the innermost open span, to be entered with
        ``with``.

        With ``merge=True``, a closed sibling of the same name (the
        previous child of the current parent) absorbs this interval
        instead of appending a new node: its duration accumulates and a
        ``count`` counter tracks how many intervals were folded in.
        Per-record hot paths (``wal.append`` during a bulk load) use it
        to keep trees bounded.
        """
        if not self.enabled:
            return NULL_SPAN
        if merge and self._open is not None:
            siblings = self._open._children
            if siblings and siblings[-1].name == name:
                return _Fold(siblings[-1])
        span = Span(name)
        span._tracer = self
        if merge:
            span.add("count", 1.0)
        return span

    def record_span(self, name: str, duration_ms: float) -> Optional[Span]:
        """Attach an interval that ended just now but was measured
        elsewhere (e.g. before the tracer existed, like protocol decode)
        under the current span."""
        if not self.enabled:
            return None
        # clamp: an interval measured before the root opened (protocol
        # decode) would otherwise start at a negative offset
        start = max(0.0, self.now_ms() - duration_ms)
        span = Span(name, start, span_id=self._next_id)
        self._next_id += 1
        span.duration_ms = duration_ms
        parent = self._open or self.root
        if parent is None:
            self.root = span
        else:
            span.parent_id = parent.span_id
            parent.children.append(span)
        return span

    def current(self):
        """The innermost open span (NULL_SPAN when disabled or idle)."""
        if self.enabled and self._open is not None:
            return self._open
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


class activate_tracer:
    """Install *tracer* as this thread's active tracer for the scope."""

    __slots__ = ("tracer", "prev")

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer

    def __enter__(self) -> Optional[Tracer]:
        self.prev = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self.tracer
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tracer = self.prev


def trace_span(name: str, merge: bool = False):
    """Open *name* on the thread's active tracer; NULL_SPAN when idle."""
    tracer = getattr(_ACTIVE, "tracer", None)
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, merge=merge)
