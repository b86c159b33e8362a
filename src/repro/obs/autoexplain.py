"""auto_explain: capture the full story of requests that ran slow.

A latency regression investigated tomorrow needs evidence recorded today.
When enabled, every request whose span tree took ``threshold_ms`` or
longer, from its root's start to its end, is captured: its SQL text,
trace id, session, duration and span tree, what the engine measured of
the statement it ran (planning/execution latency, rows, I/O) and, for a
SELECT, the full EXPLAIN ANALYZE tree (per-node actuals) and a one-line
summary of the optimizer's search.  A write or a COMMIT stalled on its
fsync is slow by the same rule as a SELECT.  One bounded in-memory ring
serves ``sys_stat_traces`` and the REPL's ``\\slow``; an on-disk JSONL
file mirrors it, so slow-request evidence survives the process.

The capture log is bounded both ways: the ring keeps the most recent
``CAPACITY`` captures, and the JSONL file is compacted back to the ring's
contents once it holds more than twice that — the file never grows past
``2 * CAPACITY`` lines.

Statements run at FULL instrumentation while auto_explain is enabled, so
a capture carries real per-node timing; the cost is the FULL-level
overhead on every statement (see E13), which is the trade PostgreSQL's
``auto_explain.log_analyze`` makes.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from .trace import RequestTrace


@dataclass
class AutoExplainConfig:
    """Dials for the slow-request capture."""

    enabled: bool = False
    threshold_ms: float = 100.0  # capture requests at or above this
    path: Optional[str] = None  # JSONL mirror; None = in-memory only


class AutoExplain:
    """Bounded capture log of slow requests (see module docstring)."""

    #: captures kept (ring + compacted file)
    CAPACITY = 64

    def __init__(self, config: Optional[AutoExplainConfig] = None):
        self.config = config or AutoExplainConfig()
        self._entries: Deque[Dict[str, Any]] = deque(maxlen=self.CAPACITY)
        #: lines in the JSONL file
        self._file_lines = 0
        self.captured_total = 0

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def threshold_ms(self) -> float:
        return self.config.threshold_ms

    def configure(self, **kwargs: Any) -> None:
        """Update config fields in place (``enabled=True, threshold_ms=5``)."""
        for key, value in kwargs.items():
            if not hasattr(self.config, key):
                raise ValueError(f"unknown auto_explain option {key!r}")
            setattr(self.config, key, value)

    # -- capture -------------------------------------------------------------

    def maybe_capture(
        self,
        trace: RequestTrace,
        execution_ms: Optional[float] = None,
        planning_ms: float = 0.0,
        rows: int = 0,
        reads: int = 0,
        writes: int = 0,
        plan: Any = None,
        search: Any = None,
    ) -> Optional[Dict[str, Any]]:
        """Capture one finished request if it crossed the threshold.

        The measurements are the statement's, as the engine recorded
        them; a request that recorded none (BEGIN, COMMIT, DDL) reports
        its duration as ``execution_ms``.  *plan* (a SELECT's, with
        actuals) and *search* are rendered only for a capture.  Returns
        the entry, or None when below threshold or disabled; the entry
        is appended to the ring and (when ``path`` is set) to the JSONL
        file.
        """
        if not self.config.enabled or trace.duration_ms < self.config.threshold_ms:
            return None
        entry: Dict[str, Any] = {
            "captured_at": time.time(),
            "sql": trace.sql,
            "execution_ms": (
                trace.duration_ms if execution_ms is None else execution_ms
            ),
            "planning_ms": planning_ms,
            "rows": rows,
            "reads": reads,
            "writes": writes,
            "threshold_ms": self.config.threshold_ms,
            "trace_id": trace.trace_id,
            "session_id": trace.session_id,
            "duration_ms": trace.duration_ms,
            "trace": trace.root.to_dict(),
        }
        if plan is not None:
            entry["plan"] = plan.pretty(actuals=True)
            if search:
                entry["search"] = search.render(top=3)
        self._entries.append(entry)
        self.captured_total += 1
        self._persist(entry)
        return entry

    def _persist(self, entry: Dict[str, Any]) -> None:
        path = self.config.path
        if path is None:
            return
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        self._file_lines += 1
        if self._file_lines > 2 * self.CAPACITY:
            self._compact()

    def _compact(self) -> None:
        """Rewrite the JSONL file down to the ring's contents."""
        path = self.config.path
        if path is None:
            return
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            for entry in self._entries:
                handle.write(json.dumps(entry) + "\n")
        os.replace(tmp, path)
        self._file_lines = len(self._entries)

    # -- reading -------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Captures currently in the ring, oldest first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
