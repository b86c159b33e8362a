"""auto_explain: capture the full story of statements that ran slow.

A latency regression investigated tomorrow needs evidence recorded today.
When enabled, every user statement whose execution time crosses
``threshold_ms`` is captured — SQL text, planning/execution latency, I/O,
the full EXPLAIN ANALYZE tree (per-node actuals), and a one-line summary
of the optimizer's search — into a bounded in-memory ring mirrored to an
on-disk JSONL file, so slow-query evidence survives the process.

The capture log is bounded both ways: the ring keeps the most recent
``capacity`` captures, and the JSONL file is compacted back to the ring's
contents once appends exceed twice the capacity — the file never grows
without bound.

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


@dataclass
class AutoExplainConfig:
    """Dials for the slow-statement capture hook."""

    enabled: bool = False
    threshold_ms: float = 100.0  # capture statements at or above this
    path: Optional[str] = None  # JSONL mirror; None = in-memory only
    capacity: int = 64  # captures kept (ring + compacted file)


class AutoExplain:
    """Bounded capture log of slow statements (see module docstring)."""

    def __init__(self, config: Optional[AutoExplainConfig] = None):
        self.config = config or AutoExplainConfig()
        self._entries: Deque[Dict[str, Any]] = deque(
            maxlen=max(1, self.config.capacity)
        )
        self._appends_since_compact = 0
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
        if self.config.capacity != self._entries.maxlen:
            self._entries = deque(
                self._entries, maxlen=max(1, self.config.capacity)
            )

    # -- capture -------------------------------------------------------------

    def maybe_capture(
        self,
        sql: str,
        execution_ms: float,
        planning_ms: float,
        rows: int,
        plan_text: str,
        reads: int = 0,
        writes: int = 0,
        search_summary: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Capture one statement if it crossed the threshold.

        Returns the capture entry, or None when below threshold or
        disabled.  The entry is appended to the ring and (when ``path``
        is set) to the JSONL file.
        """
        if not self.config.enabled or execution_ms < self.config.threshold_ms:
            return None
        entry: Dict[str, Any] = {
            "captured_at": time.time(),
            "sql": sql,
            "execution_ms": execution_ms,
            "planning_ms": planning_ms,
            "rows": rows,
            "reads": reads,
            "writes": writes,
            "threshold_ms": self.config.threshold_ms,
            "plan": plan_text,
        }
        if search_summary:
            entry["search"] = search_summary
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
        self._appends_since_compact += 1
        if self._appends_since_compact > 2 * max(1, self.config.capacity):
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
        self._appends_since_compact = 0

    # -- reading -------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Captures currently in the ring, oldest first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._appends_since_compact = 0
        if self.config.path is not None and os.path.exists(self.config.path):
            os.remove(self.config.path)

    @staticmethod
    def load(path: str) -> List[Dict[str, Any]]:
        """Read a capture file back (one JSON object per line)."""
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    entries.append(json.loads(line))
        return entries
