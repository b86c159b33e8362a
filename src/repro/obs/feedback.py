"""Feedback-driven cardinality correction (the LEO idea, miniature).

Every instrumented execution leaves estimated-vs-actual row counts on the
plan tree.  :meth:`FeedbackStore.harvest` folds those pairs into per-key
aggregates, where a key identifies *what was being estimated*: the set of
relations joined plus a literal-free fingerprint of the predicates applied
(:func:`feedback_key`).  The planner annotates every scan and join
candidate with its key at pricing time (``PhysicalPlan.feedback_key``), so
harvesting is a plain tree walk and — crucially — the key the estimator
looks up during later planning is byte-identical to the key the actuals
were recorded under.

A correction is the geometric mean of observed ``actual / estimated``
ratios, clamped to ``[1/clamp, clamp]``.  Corrections only ever adjust
*estimates*; plans change, results cannot (the differential property test
pins this).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence


def normalized_predicate(expr: Any) -> str:
    """Literal-free text of one predicate: constants become ``'?'`` so the
    same query shape with different constants shares a feedback key."""
    from ..expr import Literal, map_expr

    stripped = map_expr(
        expr, lambda e: Literal("?") if isinstance(e, Literal) else e
    )
    return str(stripped)


def feedback_key(tables: Iterable[str], conjuncts: Sequence[Any]) -> str:
    """Stable key for one estimation target: sorted relation identifiers +
    sorted literal-free predicate fingerprints."""
    parts = sorted(str(t) for t in tables)
    preds = sorted(normalized_predicate(c) for c in conjuncts)
    raw = "|".join(parts) + "::" + "&".join(preds)
    return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]


def scan_key(table_name: str, binding: str, conjuncts: Sequence[Any]) -> str:
    """Feedback key for one base-relation scan (all access paths for the
    same binding+filters share it)."""
    return feedback_key([f"{table_name} AS {binding}"], conjuncts)


@dataclass
class FeedbackEntry:
    """Aggregated est-vs-actual evidence for one key."""

    samples: int = 0
    log_ratio_sum: float = 0.0  # sum of ln(actual/est)
    est_sum: float = 0.0
    actual_sum: float = 0.0
    worst_q: float = 1.0

    def observe(self, estimated: float, actual: float) -> None:
        est = estimated if estimated > 1.0 else 1.0
        act = actual if actual > 1.0 else 1.0
        self.samples += 1
        self.log_ratio_sum += math.log(act / est)
        self.est_sum += est
        self.actual_sum += act
        q = est / act if est > act else act / est
        if q > self.worst_q:
            self.worst_q = q

    @property
    def ratio(self) -> float:
        """Geometric mean of actual/estimated (> 1 = underestimation)."""
        if not self.samples:
            return 1.0
        return math.exp(self.log_ratio_sum / self.samples)


@dataclass
class FeedbackStore:
    """Keyed est-vs-actual aggregates plus the correction lookup.

    ``clamp`` bounds how far one learned factor may move an estimate
    (default 64x either way); ``min_samples`` is the evidence threshold
    before a correction applies.  The store is bounded: once it holds
    :attr:`MAX_ENTRIES` keys a new key's evidence is dropped and counted
    (``dropped``), never evicting a key already learned.
    """

    #: keys kept: room for the statement store's 128 statements at eight
    #: scans and joins each
    MAX_ENTRIES = 1024

    clamp: float = 64.0
    min_samples: int = 1
    _entries: Dict[str, FeedbackEntry] = field(default_factory=dict)
    dropped: int = field(default=0, init=False)

    def record(self, key: str, estimated: float, actual: float) -> None:
        # finite and non-negative (a NaN fails every comparison)
        if not (0 <= estimated < math.inf and 0 <= actual < math.inf):
            return
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.MAX_ENTRIES:
                self.dropped += 1
                return
            entry = self._entries[key] = FeedbackEntry()
        entry.observe(estimated, actual)

    def correction(self, key: Optional[str]) -> float:
        """Learned multiplier for *key* (1.0 = no evidence / no change)."""
        if key is None:
            return 1.0
        entry = self._entries.get(key)
        if entry is None or entry.samples < self.min_samples:
            return 1.0
        return min(self.clamp, max(1.0 / self.clamp, entry.ratio))

    def has(self, key: Optional[str]) -> bool:
        entry = self._entries.get(key) if key is not None else None
        return entry is not None and entry.samples >= self.min_samples

    def harvest(self, plan: Any, unless: Any = ()) -> int:
        """Fold one executed plan's per-node actuals into the store.

        Nodes count when the planner stamped a ``feedback_key`` and the
        executor filled ``actual_rows``; rescanned nodes (loops > 1)
        contribute their per-loop average, matching the per-scan estimate.
        A plan holding a node of a type in *unless* contributes nothing.
        Returns the number of observations offered to :meth:`record`.
        """
        found = []
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, unless):
                return 0
            stack.extend(node.children())
            if node.feedback_key is not None and node.actual_rows is not None:
                found.append(node)
        for node in found:
            self.record(
                node.feedback_key,
                float(node.est_rows),
                node.actual_rows / (node.actual_loops or 1),
            )
        return len(found)

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Dict[str, FeedbackEntry]:
        return dict(self._entries)
