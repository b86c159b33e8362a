"""Observability configuration: what the engine records, and how deeply.

Two independent dials:

* :class:`InstrumentLevel` — how much the executor measures per operator.
  ``ROWS`` (the default) annotates actual row counts and loop counts, the
  historical behaviour of this engine.  ``FULL`` additionally times every
  ``next()`` call and attributes buffer/disk traffic to the operator that
  caused it — what ``EXPLAIN ANALYZE`` uses.  ``OFF`` runs the bare
  iterator tree with zero bookkeeping.
* :class:`ObsConfig` — which subsystems are live on a
  :class:`~repro.engine.Database`: planner span tracing, the metrics
  registry, and the structured query log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .autoexplain import AutoExplainConfig


class InstrumentLevel(enum.IntEnum):
    """Per-operator measurement depth for one execution."""

    OFF = 0  # no per-node annotation at all
    ROWS = 1  # actual_rows + actual_loops (cheap; the default)
    FULL = 2  # + per-next() timing and attributed buffer/disk I/O


@dataclass
class ObsConfig:
    """Which observability subsystems a Database keeps live.

    The defaults are cheap enough to leave on: tracing adds a handful of
    clock reads per query, metrics a few dict updates.  ``ObsConfig.off()``
    restores the uninstrumented baseline (row counting stays on — plan
    actuals predate this subsystem and the experiments rely on them).
    """

    trace: bool = True
    metrics: bool = True
    query_log_size: int = 256
    instrument: InstrumentLevel = InstrumentLevel.ROWS
    baselines: bool = True  # plan-baseline store + plan-change detection
    feedback: bool = True  # harvest est-vs-actual into the FeedbackStore
    waits: bool = True  # wait-event accounting (I/O, lock, CPU)
    system_tables: bool = True  # register the sys_stat_* virtual tables
    #: plan variants the inter-query plan cache keeps (literal-lifted
    #: statement shapes, see ``engine.cache``); 0 runs without the cache.
    #: EXPLAIN ANALYZE always bypasses it so actuals reflect a cold plan
    plan_cache_size: int = 128
    #: slow-statement capture; disabled by default (set ``enabled=True``
    #: or call ``Database.auto_explain.configure(enabled=True, ...)``)
    auto_explain: Optional[AutoExplainConfig] = field(default=None)

    @classmethod
    def off(cls) -> "ObsConfig":
        """Disable tracing, metrics, the query log, baselines, feedback,
        wait accounting and auto_explain (system tables stay registered —
        they simply report empty/zero statistics).  The plan cache is not
        observability and stays on: an obs-off database plans no more
        often than a default one."""
        return cls(
            trace=False,
            metrics=False,
            query_log_size=0,
            instrument=InstrumentLevel.ROWS,
            baselines=False,
            feedback=False,
            waits=False,
            auto_explain=AutoExplainConfig(enabled=False),
        )
