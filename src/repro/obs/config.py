"""Observability configuration: on or off, and how deeply one run measures.

* :class:`ObsConfig` — observability on a
  :class:`~repro.engine.Database` has two states.  ``ObsConfig()`` is
  *on*: span trees, wait accounting, and one recorder feeding the
  metrics registry, feedback store, statement store (per-statement
  calls, latency and plan baselines), query log and auto_explain.
  ``ObsConfig.off()`` is the uninstrumented engine the benchmark's
  ``obs.overhead_share`` divides by.  Nothing in between is
  configurable.
* :class:`InstrumentLevel` — how much the executor measures per operator
  in one execution, ``ROWS`` or ``FULL``; an
  :class:`~repro.executor.ExecContext` argument, not a database setting.
  The engine runs statements at ``ROWS`` in both states (plan actuals
  predate this subsystem and the experiments rely on them) and at
  ``FULL`` under ``EXPLAIN ANALYZE`` and while auto_explain is enabled.
  No level records less than ``ROWS``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .autoexplain import AutoExplainConfig


class InstrumentLevel(enum.IntEnum):
    """Per-operator measurement depth for one execution."""

    ROWS = 1  # actual_rows + actual_loops (cheap; what statements run at)
    FULL = 2  # + per-next() timing and attributed buffer/disk I/O


@dataclass
class ObsConfig:
    """Whether a Database observes itself.  On is cheap enough to leave
    on; the ``sys_stat_*`` tables are registered in both states and
    report empty/zero statistics when off."""

    #: the one switch (see the module docstring for what it covers)
    enabled: bool = True
    #: harvest est-vs-actual into the FeedbackStore while enabled; its own
    #: flag because E15 freezes the store mid-run with the rest recording
    feedback: bool = True
    #: slow-request capture; disabled by default (set ``enabled=True``
    #: or call ``Database.auto_explain.configure(enabled=True, ...)``)
    auto_explain: Optional[AutoExplainConfig] = field(default=None)

    @classmethod
    def off(cls) -> "ObsConfig":
        """The uninstrumented engine."""
        return cls(enabled=False)
