"""Deterministic fault injection: crash the engine at exact points.

The WAL writer, the checkpointer and the buffer pool call
``FAILPOINTS.hit(site)`` at every durability-relevant moment; a hit
costs one dict lookup unless ``REPRO_FAILPOINTS="wal.append=3:partial"``
arms the site, in which case its third hit kills the process with
``os._exit``: ``before`` the effect, ``after`` it, or after a torn
``partial`` write.  :data:`SITES` is the one table of what may be
armed; a spec naming any other site, or a mode its site does not
implement, is a :class:`FaultError`, so an armed kill is never silently
ignored.  ``REPRO_FAILPOINTS_COUNT=<path>`` records every site's hit
count as JSON at exit.  The crash workload, oracle and sweep driver are
in :mod:`repro.qa.faults`; docs/RECOVERY.md has the protocol.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from typing import Dict, Optional, Tuple

#: process exit code used for injected crashes (distinguishes an injected
#: kill from an ordinary failure in sweep drivers)
CRASH_EXIT_CODE = 113

#: kill modes a site may be armed with
MODES = ("before", "after", "partial")

#: every instrumented site, with the kill modes it implements
SITES = {
    "wal.append": ("before", "after", "partial"),
    "wal.fsync": ("before", "after"),
    "checkpoint.begin": ("before", "after"),
    "checkpoint.flush": ("before", "after"),
    "checkpoint.page": ("before", "after", "partial"),
    "checkpoint.end": ("before", "after"),
    "page.writeback": ("before", "after"),
}


class FaultError(Exception):
    """Raised for malformed REPRO_FAILPOINTS specs."""


class Failpoints:
    """A registry of named crash sites with per-site hit counters."""

    def __init__(self, spec: str = "", count_path: Optional[str] = None):
        self._lock = threading.Lock()
        self.counts: Dict[str, int] = {}
        #: site -> (hit number to kill at, mode)
        self.armed: Dict[str, Tuple[int, str]] = parse_spec(spec)
        self.count_path = count_path
        if count_path:
            atexit.register(self._dump_counts)

    # -- the hot path ---------------------------------------------------------

    def hit(self, site: str) -> Optional[str]:
        """Count one hit of *site*.

        Returns ``None`` (keep going), or ``"partial"`` when the site
        itself must perform its torn half-write and then call
        :func:`crash`.  ``before``/``after`` mode kills are handled here:
        ``before`` exits immediately; ``after`` arms a flag returned as
        ``"after"`` so the caller completes the effect and then crashes
        via :func:`crash`.
        """
        with self._lock:
            n = self.counts.get(site, 0) + 1
            self.counts[site] = n
        armed = self.armed.get(site)
        if armed is None or n != armed[0]:
            return None
        mode = armed[1]
        if mode == "before":
            crash()
        return mode  # "partial" or "after": caller finishes, then crashes

    def _dump_counts(self) -> None:
        try:
            with open(self.count_path, "w") as f:
                json.dump(self.counts, f)
        except OSError:  # pragma: no cover - count file on a dead disk
            pass


def parse_spec(spec: str) -> Dict[str, Tuple[int, str]]:
    """Parse ``"site=N[:mode],site2=M"`` into ``{site: (N, mode)}``."""
    armed: Dict[str, Tuple[int, str]] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        if "=" not in part:
            raise FaultError(f"bad failpoint spec {part!r} (want site=N[:mode])")
        site, _, rest = part.partition("=")
        site = site.strip()
        nth, _, mode = rest.partition(":")
        mode = mode or "before"
        if mode not in MODES:
            raise FaultError(f"unknown failpoint mode {mode!r} (want {MODES})")
        if site not in SITES:
            raise FaultError(f"unknown failpoint site {site!r} (want one of {tuple(SITES)})")
        if mode not in SITES[site]:
            raise FaultError(f"site {site!r} does not implement mode {mode!r} (want {SITES[site]})")
        try:
            n = int(nth)
        except ValueError:
            raise FaultError(f"bad failpoint count {nth!r} in {part!r}") from None
        if n < 1:
            raise FaultError(f"failpoint count must be >= 1, got {n}")
        armed[site] = (n, mode)
    return armed


def crash() -> None:
    """Die *now*: no atexit, no buffered-file flushing, no cleanup."""
    os._exit(CRASH_EXIT_CODE)


#: the process-wide registry every instrumented site consults
FAILPOINTS = Failpoints(
    os.environ.get("REPRO_FAILPOINTS", ""),
    os.environ.get("REPRO_FAILPOINTS_COUNT") or None,
)
