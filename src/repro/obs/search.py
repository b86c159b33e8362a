"""Plan-search tracing: what the optimizer considered, not just what won.

A :class:`SearchTrace` records, per join region, every candidate the
enumerator priced — access paths per base relation, join candidates per
memo subset, why each was kept or pruned — plus the ranked alternatives
for the full relation set next to the chosen plan.  The engine surfaces
it via ``EXPLAIN (VERBOSE SEARCH)`` and the REPL ``\\search`` command.

Everything here is engine-independent and duck-typed against physical
plan nodes (``describe()``/``children()``/``binding``), mirroring
:func:`.querylog.plan_fingerprint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: per-region cap on recorded candidates (big searches stay bounded);
#: overflow is counted in ``RegionSearch.truncated``, never silent.
MAX_ALTS_PER_REGION = 1024


def plan_shape(node: Any) -> str:
    """Compact join-order expression of a plan subtree: base relations by
    binding, joins as parenthesized pairs — ``((a b) c)``."""
    kids = node.children()
    binding = getattr(node, "binding", None)
    if not kids:
        return binding if binding is not None else type(node).__name__
    parts = [plan_shape(child) for child in kids]
    if binding is not None:  # index nested-loop: inner relation is inline
        parts.append(binding)
    if len(parts) == 1:
        return parts[0]
    return "(" + " ".join(parts) + ")"


@dataclass
class PathAlt:
    """One candidate the search priced: an access path (single-relation
    subset) or a join candidate (multi-relation subset)."""

    subset: Tuple[str, ...]  # sorted bindings this candidate covers
    description: str  # the root operator's describe() line
    shape: str  # join-order expression, e.g. ``((a b) c)``
    rows: float
    cost: float
    order: Optional[str]  # interesting order delivered, if any
    kept: bool
    reason: str


@dataclass
class RegionSearch:
    """The search over one join region (one strategy invocation)."""

    strategy: str
    relations: Tuple[str, ...]
    alts: List[PathAlt] = field(default_factory=list)
    truncated: int = 0  # candidates dropped past MAX_ALTS_PER_REGION
    chosen_shape: Optional[str] = None
    chosen_description: Optional[str] = None
    chosen_cost: Optional[float] = None

    def record(
        self,
        subset: Tuple[str, ...],
        plan: Any,
        rows: float,
        cost: float,
        order: Optional[str],
        kept: bool,
        reason: str,
    ) -> None:
        if len(self.alts) >= MAX_ALTS_PER_REGION:
            self.truncated += 1
            return
        self.alts.append(
            PathAlt(
                subset=tuple(sorted(subset)),
                description=plan.describe(),
                shape=plan_shape(plan),
                rows=rows,
                cost=cost,
                order=order,
                kept=kept,
                reason=reason,
            )
        )

    def mark_chosen(self, plan: Any, cost: float) -> None:
        self.chosen_shape = plan_shape(plan)
        self.chosen_description = plan.describe()
        self.chosen_cost = cost

    # -- derived views ----------------------------------------------------------

    def access_paths(self) -> Dict[str, List[PathAlt]]:
        """Single-relation candidates grouped by binding."""
        out: Dict[str, List[PathAlt]] = {}
        for alt in self.alts:
            if len(alt.subset) == 1:
                out.setdefault(alt.subset[0], []).append(alt)
        return out

    def finalists(self, limit: int = 0) -> List[PathAlt]:
        """Candidates covering the full relation set, ranked by cost."""
        full = tuple(sorted(self.relations))
        pool = [a for a in self.alts if a.subset == full]
        if len(self.relations) == 1:
            pool = list(self.alts)
        pool.sort(key=lambda a: a.cost)
        return pool[:limit] if limit else pool

    def is_chosen(self, alt: PathAlt) -> bool:
        return (
            self.chosen_description is not None
            and alt.description == self.chosen_description
            and self.chosen_cost is not None
            and abs(alt.cost - self.chosen_cost) < 1e-9
        )


class SearchTrace:
    """One planning pass's search record: a list of region searches."""

    def __init__(self) -> None:
        self.regions: List[RegionSearch] = []

    def new_region(self, strategy: str, relations) -> RegionSearch:
        region = RegionSearch(strategy, tuple(sorted(relations)))
        self.regions.append(region)
        return region

    def __len__(self) -> int:
        return len(self.regions)

    # -- rendering ---------------------------------------------------------------

    def render(self, verbose: bool = False, top: int = 8) -> str:
        """Human-readable search report.  Non-verbose shows access paths and
        the ranked full-set alternatives; verbose adds the whole memo."""
        if not self.regions:
            return "(no search trace recorded)"
        lines: List[str] = []
        for i, region in enumerate(self.regions, 1):
            considered = len(region.alts) + region.truncated
            kept = sum(1 for a in region.alts if a.kept)
            lines.append(
                f"Search region {i}: strategy={region.strategy}, "
                f"{len(region.relations)} relation(s) "
                f"({', '.join(region.relations)}), "
                f"{considered} candidate(s) considered, {kept} kept"
            )
            if region.truncated:
                lines.append(
                    f"  [trace truncated: {region.truncated} candidate(s) "
                    f"beyond the first {MAX_ALTS_PER_REGION} not recorded]"
                )
            paths = region.access_paths()
            if paths:
                lines.append("  access paths:")
                for binding in sorted(paths):
                    for alt in sorted(paths[binding], key=lambda a: a.cost):
                        lines.append(
                            "    " + _alt_line(alt, with_shape=False)
                        )
            finalists = region.finalists()
            if len(region.relations) > 1 and finalists:
                lines.append(
                    f"  ranked alternatives for "
                    f"{{{', '.join(region.relations)}}}:"
                )
                shown = finalists if verbose else finalists[:top]
                for rank, alt in enumerate(shown, 1):
                    marker = "  <= chosen" if region.is_chosen(alt) else ""
                    lines.append(
                        f"    {rank:2d}. {alt.shape}  "
                        f"{alt.description}  cost={alt.cost:.1f} "
                        f"rows≈{alt.rows:.0f}"
                        + (f" order={alt.order}" if alt.order else "")
                        + marker
                    )
                if not verbose and len(finalists) > top:
                    lines.append(
                        f"    ... {len(finalists) - top} more "
                        "(EXPLAIN (VERBOSE SEARCH) shows all)"
                    )
            if region.chosen_shape is not None:
                lines.append(
                    f"  chosen: {region.chosen_shape}  "
                    f"cost={region.chosen_cost:.1f}"
                )
            if verbose:
                interior = [
                    a
                    for a in region.alts
                    if 1 < len(a.subset) < len(region.relations)
                ]
                if interior:
                    lines.append("  memo (intermediate subsets):")
                    for alt in interior:
                        lines.append(
                            f"    {{{', '.join(alt.subset)}}}: "
                            + _alt_line(alt)
                        )
        return "\n".join(lines)


def _alt_line(alt: PathAlt, with_shape: bool = True) -> str:
    status = "kept" if alt.kept else "pruned"
    reason = f": {alt.reason}" if alt.reason else ""
    shape = f"{alt.shape}  " if with_shape and alt.shape else ""
    return (
        f"{shape}{alt.description}  cost={alt.cost:.1f} "
        f"rows≈{alt.rows:.0f}"
        + (f" order={alt.order}" if alt.order else "")
        + f"  [{status}{reason}]"
    )
