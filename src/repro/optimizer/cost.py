"""The cost model.

Era-faithful structure: ``cost = page_fetches + W * cpu_operations`` — page
I/O dominates and CPU is folded in with a small weight, exactly the form the
foundational access-path-selection work used.  All formulas are in units of
page I/Os; CPU terms count tuple touches/comparisons.

Key formulas:

* **Unclustered index fetch** — Cardenas' approximation for the number of
  distinct pages touched by ``k`` random record fetches over ``n`` pages:
  ``n * (1 - (1 - 1/n)^k)``.  Classic, and the reason unclustered index
  scans lose to sequential scans at surprisingly low selectivity (E2).
* **External sort** — run formation plus merge passes:
  ``2 * pages * (1 + ceil(log_{B-1}(ceil(pages/B))))`` I/Os when the input
  exceeds work memory ``B``.
* **Block nested loop** — ``pages(L) + ceil(pages(L)/(B-2)) * pages(R)``.
* **Grace hash join** — ``3 * (pages(L) + pages(R))`` when the build side
  exceeds memory (partition write + read for both sides), else just the
  two input reads.

The model prices *subplans* via :class:`Cost` accumulation: each operator's
cost includes its inputs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

from ..catalog import IndexInfo


@dataclass(frozen=True)
class Cost:
    """Additive cost: page I/Os + weighted CPU operations."""

    io: float = 0.0
    cpu: float = 0.0
    cpu_weight: float = 0.01

    @property
    def total(self) -> float:
        return self.io + self.cpu_weight * self.cpu

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.io + other.io, self.cpu + other.cpu, self.cpu_weight)

    def __lt__(self, other: "Cost") -> bool:
        return self.total < other.total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cost(io={self.io:.1f}, cpu={self.cpu:.0f}, total={self.total:.1f})"


def cardenas_pages(pages: float, fetches: float) -> float:
    """Expected distinct pages touched by *fetches* uniform random record
    accesses over *pages* pages (Cardenas 1975)."""
    if pages <= 0 or fetches <= 0:
        return 0.0
    if pages == 1:
        return 1.0
    return pages * (1.0 - (1.0 - 1.0 / pages) ** fetches)


class CostModel:
    """Prices every access path and join method the planner considers.

    ``work_mem_pages`` must mirror the executor's setting for the model's
    crossovers to land where execution lands (E3 validates this).
    """

    def __init__(
        self,
        work_mem_pages: int = 64,
        cpu_weight: float = 0.01,
        buffer_pages: Optional[int] = None,
        vector_cpu_factor: float = 1.0,
    ):
        if work_mem_pages < 3:
            raise ValueError("work memory must be at least 3 pages")
        self.work_mem_pages = work_mem_pages
        self.cpu_weight = cpu_weight
        #: per-row CPU discount for operators the columnar engine
        #: vectorizes (scans, filters, projections, hash joins,
        #: aggregation).  1.0 prices the row engine (the paper's); a
        #: Database running the columnar engine — the default — passes
        #: 0.25, shifting crossovers toward CPU-heavy plans.
        #: Row-at-a-time paths (index fetches, sorts, nested loops) are
        #: deliberately not discounted.
        self.vector_cpu_factor = vector_cpu_factor
        #: total buffer-pool frames; used to price repeated random fetches
        #: against tables larger than the pool.  None = assume ample.
        self.buffer_pages = buffer_pages

    def _cost(self, io: float, cpu: float) -> Cost:
        return Cost(io, cpu, self.cpu_weight)

    def _vcost(self, io: float, cpu: float) -> Cost:
        """Cost for a vectorizable operator: per-row CPU discounted by
        ``vector_cpu_factor``."""
        return Cost(io, cpu * self.vector_cpu_factor, self.cpu_weight)

    def zero(self) -> Cost:
        return self._cost(0.0, 0.0)

    def undiscounted(self) -> "CostModel":
        """This model with ``vector_cpu_factor`` 1.0, every other constant
        shared: what prices a plan that will be walked tuple-at-a-time
        whatever engine runs queries (UPDATE/DELETE victim scans)."""
        if self.vector_cpu_factor == 1.0:
            return self
        model = copy.copy(self)
        model.vector_cpu_factor = 1.0
        return model

    # -- access paths --------------------------------------------------------------

    def seq_scan(self, pages: int, rows: float) -> Cost:
        return self._vcost(float(max(1, pages)), rows)

    def index_scan(
        self,
        index: IndexInfo,
        table_pages: int,
        table_rows: float,
        matching_rows: float,
    ) -> Cost:
        """Index probe + RID fetches into the heap."""
        matching_rows = max(0.0, min(matching_rows, table_rows))
        descent = float(index.height)
        if table_rows > 0:
            leaf_fraction = matching_rows / table_rows
        else:
            leaf_fraction = 0.0
        leaf_io = max(1.0, math.ceil(leaf_fraction * max(1, index.leaf_pages)))
        if index.clustered:
            data_io = math.ceil(leaf_fraction * max(1, table_pages))
        else:
            data_io = self.random_fetch_pages(table_pages, matching_rows)
        # Each qualifying row costs an entry decode plus a record fetch —
        # roughly twice the per-row work of a sequential scan.  Without this
        # asymmetry a full-range index scan under-prices a filtered seq scan.
        return self._cost(descent + leaf_io + data_io, 2.0 * matching_rows)

    def random_fetch_pages(
        self,
        table_pages: int,
        fetches: float,
        buffer_pages: Optional[int] = None,
    ) -> float:
        """Expected page I/Os for *fetches* random record accesses.

        When the table fits in the buffer pool, each page is fetched at most
        once (Cardenas).  When it does not, steady-state LRU misses dominate:
        roughly ``fetches * (1 - buffer/table)`` after a warmup that fills
        the pool.  *buffer_pages* overrides the pool size (used when part of
        the pool is pinned by another structure in the same plan).
        """
        pages = float(max(1, table_pages))
        base = cardenas_pages(pages, fetches)
        buffer = self.buffer_pages if buffer_pages is None else buffer_pages
        if buffer is None or pages <= buffer:
            return base
        miss_fraction = 1.0 - buffer / pages
        steady = fetches * miss_fraction + min(float(buffer), fetches)
        return max(base, min(fetches, steady))

    def index_only_scan(
        self, index: IndexInfo, table_rows: float, matching_rows: float
    ) -> Cost:
        matching_rows = max(0.0, min(matching_rows, table_rows))
        fraction = matching_rows / table_rows if table_rows > 0 else 0.0
        leaf_io = max(1.0, math.ceil(fraction * max(1, index.leaf_pages)))
        return self._cost(float(index.height) + leaf_io, matching_rows)

    # -- sorting ---------------------------------------------------------------------

    def sort(self, pages: float, rows: float) -> Cost:
        """External merge sort of an intermediate result already in the
        pipeline (input read cost excluded; spill I/O included)."""
        pages = max(1.0, pages)
        cmp_cost = rows * max(1.0, math.log2(max(2.0, rows)))
        if pages <= self.work_mem_pages:
            return self._cost(0.0, cmp_cost)
        runs = math.ceil(pages / self.work_mem_pages)
        fan_in = max(2, self.work_mem_pages - 1)
        passes = max(1, math.ceil(math.log(runs, fan_in)))
        io = 2.0 * pages * passes
        return self._cost(io, cmp_cost)

    # -- joins -----------------------------------------------------------------------

    def block_nested_loop(
        self,
        outer_pages: float,
        outer_rows: float,
        inner_rescan: Cost,
        inner_rows: float,
        block_pages: Optional[int] = None,
        inner_pages: Optional[float] = None,
    ) -> Cost:
        """Cost *added* by a BNL join given the outer is already streaming
        and the inner costs ``inner_rescan`` per pass.

        When the inner's pages are known to fit in the buffer pool alongside
        the outer block, rescans hit cache and cost no I/O.
        """
        block = max(1, block_pages or (self.work_mem_pages - 2))
        blocks = max(1.0, math.ceil(max(1.0, outer_pages) / block))
        rescan_io = inner_rescan.io
        if (
            inner_pages is not None
            and self.buffer_pages is not None
            and inner_pages <= max(0, self.buffer_pages - block - 1)
        ):
            rescan_io = 0.0
        io = (blocks - 1.0) * rescan_io  # first inner pass paid below
        cpu = (blocks - 1.0) * inner_rescan.cpu + outer_rows * inner_rows
        return self._cost(io, cpu) + inner_rescan

    def index_nested_loop(
        self,
        outer_rows: float,
        index: IndexInfo,
        inner_pages: int,
        inner_rows: float,
        matches_per_probe: float,
    ) -> Cost:
        """Per-outer-row index probes into a base table.

        Upper index levels and hot leaves are assumed to cache (they are a
        few pages); leaf and heap traffic is priced with the buffer-aware
        random-fetch formula over the whole probe stream.
        """
        outer_rows = max(0.0, outer_rows)
        descent = float(index.height)  # paid once to warm the upper levels
        leaf_pages = max(1, index.leaf_pages)
        leaf_buffer = None
        data_buffer = None
        if self.buffer_pages is not None:
            # The probe stream cycles through index leaves AND heap pages;
            # neither sees the whole pool.  Charge each against the pool
            # minus the other structure's (capped) share.
            leaf_buffer = max(
                3, self.buffer_pages - min(inner_pages, self.buffer_pages // 2)
            )
            data_buffer = max(
                3, self.buffer_pages - min(leaf_pages, self.buffer_pages // 2)
            )
        leaf_io = self.random_fetch_pages(leaf_pages, outer_rows, leaf_buffer)
        total_matches = outer_rows * max(0.0, matches_per_probe)
        data_io = self.random_fetch_pages(inner_pages, total_matches, data_buffer)
        cpu = outer_rows + total_matches
        return self._cost(descent + leaf_io + data_io, cpu)

    def merge_join(
        self, left_rows: float, right_rows: float, output_rows: float
    ) -> Cost:
        """Merge phase only (sorts priced separately)."""
        return self._cost(0.0, left_rows + right_rows + output_rows)

    def hash_join(
        self,
        left_pages: float,
        left_rows: float,
        right_pages: float,
        right_rows: float,
        output_rows: float,
    ) -> Cost:
        """Added cost of hashing: zero extra I/O if the build (right) side
        fits in memory, Grace partitioning otherwise."""
        cpu = left_rows + right_rows + output_rows
        if right_pages <= self.work_mem_pages:
            return self._vcost(0.0, cpu)
        io = 2.0 * (max(1.0, left_pages) + max(1.0, right_pages))
        return self._cost(io, cpu * 1.5)

    # -- other operators --------------------------------------------------------------------

    def filter(self, rows: float, num_conjuncts: int = 1) -> Cost:
        return self._vcost(0.0, rows * max(1, num_conjuncts))

    def project(self, rows: float, width: int = 1) -> Cost:
        return self._vcost(0.0, rows)

    def aggregate(self, input_rows: float, groups: float) -> Cost:
        return self._vcost(0.0, input_rows + groups)

    def distinct(self, rows: float) -> Cost:
        return self._cost(0.0, rows)

    def materialize(self, pages: float, rows: float) -> Cost:
        if pages <= self.work_mem_pages:
            return self._cost(0.0, rows)
        return self._cost(2.0 * pages, rows)
