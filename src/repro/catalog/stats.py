"""Column statistics: the raw material of selectivity estimation.

The estimator (``repro.optimizer.estimate``) supports three fidelity tiers,
which experiment E6 compares:

1. **Uniform** — row count, distinct count, min/max only (the 1977 default:
   selectivity of ``a = c`` is ``1/V(a)``, ranges interpolate linearly).
2. **Histogram** — equi-width or equi-depth buckets over the value
   distribution.
3. **Histogram + MCV** — most-common values priced exactly, histogram over
   the remainder.

All numeric math happens on the real-line mapping of values
(:func:`repro.types.value_to_float`), so TEXT and DATE columns participate
in range estimation too.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..types import DataType, value_to_float


class HistogramKind(enum.Enum):
    NONE = "none"
    EQUI_WIDTH = "equi_width"
    EQUI_DEPTH = "equi_depth"


@dataclass
class Histogram:
    """Bucketed distribution over the real-line mapping of a column.

    ``bounds`` has ``len(counts) + 1`` entries; bucket *i* covers
    ``[bounds[i], bounds[i+1])`` except the last, which is closed.
    ``distinct`` holds per-bucket distinct-value counts (for equality
    estimates inside a bucket).
    """

    kind: HistogramKind
    bounds: List[float]
    counts: List[int]
    distinct: List[int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def fraction_below(self, x: float, inclusive: bool) -> float:
        """Fraction of values ``< x`` (or ``<= x``).

        Within a bucket, linear interpolation — the classic uniform-within-
        bucket assumption.
        """
        total = self.total
        if total == 0:
            return 0.0
        if x < self.bounds[0]:
            return 0.0
        if x > self.bounds[-1]:
            return 1.0
        acc = 0
        for i, count in enumerate(self.counts):
            lo, hi = self.bounds[i], self.bounds[i + 1]
            if x >= hi and not (i == len(self.counts) - 1 and x == hi):
                acc += count
                continue
            width = hi - lo
            if width <= 0:
                # Degenerate single-value bucket.
                frac = 1.0 if (inclusive and x >= hi) else 0.0
            else:
                frac = (x - lo) / width
                if inclusive:
                    # add roughly one distinct value's worth for equality
                    d = max(1, self.distinct[i])
                    frac = min(1.0, frac + 1.0 / (2 * d))
            acc += count * frac
            break
        return min(1.0, acc / total)

    def fraction_equal(self, x: float) -> float:
        """Estimated fraction of values equal to *x*."""
        total = self.total
        if total == 0 or x < self.bounds[0] or x > self.bounds[-1]:
            return 0.0
        if self.kind is HistogramKind.EQUI_WIDTH:
            lo, hi = self.bounds[0], self.bounds[-1]
            width = (hi - lo) / len(self.counts) if hi > lo else 0.0
            i = (
                min(len(self.counts) - 1, int((x - lo) / width))
                if width > 0
                else 0
            )
        else:
            # Equi-depth buckets end at their last (possibly duplicated)
            # value: a value equal to a bucket's upper bound belongs to the
            # bucket that ends there, not the one that starts there.
            i = max(0, min(len(self.counts) - 1, bisect_left(self.bounds, x) - 1))
        d = max(1, self.distinct[i])
        return (self.counts[i] / d) / total


def build_equi_width(
    values: Sequence[float], num_buckets: int
) -> Optional[Histogram]:
    if not values:
        return None
    lo, hi = min(values), max(values)
    if lo == hi:
        return Histogram(
            HistogramKind.EQUI_WIDTH, [lo, hi], [len(values)], [1]
        )
    bounds = [lo + (hi - lo) * i / num_buckets for i in range(num_buckets + 1)]
    bounds[-1] = hi
    counts = [0] * num_buckets
    uniq: List[set] = [set() for _ in range(num_buckets)]
    width = (hi - lo) / num_buckets
    for v in values:
        i = min(num_buckets - 1, int((v - lo) / width))
        counts[i] += 1
        uniq[i].add(v)
    return Histogram(
        HistogramKind.EQUI_WIDTH, bounds, counts, [len(u) for u in uniq]
    )


def build_equi_depth(
    values: Sequence[float], num_buckets: int
) -> Optional[Histogram]:
    if not values:
        return None
    ordered = sorted(values)
    n = len(ordered)
    num_buckets = min(num_buckets, n)
    bounds = [ordered[0]]
    counts: List[int] = []
    distinct: List[int] = []
    start = 0
    for b in range(num_buckets):
        end = ((b + 1) * n) // num_buckets
        if end <= start:
            continue
        # extend to include duplicates of the boundary value so bucket
        # boundaries always fall between distinct values
        while end < n and ordered[end] == ordered[end - 1]:
            end += 1
        chunk = ordered[start:end]
        bounds.append(chunk[-1])
        counts.append(len(chunk))
        distinct.append(len(set(chunk)))
        start = end
        if start >= n:
            break
    return Histogram(HistogramKind.EQUI_DEPTH, bounds, counts, distinct)


@dataclass
class ColumnStats:
    """Statistics for one column, produced by ANALYZE."""

    dtype: DataType
    num_rows: int
    null_count: int
    num_distinct: int
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    #: real-line images of min/max
    min_float: Optional[float] = None
    max_float: Optional[float] = None
    histogram: Optional[Histogram] = None
    #: most-common values: (value, real-line image, frequency)
    mcvs: List[Tuple[Any, float, int]] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.num_rows if self.num_rows else 0.0

    @property
    def nonnull_rows(self) -> int:
        return self.num_rows - self.null_count

    def mcv_fraction(self) -> float:
        """Fraction of non-null rows covered by the MCV list."""
        if not self.mcvs or not self.nonnull_rows:
            return 0.0
        return sum(f for _, _, f in self.mcvs) / self.nonnull_rows

    def mcv_lookup(self, value: Any) -> Optional[float]:
        """Exact frequency fraction if *value* is an MCV, else None."""
        if not self.nonnull_rows:
            return None
        for v, _, freq in self.mcvs:
            if v == value:
                return freq / self.nonnull_rows
        return None


def analyze_column(
    dtype: DataType,
    values: Sequence[Any],
    histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
    num_buckets: int = 32,
    num_mcvs: int = 8,
) -> ColumnStats:
    """Compute full statistics for a column's value list."""
    num_rows = len(values)
    nonnull = [v for v in values if v is not None]
    null_count = num_rows - len(nonnull)
    if not nonnull:
        return ColumnStats(dtype, num_rows, null_count, 0)
    counter = Counter(nonnull)
    num_distinct = len(counter)
    min_value = min(nonnull)
    max_value = max(nonnull)
    stats = ColumnStats(
        dtype=dtype,
        num_rows=num_rows,
        null_count=null_count,
        num_distinct=num_distinct,
        min_value=min_value,
        max_value=max_value,
        min_float=value_to_float(min_value, dtype),
        max_float=value_to_float(max_value, dtype),
    )
    # MCVs: only values meaningfully more frequent than average qualify.
    if num_mcvs > 0 and num_distinct > 1:
        avg_freq = len(nonnull) / num_distinct
        common = [
            (v, c) for v, c in counter.most_common(num_mcvs) if c > 1.5 * avg_freq
        ]
        stats.mcvs = [(v, value_to_float(v, dtype), c) for v, c in common]
    mcv_set = {v for v, _, _ in stats.mcvs}
    rest = [value_to_float(v, dtype) for v in nonnull if v not in mcv_set]
    if histogram is HistogramKind.EQUI_WIDTH:
        stats.histogram = build_equi_width(rest, num_buckets)
    elif histogram is HistogramKind.EQUI_DEPTH:
        stats.histogram = build_equi_depth(rest, num_buckets)
    return stats


@dataclass
class TableStats:
    """Statistics for one table."""

    num_rows: int
    num_pages: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)
