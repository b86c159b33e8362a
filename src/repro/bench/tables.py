"""Result tables: the paper-style rows the experiments print.

A :class:`ResultTable` is a named list of column headers plus rows of
values; ``render()`` produces the aligned ASCII block that EXPERIMENTS.md
and the bench output embed.  Values format sensibly by type (floats get 3
significant digits, ratios get an ``x`` suffix via :class:`Ratio`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence


@dataclass(frozen=True)
class Ratio:
    """A ratio rendered as ``2.4x``."""

    value: float

    def __str__(self) -> str:
        return f"{self.value:.2f}x"


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, Ratio):
        return str(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


@dataclass
class ResultTable:
    """One experiment table."""

    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: Optional[str] = None

    def add(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        cells = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(
            c.ljust(w) for c, w in zip(self.columns, widths)
        )
        lines = [f"== {self.title} ==", header, sep]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def column_values(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def render_all(tables: Iterable[ResultTable]) -> str:
    return "\n\n".join(t.render() for t in tables)


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= max(v, 1e-12)
    return product ** (1.0 / len(values))


def quantile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac
