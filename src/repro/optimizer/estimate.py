"""Cardinality and selectivity estimation.

Implements the classic estimation rules with three switchable fidelity
tiers (experiment E6 sweeps them):

* uniform:    ``sel(a = c) = 1/V(a)``; ranges interpolate on [min, max];
  the famous magic constants when no statistics exist (1/10 equality,
  1/3 inequality, 1/4 between).
* histograms: bucket interpolation for ranges and equality.
* MCVs:       exact frequencies for the most common values.

Join selectivity of an equi-join is ``1 / max(V(a), V(b))``; conjuncts
multiply (attribute-independence assumption).  These assumptions — and
where they break on skewed/correlated data — are exactly what E6 measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..algebra import JoinGraph
from ..catalog import ColumnStats, TableInfo
from ..expr import (
    BoolKind,
    BoolOp,
    CmpOp,
    ColCmpConst,
    ColEqCol,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    classify_conjunct,
)
from ..types import DataType, Schema, value_to_float

#: Magic default selectivities (the 1977-era guesses, still in textbooks).
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_LIKE_SEL = 0.05
DEFAULT_GUESS_SEL = 0.25
DEFAULT_JOIN_SEL = 0.1


@dataclass
class EstimatorConfig:
    """Fidelity switches for the ablation experiments."""

    use_histograms: bool = True
    use_mcvs: bool = True


@dataclass
class ColumnBinding:
    """Resolution of a column reference inside a join region."""

    binding: str
    table: TableInfo
    column: str
    dtype: DataType

    @property
    def stats(self) -> Optional[ColumnStats]:
        return self.table.column_stats(self.column)


class StatsResolver:
    """Maps (possibly qualified) column names to tables + statistics using
    the join region's schema."""

    def __init__(self, graph: JoinGraph):
        self.graph = graph
        self._schemas: Dict[str, Schema] = {
            binding: get.schema for binding, get in graph.relations.items()
        }

    def resolve(self, name: str) -> Optional[ColumnBinding]:
        if "." in name:
            binding = name.split(".", 1)[0]
            schema = self._schemas.get(binding)
            if schema is not None and schema.has_column(name):
                column = schema.column(name)
                return ColumnBinding(
                    binding,
                    self.graph.relations[binding].table,
                    column.name,
                    column.dtype,
                )
        hits = [
            (binding, schema.column(name))
            for binding, schema in self._schemas.items()
            if schema.has_column(name)
        ]
        if len(hits) == 1:
            binding, column = hits[0]
            return ColumnBinding(
                binding, self.graph.relations[binding].table, column.name, column.dtype
            )
        return None


class Estimator:
    """Selectivity/cardinality estimation over a join graph.

    When a :class:`~repro.obs.FeedbackStore` is attached (opt-in via
    ``PlannerOptions(use_feedback=True)``), learned est-vs-actual
    correction factors are applied *on top of* the model estimates by the
    callers that know the feedback key — access-path selection and the
    join enumerator — via :meth:`apply_feedback` / :meth:`feedback_rows`.
    The base estimation rules below stay untouched, so corrections are
    auditable as a separate multiplier.
    """

    def __init__(
        self,
        resolver: StatsResolver,
        config: Optional[EstimatorConfig] = None,
        feedback: Optional[Any] = None,
    ):
        self.resolver = resolver
        self.config = config or EstimatorConfig()
        #: optional FeedbackStore (duck-typed: has/correction)
        self.feedback = feedback

    # -- single predicates ----------------------------------------------------------

    def selectivity(self, conjunct: Expr) -> float:
        """Selectivity of one conjunct (assumed single-table or join-free)."""
        sel = self._selectivity(conjunct)
        return min(1.0, max(0.0, sel))

    def _selectivity(self, conjunct: Expr) -> float:
        classified = classify_conjunct(conjunct)
        if isinstance(classified, ColCmpConst):
            return self._col_const(classified)
        if isinstance(classified, ColEqCol):
            return self._col_eq_col(classified)
        if isinstance(conjunct, BoolOp):
            sels = [self.selectivity(o) for o in conjunct.operands]
            if conjunct.kind is BoolKind.AND:
                out = 1.0
                for s in sels:
                    out *= s
                return out
            # OR via inclusion-exclusion under independence
            out = 0.0
            for s in sels:
                out = out + s - out * s
            return out
        if isinstance(conjunct, Not):
            return 1.0 - self.selectivity(conjunct.operand)
        if isinstance(conjunct, IsNull):
            return self._is_null(conjunct)
        if isinstance(conjunct, InList):
            return self._in_list(conjunct)
        if isinstance(conjunct, Like):
            return self._like(conjunct)
        if isinstance(conjunct, Literal):
            if conjunct.value is True:
                return 1.0
            if conjunct.value is False:
                return 0.0
        if isinstance(conjunct, Comparison):
            return DEFAULT_RANGE_SEL
        return DEFAULT_GUESS_SEL

    def _col_const(self, pred: ColCmpConst) -> float:
        resolved = self.resolver.resolve(pred.column)
        if resolved is None or resolved.stats is None:
            return (
                DEFAULT_EQ_SEL
                if pred.op in (CmpOp.EQ, CmpOp.NE)
                else DEFAULT_RANGE_SEL
            )
        stats = resolved.stats
        if stats.num_rows == 0:
            return 0.0
        nonnull_frac = 1.0 - stats.null_fraction
        if pred.op is CmpOp.EQ:
            return nonnull_frac * self._eq_fraction(stats, resolved.dtype, pred.value)
        if pred.op is CmpOp.NE:
            eq = self._eq_fraction(stats, resolved.dtype, pred.value)
            return nonnull_frac * (1.0 - eq)
        return nonnull_frac * self._range_fraction(stats, resolved.dtype, pred)

    def _eq_fraction(self, stats: ColumnStats, dtype: DataType, value: Any) -> float:
        if self.config.use_mcvs and stats.mcvs:
            exact = stats.mcv_lookup(value)
            if exact is not None:
                return exact
            # not an MCV: spread the remaining mass over remaining distincts
            rest_frac = 1.0 - stats.mcv_fraction()
            rest_distinct = max(1, stats.num_distinct - len(stats.mcvs))
            return rest_frac / rest_distinct
        if self.config.use_histograms and stats.histogram is not None:
            try:
                x = value_to_float(value, dtype)
            except Exception:
                return DEFAULT_EQ_SEL
            frac = stats.histogram.fraction_equal(x)
            if frac > 0.0:
                return frac
        if stats.num_distinct > 0:
            return 1.0 / stats.num_distinct
        return DEFAULT_EQ_SEL

    def _range_fraction(
        self, stats: ColumnStats, dtype: DataType, pred: ColCmpConst
    ) -> float:
        try:
            x = value_to_float(pred.value, dtype)
        except Exception:
            return DEFAULT_RANGE_SEL
        if self.config.use_histograms and stats.histogram is not None:
            hist = stats.histogram
            if pred.op is CmpOp.LT:
                base = hist.fraction_below(x, inclusive=False)
            elif pred.op is CmpOp.LE:
                base = hist.fraction_below(x, inclusive=True)
            elif pred.op is CmpOp.GT:
                base = 1.0 - hist.fraction_below(x, inclusive=True)
            else:  # GE
                base = 1.0 - hist.fraction_below(x, inclusive=False)
            # account for MCV mass outside the histogram
            mcv_mass = stats.mcv_fraction() if self.config.use_mcvs else 0.0
            mcv_in_range = 0.0
            if stats.mcvs and stats.nonnull_rows:
                for _, vx, freq in stats.mcvs:
                    if _value_in_range(vx, x, pred.op):
                        mcv_in_range += freq / stats.nonnull_rows
            return base * (1.0 - mcv_mass) + mcv_in_range
        if stats.min_float is not None and stats.max_float is not None:
            lo, hi = stats.min_float, stats.max_float
            if hi <= lo:
                return 1.0 if _value_in_range(lo, x, pred.op) else 0.0
            if pred.op in (CmpOp.LT, CmpOp.LE):
                frac = (x - lo) / (hi - lo)
            else:
                frac = (hi - x) / (hi - lo)
            return min(1.0, max(0.0, frac))
        return DEFAULT_RANGE_SEL

    def _col_eq_col(self, pred: ColEqCol) -> float:
        left = self.resolver.resolve(pred.left)
        right = self.resolver.resolve(pred.right)
        v_left = self._distinct_of(left)
        v_right = self._distinct_of(right)
        if v_left is None and v_right is None:
            return DEFAULT_JOIN_SEL
        v = max(v for v in (v_left, v_right) if v is not None)
        return 1.0 / max(1, v)

    def _distinct_of(self, resolved: Optional[ColumnBinding]) -> Optional[int]:
        if resolved is None or resolved.stats is None:
            return None
        return resolved.stats.num_distinct or None

    def _is_null(self, pred: IsNull) -> float:
        if isinstance(pred.operand, ColumnRef):
            resolved = self.resolver.resolve(pred.operand.name)
            if resolved is not None and resolved.stats is not None:
                frac = resolved.stats.null_fraction
                return (1.0 - frac) if pred.negated else frac
        return 0.9 if pred.negated else 0.1

    def _in_list(self, pred: InList) -> float:
        if not isinstance(pred.operand, ColumnRef):
            return DEFAULT_GUESS_SEL
        total = 0.0
        for item in pred.items:
            if isinstance(item, Literal) and item.value is not None:
                total += self._col_const(
                    ColCmpConst(pred.operand.name, CmpOp.EQ, item.value)
                )
        total = min(1.0, total)
        return (1.0 - total) if pred.negated else total

    def _like(self, pred: Like) -> float:
        prefix = _like_prefix(pred.pattern)
        if prefix and isinstance(pred.operand, ColumnRef):
            resolved = self.resolver.resolve(pred.operand.name)
            if (
                resolved is not None
                and resolved.stats is not None
                and resolved.dtype is DataType.TEXT
            ):
                # prefix match == range [prefix, prefix + \xff)
                lo = ColCmpConst(pred.operand.name, CmpOp.GE, prefix)
                hi = ColCmpConst(
                    pred.operand.name, CmpOp.LT, prefix + "￿"
                )
                sel = self._col_const(lo) + self._col_const(hi) - 1.0
                sel = max(0.0, min(1.0, sel))
                if pred.pattern != prefix + "%":
                    sel *= 0.5  # extra wildcards halve it (heuristic)
                return (1.0 - sel) if pred.negated else max(sel, 1e-6)
        sel = DEFAULT_LIKE_SEL
        return (1.0 - sel) if pred.negated else sel

    # -- relations -------------------------------------------------------------------

    def scan_selectivity(self, conjuncts: Sequence[Expr]) -> float:
        sel = 1.0
        for c in conjuncts:
            sel *= self.selectivity(c)
        return sel

    def scan_rows(self, table: TableInfo, conjuncts: Sequence[Expr]) -> float:
        base = float(
            table.stats.num_rows if table.stats is not None else table.num_rows
        )
        return base * self.scan_selectivity(conjuncts)

    def join_selectivity(self, conjuncts: Sequence[Expr]) -> float:
        """Combined selectivity of the join conjuncts between two sides."""
        sel = 1.0
        for c in conjuncts:
            sel *= self.selectivity(c)
        return sel

    # -- helpers for access-path selection ----------------------------------------------

    def matches_per_probe(self, column: str, fallback_rows: float) -> float:
        """Average inner rows matching one equality probe on *column*."""
        resolved = self.resolver.resolve(column)
        if resolved is not None and resolved.stats is not None:
            distinct = resolved.stats.num_distinct
            if distinct:
                return max(1.0, resolved.stats.nonnull_rows / distinct)
        return max(1.0, fallback_rows * DEFAULT_EQ_SEL)

    # -- feedback corrections -------------------------------------------------------

    def apply_feedback(self, key: Optional[str], rows: float) -> Optional[float]:
        """Corrected row count for *key*, or ``None`` when no feedback
        store is attached / no evidence exists for the key."""
        if self.feedback is None or key is None:
            return None
        if not self.feedback.has(key):
            return None
        return max(1.0, rows * self.feedback.correction(key))

    def feedback_rows(self, key: Optional[str], rows: float) -> float:
        """Like :meth:`apply_feedback` but falling back to *rows*."""
        corrected = self.apply_feedback(key, rows)
        return corrected if corrected is not None else rows


def _value_in_range(vx: float, bound: float, op: CmpOp) -> bool:
    if op is CmpOp.LT:
        return vx < bound
    if op is CmpOp.LE:
        return vx <= bound
    if op is CmpOp.GT:
        return vx > bound
    return vx >= bound


def _like_prefix(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch in ("%", "_"):
            break
        out.append(ch)
    return "".join(out)


def pages_for(rows: float, row_bytes: int, page_size: int = 4096) -> float:
    """Estimated pages an intermediate result of *rows* occupies."""
    if rows <= 0:
        return 1.0
    per_page = max(1, page_size // max(1, row_bytes))
    return max(1.0, math.ceil(rows / per_page))
