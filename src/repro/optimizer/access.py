"""Access path selection.

For one relation (plus its pushed-down filter conjuncts), enumerate every
way to read it — sequential scan, B+-tree range scan, index-only
scan — price each with the cost model, and report the
*interesting order* each provides.  The join enumerator keeps the cheapest
candidate per order; experiment E2 sweeps selectivity to locate the
seq-vs-index crossovers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from ..catalog import TableInfo
from ..expr import (
    CmpOp,
    ColCmpConst,
    Expr,
    classify_conjunct,
    conjoin,
)
from ..physical import (
    PIndexOnlyScan,
    PIndexScan,
    PSeqScan,
    PhysicalPlan,
    RangeBound,
)
from ..obs import scan_key
from .cost import Cost, CostModel
from .estimate import Estimator


@dataclass
class ScanCandidate:
    """One priced way to produce a relation's (filtered) rows."""

    plan: PhysicalPlan
    cost: Cost
    rows: float  # output rows after ALL conjuncts
    order: Optional[str] = None  # qualified column the output is sorted on

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.plan.describe()} rows≈{self.rows:.0f} {self.cost}"


@dataclass
class _Bounds:
    low: RangeBound
    high: RangeBound
    used: List[Expr]

    @property
    def is_equality(self) -> bool:
        return (
            not self.low.unbounded
            and not self.high.unbounded
            and self.low.value == self.high.value
            and self.low.inclusive
            and self.high.inclusive
        )

    @property
    def bounded(self) -> bool:
        return not (self.low.unbounded and self.high.unbounded)


def extract_bounds(
    conjuncts: Sequence[Expr], column_names: Set[str]
) -> Tuple[_Bounds, List[Expr]]:
    """Partition *conjuncts* into range bounds on the index column (any of
    its acceptable spellings in *column_names*) and residual predicates."""
    low = RangeBound.open()
    high = RangeBound.open()
    used: List[Expr] = []
    residual: List[Expr] = []
    for conjunct in conjuncts:
        classified = classify_conjunct(conjunct)
        if (
            not isinstance(classified, ColCmpConst)
            or classified.column not in column_names
            or classified.op is CmpOp.NE
        ):
            residual.append(conjunct)
            continue
        value, op = classified.value, classified.op
        if op is CmpOp.EQ:
            low = _tighten_low(low, value, True)
            high = _tighten_high(high, value, True)
        elif op in (CmpOp.GT, CmpOp.GE):
            low = _tighten_low(low, value, op is CmpOp.GE)
        else:  # LT / LE
            high = _tighten_high(high, value, op is CmpOp.LE)
        used.append(conjunct)
    return _Bounds(low, high, used), residual


def _tighten_low(current: RangeBound, value, inclusive: bool) -> RangeBound:
    if current.unbounded:
        return RangeBound.at(value, inclusive)
    if value > current.value or (
        value == current.value and not inclusive and current.inclusive
    ):
        return RangeBound.at(value, inclusive)
    return current


def _tighten_high(current: RangeBound, value, inclusive: bool) -> RangeBound:
    if current.unbounded:
        return RangeBound.at(value, inclusive)
    if value < current.value or (
        value == current.value and not inclusive and current.inclusive
    ):
        return RangeBound.at(value, inclusive)
    return current


def index_bounds(
    index, binding: str, conjuncts: Sequence[Expr]
) -> Tuple[RangeBound, RangeBound]:
    """The range of *index* that *conjuncts* leave: what an index scan's
    ``low``/``high`` are derived with, at planning time and again when the
    plan cache binds a scan's ``bound_conjuncts`` to new literals."""
    if index.is_composite:
        low, high, _ = _composite_bounds(index, binding, conjuncts)
        return low, high
    bounds, _ = extract_bounds(
        conjuncts, {index.column, f"{binding}.{index.column}"}
    )
    return bounds.low, bounds.high


def access_paths(
    table: TableInfo,
    binding: str,
    conjuncts: Sequence[Expr],
    estimator: Estimator,
    model: CostModel,
    needed_columns: Optional[Set[str]] = None,
    consider_unbounded_index: bool = True,
) -> List[ScanCandidate]:
    """All priced access paths for one relation."""
    pages = table.num_pages
    base_rows = float(
        table.stats.num_rows if table.stats is not None else table.num_rows
    )
    # The feedback key covers the binding + ALL its filter conjuncts, so
    # every access path for this relation (which all emit the same filtered
    # rows) shares one key; execution-time actuals harvested under it apply
    # uniformly here.
    fb_key = scan_key(table.name, binding, conjuncts)
    out_rows = estimator.feedback_rows(
        fb_key, estimator.scan_rows(table, conjuncts)
    )
    candidates: List[ScanCandidate] = []

    # 1. Sequential scan.
    seq = PSeqScan(table, binding, conjoin(list(conjuncts)))
    seq_cost = model.seq_scan(pages, base_rows)
    if conjuncts:
        seq_cost = seq_cost + model.filter(base_rows, len(conjuncts))
    seq.est_rows, seq.est_cost = out_rows, seq_cost
    candidates.append(ScanCandidate(seq, seq_cost, out_rows, order=None))

    # 2. Index paths.
    for column, index in table.indexes.items():
        qualified = f"{binding}.{column}"
        if index.is_composite:
            candidate = _composite_candidate(
                table, binding, index, conjuncts, estimator, model,
                base_rows, out_rows, pages,
            )
            if candidate is not None:
                candidates.append(candidate)
            continue
        names = {column, qualified}
        bounds, residual = extract_bounds(conjuncts, names)

        if bounds.bounded:
            matching = base_rows * estimator.scan_selectivity(bounds.used)
            plan = PIndexScan(
                table,
                binding,
                index,
                bounds.low,
                bounds.high,
                conjoin(residual),
                tuple(bounds.used),
            )
            cost = model.index_scan(index, pages, base_rows, matching)
            if residual:
                cost = cost + model.filter(matching, len(residual))
            plan.est_rows, plan.est_cost = out_rows, cost
            candidates.append(ScanCandidate(plan, cost, out_rows, qualified))

            # Index-only variant when the key column is all that's needed.
            if (
                needed_columns is not None
                and not residual
                and needed_columns <= {qualified}
            ):
                ionly = PIndexOnlyScan(
                    table, binding, index, bounds.low, bounds.high,
                    tuple(bounds.used),
                )
                icost = model.index_only_scan(index, base_rows, matching)
                ionly.est_rows, ionly.est_cost = out_rows, icost
                candidates.append(
                    ScanCandidate(ionly, icost, out_rows, qualified)
                )

        elif consider_unbounded_index:
            # Full index scan: expensive, but delivers sorted output (kept
            # only if its interesting order pays off in the DP).
            plan = PIndexScan(
                table,
                binding,
                index,
                RangeBound.open(),
                RangeBound.open(),
                conjoin(list(conjuncts)),
            )
            cost = model.index_scan(index, pages, base_rows, base_rows)
            if conjuncts:
                cost = cost + model.filter(base_rows, len(conjuncts))
            plan.est_rows, plan.est_cost = out_rows, cost
            candidates.append(ScanCandidate(plan, cost, out_rows, qualified))

    for cand in candidates:
        cand.plan.feedback_key = fb_key
    return candidates


def _composite_bounds(
    index, binding: str, conjuncts: Sequence[Expr]
) -> Tuple[RangeBound, RangeBound, List[Expr]]:
    """Tuple bounds of a composite B+-tree from equality conjuncts on a
    key prefix and, optionally, a range on the next key column; plus the
    conjuncts used (none: nothing is sargable on the prefix)."""
    from ..index.keys import MAX_KEY

    prefix: List = []
    used: List[Expr] = []
    range_bounds: Optional[_Bounds] = None
    for key_column in index.columns:
        names = {key_column, f"{binding}.{key_column}"}
        bounds, _ = extract_bounds(conjuncts, names)
        if bounds.is_equality:
            prefix.append(bounds.low.value)
            used.extend(bounds.used)
            continue
        if bounds.bounded:
            range_bounds = bounds
            used.extend(bounds.used)
        break

    low_parts = list(prefix)
    high_parts = list(prefix)
    low_inclusive = True
    high_inclusive = True
    if range_bounds is not None:
        if not range_bounds.low.unbounded:
            low_parts.append(range_bounds.low.value)
            low_inclusive = range_bounds.low.inclusive
        if not range_bounds.high.unbounded:
            high_parts.append(range_bounds.high.value)
            high_inclusive = range_bounds.high.inclusive
            if range_bounds.high.inclusive and len(high_parts) < len(
                index.columns
            ):
                high_parts.append(MAX_KEY)
        else:
            high_parts.append(MAX_KEY)
    elif len(prefix) < len(index.columns):
        high_parts.append(MAX_KEY)

    low = RangeBound.at(tuple(low_parts), low_inclusive)
    high = RangeBound.at(tuple(high_parts), high_inclusive)
    return low, high, used


def _composite_candidate(
    table: TableInfo,
    binding: str,
    index,
    conjuncts: Sequence[Expr],
    estimator: Estimator,
    model: CostModel,
    base_rows: float,
    out_rows: float,
    pages: int,
) -> Optional[ScanCandidate]:
    """Sargability for a composite B+-tree: equality conjuncts on a key
    prefix, optionally a range on the next key column.

    Exclusive/inclusive subtleties of non-final components over-fetch
    slightly, so every conjunct is also re-applied as a residual filter —
    the classic "index filter" discipline.
    """
    low, high, used = _composite_bounds(index, binding, conjuncts)
    if not used:
        return None  # nothing sargable on the key prefix
    matching = base_rows * estimator.scan_selectivity(used)
    plan = PIndexScan(
        table, binding, index, low, high, conjoin(list(conjuncts)),
        tuple(used),
    )
    cost = model.index_scan(index, pages, base_rows, matching)
    if conjuncts:
        cost = cost + model.filter(matching, len(conjuncts))
    plan.est_rows, plan.est_cost = out_rows, cost
    order = f"{binding}.{index.columns[0]}"
    return ScanCandidate(plan, cost, out_rows, order)
