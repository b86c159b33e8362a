"""Expression analysis used by the rewriter and the optimizer.

Provides normalization (NOT pushdown, BETWEEN desugaring, constant folding),
conjunct splitting, column/table extraction, and classification of conjuncts
into the forms the optimizer knows how to price:

* :class:`ColCmpConst` — ``col OP constant`` (sargable; drives access paths)
* :class:`ColEqCol`    — ``col = col`` across tables (equi-join predicate)
* everything else      — priced with fallback ("guess") selectivities
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..types import Schema
from .nodes import (
    ARITH_FNS,
    CMP_FNS,
    AggCall,
    Arithmetic,
    Between,
    BoolKind,
    BoolOp,
    CmpOp,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    and_,
    walk,
)


# -- normalization ------------------------------------------------------------


def normalize(expr: Expr) -> Expr:
    """Desugar BETWEEN, push NOT inward (De Morgan), fold constants.

    The result contains no Between nodes and Not only directly above leaves
    the engine cannot negate (e.g. NOT LIKE stays as a negated Like).
    """
    expr = _desugar(expr)
    expr = _push_not(expr, negate=False)
    expr = fold_constants(expr)
    return expr


def _desugar(expr: Expr) -> Expr:
    if isinstance(expr, Between):
        operand = _desugar(expr.operand)
        inner = and_(
            Comparison(CmpOp.GE, operand, _desugar(expr.low)),
            Comparison(CmpOp.LE, operand, _desugar(expr.high)),
        )
        return Not(inner) if expr.negated else inner
    if isinstance(expr, BoolOp):
        return BoolOp(expr.kind, tuple(_desugar(o) for o in expr.operands))
    if isinstance(expr, Not):
        return Not(_desugar(expr.operand))
    if isinstance(expr, Comparison):
        return Comparison(expr.op, _desugar(expr.left), _desugar(expr.right))
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, _desugar(expr.left), _desugar(expr.right))
    if isinstance(expr, Negate):
        return Negate(_desugar(expr.operand))
    if isinstance(expr, InList):
        return InList(
            _desugar(expr.operand),
            tuple(_desugar(i) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(_desugar(expr.operand), expr.negated)
    if isinstance(expr, Like):
        return Like(_desugar(expr.operand), expr.pattern, expr.negated)
    return expr


def _push_not(expr: Expr, negate: bool) -> Expr:
    if isinstance(expr, Not):
        return _push_not(expr.operand, not negate)
    if isinstance(expr, BoolOp):
        operands = tuple(_push_not(o, negate) for o in expr.operands)
        kind = expr.kind
        if negate:
            kind = BoolKind.OR if kind is BoolKind.AND else BoolKind.AND
        return BoolOp(kind, operands)
    if not negate:
        return expr
    if isinstance(expr, Comparison):
        return Comparison(expr.op.negate(), expr.left, expr.right)
    if isinstance(expr, IsNull):
        return IsNull(expr.operand, not expr.negated)
    if isinstance(expr, InList):
        return InList(expr.operand, expr.items, not expr.negated)
    if isinstance(expr, Like):
        return Like(expr.operand, expr.pattern, not expr.negated)
    return Not(expr)


def fold_constants(expr: Expr) -> Expr:
    """Evaluate constant subtrees at plan time (``1 + 2`` -> ``3``;
    ``TRUE AND p`` -> ``p``)."""
    if isinstance(expr, BoolOp):
        operands = [fold_constants(o) for o in expr.operands]
        is_and = expr.kind is BoolKind.AND
        kept: List[Expr] = []
        for o in operands:
            if isinstance(o, Literal) and isinstance(o.value, bool):
                if o.value is is_and:
                    continue  # neutral element
                return Literal(not is_and)  # absorbing element
            kept.append(o)
        if not kept:
            return Literal(is_and)
        if len(kept) == 1:
            return kept[0]
        return BoolOp(expr.kind, tuple(kept))
    if isinstance(expr, Not):
        inner = fold_constants(expr.operand)
        if isinstance(inner, Literal) and isinstance(inner.value, bool):
            return Literal(not inner.value)
        return Not(inner)
    if isinstance(expr, Comparison):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if (
            isinstance(left, Literal)
            and isinstance(right, Literal)
            and left.value is not None
            and right.value is not None
        ):
            return Literal(CMP_FNS[expr.op](left.value, right.value))
        return Comparison(expr.op, left, right)
    if isinstance(expr, Arithmetic):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if (
            isinstance(left, Literal)
            and isinstance(right, Literal)
            and left.value is not None
            and right.value is not None
        ):
            try:
                value = ARITH_FNS[expr.op](left.value, right.value)
            except TypeError:
                return expr
            # x/0 and x%0 are NULL at run time; the node stays unfolded
            return expr if value is None else Literal(value)
        return Arithmetic(expr.op, left, right)
    if isinstance(expr, Negate):
        inner = fold_constants(expr.operand)
        if isinstance(inner, Literal) and inner.value is not None:
            return Literal(-inner.value)
        return Negate(inner)
    return expr


# -- decomposition -----------------------------------------------------------------


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Split top-level ANDs into a flat conjunct list (after normalize)."""
    if expr is None:
        return []
    expr = normalize(expr)
    if isinstance(expr, BoolOp) and expr.kind is BoolKind.AND:
        out: List[Expr] = []
        for o in expr.operands:
            out.extend(split_conjuncts(o))
        return out
    if isinstance(expr, Literal) and expr.value is True:
        return []
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Inverse of :func:`split_conjuncts`."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return and_(*conjuncts)


def referenced_columns(expr: Expr) -> Set[str]:
    return {node.name for node in walk(expr) if isinstance(node, ColumnRef)}


def referenced_tables(expr: Expr, schema: Schema) -> FrozenSet[str]:
    """Tables (qualifiers) referenced by *expr*, resolved against *schema*."""
    tables: Set[str] = set()
    for name in referenced_columns(expr):
        column = schema.column(name)
        if column.table is not None:
            tables.add(column.table)
    return frozenset(tables)


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggCall) for node in walk(expr))


def map_expr(expr: Expr, fn) -> Expr:
    """Bottom-up structural rewrite: rebuild *expr* with every node passed
    through *fn* (children already rewritten).  ``fn`` returns either the
    node unchanged or a replacement."""
    from .nodes import SubqueryExpr

    if isinstance(expr, Comparison):
        expr = Comparison(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, Arithmetic):
        expr = Arithmetic(expr.op, map_expr(expr.left, fn), map_expr(expr.right, fn))
    elif isinstance(expr, BoolOp):
        expr = BoolOp(expr.kind, tuple(map_expr(o, fn) for o in expr.operands))
    elif isinstance(expr, Not):
        expr = Not(map_expr(expr.operand, fn))
    elif isinstance(expr, Negate):
        expr = Negate(map_expr(expr.operand, fn))
    elif isinstance(expr, IsNull):
        expr = IsNull(map_expr(expr.operand, fn), expr.negated)
    elif isinstance(expr, InList):
        expr = InList(
            map_expr(expr.operand, fn),
            tuple(map_expr(i, fn) for i in expr.items),
            expr.negated,
        )
    elif isinstance(expr, Like):
        expr = Like(map_expr(expr.operand, fn), expr.pattern, expr.negated)
    elif isinstance(expr, Between):
        expr = Between(
            map_expr(expr.operand, fn),
            map_expr(expr.low, fn),
            map_expr(expr.high, fn),
            expr.negated,
        )
    elif isinstance(expr, AggCall) and expr.arg is not None:
        expr = AggCall(expr.func, map_expr(expr.arg, fn), expr.distinct)
    elif isinstance(expr, SubqueryExpr) and expr.operand is not None:
        expr = SubqueryExpr(
            expr.kind, map_expr(expr.operand, fn), expr.payload, expr.negated
        )
    return fn(expr)


def contains_subquery(expr: Expr) -> bool:
    from .nodes import SubqueryExpr

    return any(isinstance(node, SubqueryExpr) for node in walk(expr))


# -- conjunct classification --------------------------------------------------------


@dataclass(frozen=True)
class ColCmpConst:
    """Sargable predicate: ``column OP constant``."""

    column: str
    op: CmpOp
    value: Any


@dataclass(frozen=True)
class ColEqCol:
    """Equality between two columns (join predicate when tables differ)."""

    left: str
    right: str


def classify_conjunct(expr: Expr):
    """Classify one conjunct.

    Returns a :class:`ColCmpConst`, a :class:`ColEqCol`, or ``None`` for
    anything the optimizer prices with fallback selectivities.  Comparisons
    are canonicalized so the column is on the left.
    """
    if isinstance(expr, Comparison):
        left, right, op = expr.left, expr.right, expr.op
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right, op = right, left, op.flip()
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            if right.value is None:
                return None
            return ColCmpConst(left.name, op, right.value)
        if (
            isinstance(left, ColumnRef)
            and isinstance(right, ColumnRef)
            and op is CmpOp.EQ
        ):
            return ColEqCol(left.name, right.name)
    return None


def sargable_conjuncts(
    conjuncts: Sequence[Expr],
) -> List[Tuple[Expr, ColCmpConst]]:
    """The subset of *conjuncts* that are ``col OP const``, with their
    classification."""
    out = []
    for c in conjuncts:
        cls = classify_conjunct(c)
        if isinstance(cls, ColCmpConst):
            out.append((c, cls))
    return out


def equijoin_conjuncts(conjuncts: Sequence[Expr]) -> List[Tuple[Expr, ColEqCol]]:
    out = []
    for c in conjuncts:
        cls = classify_conjunct(c)
        if isinstance(cls, ColEqCol):
            out.append((c, cls))
    return out
